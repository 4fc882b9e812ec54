"""Test-side reference forms of the truncated-operator oracle.

No library or command path reads these.  They check the oracle and the
state-space solution against the operator forms of the paper: the defining
form of B_nabla, the feedback (lifting) form of the coefficients, and the
operator identities that certify the truncation itself.  Each builds the
dense matrices T_G and T_K (gathered from the context's first block columns
by lower_block_toeplitz), T_Theta, and reads the explicit inverses that
leechsolve.toeplitz.OracleContext keeps for them (core_inv, gram_inv, lam,
ill_inv).  The kernel function's samples and the up resolvent are the
Horner recursion of tests/conftest.py (resolvent_loop), at one point at a
time.  The realizations of G and K alone, the observability matrix, a
second formation of the kernel defect and a definiteness test for a matrix
that may not be Hermitian are here too.
"""

import numpy as np

from leechsolve.core import _kernel_defect, _pair_gap_solve
from leechsolve.linalg import DEFAULT_TOL, _square, herm, solve_hermitian
from leechsolve.realization import Realization, observability_blocks
from leechsolve.toeplitz import (
    _delta_squares,
    lower_block_toeplitz,
    oracle_deltas,
    resolvent_down,
    shift_up,
)
from tests.conftest import dense_toeplitz, resolvent_loop


def g_of(data):
    """Realization of G from LeechData: (A, B1, C, D1)."""
    return Realization(data.A, data.B1, data.C, data.D1)


def k_of(data):
    """Realization of K from LeechData: (A, B2, C, D2)."""
    return Realization(data.A, data.B2, data.C, data.D2)


def theta0_defect(data, Q0, P1):
    """Gram defect M of the constant term of the inner kernel function,
    rebuilt from the kernel Riccati solution Q0 and P1 alone: the kernel
    Popov form (R10, Gamma0), Schur complement Delta10, gain and closed loop
    are formed here, where solve() passes the kernel Riccati solution's own."""
    A, B1, C, D1 = data.A, data.B1, data.C, data.D1
    R10 = herm(D1 @ D1.conj().T + C @ P1 @ C.conj().T)
    Gamma0 = B1 @ D1.conj().T + A @ P1 @ C.conj().T
    Delta10 = herm(R10 - Gamma0.conj().T @ Q0 @ Gamma0)
    C0p = solve_hermitian(Delta10, C - Gamma0.conj().T @ Q0 @ A, "kernel defect")
    return _kernel_defect(data, P1, Gamma0, Q0, Delta10, C0p, A - Gamma0 @ C0p)[0]


def omega_of(derived):
    """The Omega solve() formed, Omega = (I + (P2 - P1) Q)^{-1} (P1 - P2),
    from the same solve against [P1 - P2, F1]."""
    return _pair_gap_solve(derived.P1, derived.P2, derived.Q, derived.F1)[0]


def observability_matrix(C, A, N):
    """The first N blocks [C; C A; ...; C A^(N-1)] stacked as one matrix."""
    return observability_blocks(C, A, N).reshape(N * len(C), A.shape[0])


def resolvent_up(X, z, r):
    """(I - z S*)^{-1} X at one point z (exact: S* is nilpotent): block i is
    the sum over j >= i of z^(j-i) X_j, by the Horner recursion."""
    return resolvent_loop(X, z, r)


def theta_sample(theta, z):
    """Theta(z) = Theta0 - z E_p* T_G* (I - z S_m*)^{-1} gram^{-1} N of a
    ThetaOracle at one point z."""
    ctx = theta.ctx
    return theta.Theta0 - z * (ctx.TgEp.conj().T @ resolvent_up(theta.w, z, ctx.m))


def hermitian_posdef_check(M):
    """True iff M is Hermitian within DEFAULT_TOL and its smallest eigenvalue is positive.

    The empty 0x0 matrix counts as positive definite.
    """
    A = _square(M, "definiteness test")
    if len(A) == 0:
        return True
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(A - A.conj().T) > DEFAULT_TOL * scale:
        return False
    return bool(np.linalg.eigvalsh(herm(A))[0] > 0.0)


def shift_down(X, r):
    """Apply the block shift S (one block down) to block-stacked columns."""
    Y = np.zeros_like(X)
    if X.shape[0] > r:
        Y[r:] = X[:-r]
    return Y


def theta_toeplitz(theta):
    """Truncated T_Theta on the same window as the context: the lower block
    Toeplitz matrix of the first N Taylor blocks of Theta, Theta0 and then
    -E_p* T_G* (S_m*)^j gram^{-1} N."""
    ctx = theta.ctx
    out = [theta.Theta0.copy()]
    wj = theta.w
    for _ in range(ctx.N - 1):
        out.append(-(ctx.TgEp.conj().T @ wj))
        wj = shift_up(wj, ctx.m)
    return lower_block_toeplitz(np.concatenate(out), ctx.p)


def bnabla(ctx, theta):
    """B_nabla = (I - Lambda* Lambda)^{-1} Lambda* S_p* T_Theta E_k,
    computed through the equivalent compact form -T_K* core^{-1} N."""
    return -(dense_toeplitz(ctx)[1].conj().T @ theta.core_n)


def bnabla_defect(ctx, theta):
    """Defect between the defining form of B_nabla and the compact form."""
    k = ctx.p - ctx.m
    TTEk = theta_toeplitz(theta)[:, :k]
    direct = ctx.ill_inv @ (ctx.lam.conj().T @ shift_up(TTEk, ctx.p))
    # shift_up on stacked rows applies S_p* on the left of T_Theta E_k
    compact = bnabla(ctx, theta)
    scale = max(1.0, float(np.linalg.norm(compact)))
    return float(np.linalg.norm(direct - compact)) / scale


def _feedback_matrix(ctx):
    """Dense matrix of M = S_q* - S_q* (I - Lambda* Lambda)^{-1} E_q Delta0^{-2} E_q*."""
    Nq = ctx.N * ctx.q
    E = ctx.TkEq
    d0sq = np.eye(ctx.q, dtype=complex) + E.conj().T @ ctx.core_solved[:, :ctx.q]
    A = np.eye(Nq, dtype=complex)
    A[:, :ctx.q] -= ctx.ill_inv[:, :ctx.q] @ np.linalg.inv(d0sq)
    return shift_up(A, ctx.q)


def oracle_appendix_phi(ctx, theta, zs):
    """Sample the feedback coefficients of the lifting form at points zs,
    together with the outer-fraction data U, V and det V.

    Phi11(z) = -z Delta0^{-1} E_q* (I - z M)^{-1} B_nabla Delta1^{-1}
    Phi12(z) =    Delta0^{-1} E_q* (I - z M)^{-1} E_q
    Phi21(z) = Theta(z) Delta1 - Theta(z) E_k* T_Theta* S_p Lambda (I - z M)^{-1} B_nabla Delta1^{-1}
    Phi22(z) = E_p* (I - z S_p*)^{-1} Lambda E_q + Theta(z) E_k* T_Theta* S_p Lambda M (I - z M)^{-1} E_q
    U(z)     = E_p* (I - z S_p*)^{-1} Lambda (I - Lambda* Lambda)^{-1} E_q
    V(z)     = E_q* (I - z S_q*)^{-1} (I - Lambda* Lambda)^{-1} E_q
    """
    p, q, k = ctx.p, ctx.q, ctx.p - ctx.m
    Delta0, Delta1 = oracle_deltas(ctx, theta)
    d0i = np.linalg.inv(Delta0)
    d1i = np.linalg.inv(Delta1)
    M = _feedback_matrix(ctx)
    Nq = M.shape[0]
    Bn = bnabla(ctx, theta)
    TTEk = theta_toeplitz(theta)[:, :k]
    hook = TTEk.conj().T @ shift_down(ctx.lam, p)   # E_k* T_Theta* S_p Lambda
    lamEq = ctx.lam[:, :q]
    illEq = ctx.ill_inv[:, :q]
    out = {"Phi11": [], "Phi12": [], "Phi21": [], "Phi22": [],
           "U": [], "V": [], "detV": [],
           "Delta0": Delta0, "Delta1": Delta1}
    eye = np.eye(Nq, dtype=complex)
    for z in zs:
        thz = theta_sample(theta, z)
        rhs = np.linalg.solve(eye - z * M, np.hstack([Bn, eye[:, :q]]))
        rB, rE = rhs[:, :k], rhs[:, k:]
        out["Phi11"].append(-z * d0i @ rB[:q] @ d1i)
        out["Phi12"].append(d0i @ rE[:q])
        out["Phi21"].append(thz @ Delta1 - thz @ hook @ rB @ d1i)
        out["Phi22"].append(resolvent_up(lamEq, z, p)[:p]
                            + thz @ hook @ (M @ rE))
        Uz = resolvent_up(ctx.lam @ illEq, z, p)[:p]
        Vz = resolvent_up(illEq, z, q)[:q]
        out["U"].append(Uz)
        out["V"].append(Vz)
        out["detV"].append(complex(np.linalg.det(Vz)) if q else 1.0 + 0j)
    return out


def delta1_appendix_defect(ctx, theta):
    """Defect between the lifting-form Delta1^2 (via T_Theta and Lambda) and
    the compact Delta1^2; both should agree to truncation accuracy."""
    k = ctx.p - ctx.m
    TTEk = theta_toeplitz(theta)[:, :k]
    hook = TTEk.conj().T @ shift_down(ctx.lam, ctx.p)
    d1sq_app = np.eye(k, dtype=complex) + hook @ (ctx.ill_inv @ hook.conj().T)
    d1sq = _delta_squares(ctx, theta)[1]
    scale = max(1.0, float(np.linalg.norm(d1sq)))
    return float(np.linalg.norm(d1sq_app - d1sq)) / scale


# ---------------------------------------------------------------------------
# Operator identities used to certify the truncation itself.  Each returns a
# relative defect; identities touched by the truncation boundary are compared
# on leading blocks only, as documented per function.
# ---------------------------------------------------------------------------

def _rel(defect, scale):
    return float(defect) / max(1.0, float(scale))


def identity_gram_inverse(ctx):
    """(I - Lambda* Lambda)^{-1} = I + T_K* core^{-1} T_K  (exact on the window)."""
    lhs = ctx.ill_inv
    Tk = dense_toeplitz(ctx)[1]
    rhs = np.eye(lhs.shape[0], dtype=complex) + Tk.conj().T @ (ctx.core_inv @ Tk)
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))


def identity_lambda_gram(ctx):
    """Lambda (I - Lambda* Lambda)^{-1} = T_G* core^{-1} T_K  (exact on the window)."""
    lhs = ctx.lam @ ctx.ill_inv
    Tg, Tk = dense_toeplitz(ctx)
    rhs = Tg.conj().T @ (ctx.core_inv @ Tk)
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))


def identity_shift_compression(ctx, which="g"):
    """T_F E E* T_F* = T_F T_F* - S T_F T_F* S* for F in {G, K}; the truncated
    version is exact on the leading N-1 block rows and columns."""
    T = dense_toeplitz(ctx)[0 if which == "g" else 1]
    cols = ctx.p if which == "g" else ctx.q
    E = T[:, :cols]
    prod = herm(T @ T.conj().T)
    lhs = E @ E.conj().T
    shifted = shift_down(shift_down(prod, ctx.m).T, ctx.m).T
    rhs = prod - shifted
    lead = (ctx.N - 1) * ctx.m
    return _rel(np.linalg.norm(lhs[:lead, :lead] - rhs[:lead, :lead]),
                np.linalg.norm(rhs[:lead, :lead]))


def identity_resolvent_shift(ctx, z):
    """E_m* (I - z S_m*)^{-1} S_m = z E_m* (I - z S_m*)^{-1}; the truncation
    differs only in the last block column, so compare the leading N-1."""
    Nm = ctx.N * ctx.m
    row = resolvent_up(np.eye(Nm, dtype=complex), z, ctx.m)[:ctx.m]
    lhs = shift_up(row.T, ctx.m).T  # row S_m: the columns shifted one block left
    rhs = z * row
    lead = (ctx.N - 1) * ctx.m
    return _rel(np.linalg.norm(lhs[:, :lead] - rhs[:, :lead]),
                np.linalg.norm(rhs[:, :lead]))


def identity_resolvent_compression(ctx, X, z):
    """E_m* (I-zS*)^{-1} (X - S X S*) (I-zS*)^{-1} = E_m* (I-zS*)^{-1} X.

    Needs the left E_m* row compression; the full-operator version of the
    truncated identity diverges.  Compared on the leading half block columns
    at interior z."""
    m = ctx.m
    SXS = shift_down(shift_down(X, m).T, m).T
    W = resolvent_up(X - SXS, z, m)
    lhs = resolvent_down(W.T, z, m).T[:m]
    rhs = resolvent_up(X, z, m)[:m]
    half = (ctx.N // 2) * m
    return _rel(np.linalg.norm(lhs[:, :half] - rhs[:, :half]),
                np.linalg.norm(rhs[:, :half]))


def identity_kernel_resolvent(ctx, z, Gz, Kz):
    """G(z) A(z) - K(z) B(z) = E_m* (I - z S_m*)^{-1} core, with
    A(z) = E_p* T_G* (I-zS_m*)^{-1} and B(z) = E_q* T_K* (I-zS_m*)^{-1};
    compared on the leading half block columns."""
    m = ctx.m
    # E* T* (I - z S*)^{-1} computed as a plain transpose of a forward recursion
    Az = resolvent_down(ctx.TgEp.conj(), z, m).T
    Bz = resolvent_down(ctx.TkEq.conj(), z, m).T
    lhs = Gz @ Az - Kz @ Bz
    rhs = resolvent_up(ctx.core, z, m)[:m]
    half = (ctx.N // 2) * m
    return _rel(np.linalg.norm(lhs[:, :half] - rhs[:, :half]),
                np.linalg.norm(rhs[:, :half]))


def identity_theta_resolvent(ctx, theta, z):
    """Theta(z) N* gram^{-1} = E_p* (I-zS_p*)^{-1} T_G* gram^{-1} (I-zS_m*) S_m,
    compared on the leading half block columns at interior z."""
    lhs = theta_sample(theta, z) @ (theta.Nop.conj().T @ ctx.gram_inv)
    T1 = resolvent_up(dense_toeplitz(ctx)[0].conj().T, z, ctx.p)[:ctx.p]
    T2 = T1 @ ctx.gram_inv
    # T2 (I - z S_m*) S_m: on the right, S_m* shifts the columns one block
    # right and S_m one block left
    T3 = shift_up((T2 - z * shift_down(T2.T, ctx.m).T).T, ctx.m).T
    half = (ctx.N // 2) * ctx.m
    return _rel(np.linalg.norm(lhs[:, :half] - T3[:, :half]),
                np.linalg.norm(lhs[:, :half]))


def toeplitz_r(data, R0, Gamma, N):
    """Truncated selfadjoint Toeplitz matrix of R = G G* - K K*: block diagonal
    R0, lower blocks C A^{j-1} Gamma, upper blocks their adjoints."""
    column = np.concatenate([np.asarray(R0, dtype=complex),
                             observability_matrix(data.C, data.A, N - 1) @ Gamma])
    T = lower_block_toeplitz(column, data.m)
    D = np.kron(np.eye(N), herm(np.asarray(R0, dtype=complex)))
    return T + T.conj().T - D


def gram_riccati_defect(ctx, R0, Gamma, Q):
    """Relative defect of Q = W_obs* T_R^{-1} W_obs on the truncation."""
    TR = toeplitz_r(ctx.data, R0, Gamma, ctx.N)
    W = observability_matrix(ctx.data.C, ctx.data.A, ctx.N)
    W0 = np.linalg.solve(TR, W)
    return _rel(np.linalg.norm(W.conj().T @ W0 - Q), np.linalg.norm(Q))


def woodbury_defect(ctx, R0, Gamma, Omega):
    """Relative defect of core^{-1} = T_R^{-1} + W_0 Omega W_0* with
    W_0 = T_R^{-1} W_obs, compared on the leading half block rows and columns
    of the window (the tail is polluted by the truncation boundary)."""
    TR = toeplitz_r(ctx.data, R0, Gamma, ctx.N)
    W = observability_matrix(ctx.data.C, ctx.data.A, ctx.N)
    n, half = W.shape[1], (ctx.N // 2) * ctx.m
    X = np.linalg.solve(TR, np.hstack([W, np.eye(len(TR), half)]))[:half]
    W0 = X[:, :n]
    rhs = X[:, n:] + W0 @ Omega @ W0.conj().T
    lhs = ctx.core_inv[:half, :half]
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))

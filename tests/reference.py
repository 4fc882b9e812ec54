"""Test-side reference forms of the truncated-operator oracle.

No library or command path reads these.  They check the oracle and the
state-space solution against the operator forms of the paper: the defining
form of B_nabla, the feedback (lifting) form of the coefficients, and the
operator identities that certify the truncation itself.  Each builds the
dense matrices T_G, T_K, T_Theta and the explicit inverses that
leechsolve.toeplitz.OracleContext keeps for them (Tg, Tk, core_inv,
gram_inv, lam, ill_inv).
"""

import numpy as np

from leechsolve.linalg import herm
from leechsolve.realization import observability_matrix
from leechsolve.toeplitz import (
    _delta_squares,
    lower_block_toeplitz,
    oracle_deltas,
    resolvent_down,
    resolvent_up,
    shift_up,
)


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
    return -(ctx.Tk.conj().T @ theta.core_n)


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
        thz = theta.sample(z)
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
    rhs = np.eye(lhs.shape[0], dtype=complex) + ctx.Tk.conj().T @ (ctx.core_inv @ ctx.Tk)
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))


def identity_lambda_gram(ctx):
    """Lambda (I - Lambda* Lambda)^{-1} = T_G* core^{-1} T_K  (exact on the window)."""
    lhs = ctx.lam @ ctx.ill_inv
    rhs = ctx.Tg.conj().T @ (ctx.core_inv @ ctx.Tk)
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))


def identity_shift_compression(ctx, which="g"):
    """T_F E E* T_F* = T_F T_F* - S T_F T_F* S* for F in {G, K}; the truncated
    version is exact on the leading N-1 block rows and columns."""
    T = ctx.Tg if which == "g" else ctx.Tk
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
    lhs = theta.sample(z) @ (theta.Nop.conj().T @ ctx.gram_inv)
    T1 = resolvent_up(ctx.Tg.conj().T, z, ctx.p)[:ctx.p]
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

"""Truncated block-Toeplitz oracle.

The multiplication operator of a stable rational F, compressed to the first N
Taylor coefficients, is the lower block-triangular Toeplitz matrix of its
Taylor blocks.  Sums and products of such compressions are exact compressions
again as long as no truncated tail enters; quantities involving an inverse
carry a boundary error decaying like rho^(distance to the truncation edge).
All oracle comparisons therefore restrict to leading blocks and to sample
points in the interior of the disc, and every formula here is evaluated
purely from Taylor data, independent of the state-space solution path.

A truncation is kept as its first block column T E, the stacked Taylor
blocks (truncate); lower_block_toeplitz assembles the full matrix from it
only where an operator identity needs T itself.  The Gram matrices
gram = T_G T_G* and core = T_G T_G* - T_K T_K* are built from their
displacement: T T* - S T T* S* = (T E)(T E)* gives each from the first block
column alone (toeplitz_gram), with no dense product.  Block (i, j) depends
only on the first max(i, j) + 1 Taylor blocks, so the matrices of window N
are the leading principal blocks of those of window 2N, and the margins fall
along a ladder of windows.  A ladder therefore builds one context at its
largest window; OracleContext.window(N) hands out each smaller rung as
leading-row slices of its columns and leading-block slices of its Gram
matrices, with no second truncation.

The oracle path forms no N m x N m inverse: it solves once with gram and once
with core against thin stacked right-hand sides (OracleContext.gram_solved,
core_solved) and samples all points through one resolvent recursion.  It also
eigen-solves only core: gram - core = T_K T_K* is positive semidefinite, so a
positive core margin already proves gram definite, and the Gram margin is
computed only when the core margin is not positive.  The explicit inverses
serve the operator identities at the end of this module.
"""

from functools import cached_property

import numpy as np

from .errors import DimensionError, InfeasibleError, StabilityError
from .linalg import herm, sqrtm_posdef
from .realization import is_schur_stable, taylor_blocks
from .riccati import observability_matrix


def lower_block_toeplitz(column, r):
    """Assemble the lower block-triangular Toeplitz matrix whose first block
    column (blocks r rows high) is `column`.

    Block column j is the column shifted down by j blocks, so the matrix is
    filled one whole block column at a time."""
    N = column.shape[0] // r
    c = column.shape[1]
    T = np.zeros((N * r, N * c), dtype=complex)
    for j in range(N):
        T[j * r:, j * c:(j + 1) * c] = column[:(N - j) * r]
    return T


def toeplitz_gram(column, r):
    """T T* for the lower block Toeplitz T whose first block column (blocks
    r rows high) is `column`, from the displacement identity

        T T* - S T T* S* = (T E)(T E)*:

    block (i, j) is block (i-1, j-1) plus c_i c_j*, so one thin product and
    N block-row updates replace the dense N r x N r product."""
    N = column.shape[0] // r
    G = column @ column.conj().T
    blocks = G.reshape(N, r, N, r)
    for i in range(1, N):
        blocks[i, :, 1:] += blocks[i - 1, :, :-1]
    return herm(G)


def truncate(F, N):
    """First block column T_F E of the truncated Toeplitz compression of a
    stable rational function: its first N Taylor blocks stacked (N out x in)."""
    N = int(N)
    if N < 1:
        raise DimensionError(f"truncation order must be positive, got {N}")
    if F.state_dim and not is_schur_stable(F.A):
        raise StabilityError("truncation requires a stable function")
    return np.concatenate(taylor_blocks(F, N), axis=0)


def shift_down(X, r):
    """Apply the block shift S (one block down) to block-stacked columns."""
    Y = np.zeros_like(X)
    if X.shape[0] > r:
        Y[r:] = X[:-r]
    return Y


def shift_up(X, r):
    """Apply the adjoint shift S* (one block up)."""
    Y = np.zeros_like(X)
    if X.shape[0] > r:
        Y[:-r] = X[r:]
    return Y


def resolvent_up(X, z, r):
    """(I - z S*)^{-1} X by backward block recursion (exact: S* is nilpotent).

    With an array of points z the result is the stack over the points,
    shape z.shape + X.shape, from the same N-step recursion."""
    z = np.asarray(z, dtype=complex)
    Y = np.empty(z.shape + X.shape, dtype=complex)
    Y[...] = X
    blocks = Y.reshape(z.shape + (X.shape[0] // r, r, X.shape[1]))
    zb = z[..., None, None]
    for i in range(blocks.shape[-3] - 2, -1, -1):
        blocks[..., i, :, :] += zb * blocks[..., i + 1, :, :]
    return Y


def resolvent_down(X, z, r):
    """(I - z S)^{-1} X by forward block recursion."""
    Y = X.astype(complex).copy()
    nblocks = X.shape[0] // r
    for i in range(1, nblocks):
        Y[i * r:(i + 1) * r] += z * Y[(i - 1) * r:i * r]
    return Y


class OracleContext:
    """Truncated compressions of T_G and T_K, kept as their first block
    columns TgEp = T_G E_p and TkEq = T_K E_q, with the Gram matrices

        gram = T_G T_G*,   core = T_G T_G* - T_K T_K*

    built from their displacement (toeplitz_gram), their smallest
    eigenvalues, and solves against them.  Every solve with core requires
    the positivity margin (smallest eigenvalue of core) to be positive.
    Every solve with gram requires gram to be definite, which follows from
    a positive margin since gram - core = T_K T_K* >= 0; only when the
    margin is not positive does the guard compute the Gram margin itself.
    The oracle itself needs only the columns and the thin solves gram_solved
    and core_solved; the full matrices Tg, Tk and the explicit inverses
    core_inv, gram_inv and ill_inv are built on first use, for Lambda and
    the operator identities below.

    window(N) is the context of the leading N blocks: its columns and Gram
    matrices are slices of this one's, so a truncation ladder truncates
    once, at its largest window.
    """

    def __init__(self, data, N):
        self.data = data
        self.N = int(N)
        self.m, self.p, self.q = data.m, data.p, data.q
        self.TgEp = truncate(data.g(), self.N)
        self.TkEq = truncate(data.k(), self.N)

    def window(self, N):
        """The context of the leading N <= self.N blocks, sliced from this
        one: the columns of a window are the leading rows of those of any
        larger window, and its gram and core the leading principal blocks.
        Margins and solves of the window are its own."""
        N = int(N)
        if not 1 <= N <= self.N:
            raise DimensionError(f"window must lie in 1..{self.N}, got {N}")
        if N == self.N:
            return self
        rows = N * self.m
        sub = object.__new__(type(self))
        sub.data, sub.N = self.data, N
        sub.m, sub.p, sub.q = self.m, self.p, self.q
        sub.TgEp = self.TgEp[:rows]
        sub.TkEq = self.TkEq[:rows]
        sub.gram = self.gram[:rows, :rows]
        sub.core = self.core[:rows, :rows]
        return sub

    @cached_property
    def Tg(self):
        return lower_block_toeplitz(self.TgEp, self.m)

    @cached_property
    def Tk(self):
        return lower_block_toeplitz(self.TkEq, self.m)

    @cached_property
    def gram(self):
        return toeplitz_gram(self.TgEp, self.m)

    @cached_property
    def core(self):
        # toeplitz_gram returns exactly Hermitian matrices, and so is their difference
        return self.gram - toeplitz_gram(self.TkEq, self.m)

    @cached_property
    def margin(self):
        return float(np.linalg.eigvalsh(self.core)[0])

    @cached_property
    def gram_margin(self):
        return float(np.linalg.eigvalsh(self.gram)[0])

    def require_definite(self):
        if self.margin <= 0.0:
            raise InfeasibleError(
                f"truncated Gram difference is not positive definite "
                f"(margin {self.margin:.6e} at N={self.N})")

    def require_gram_definite(self):
        if self.margin > 0.0:
            return  # gram >= core > 0
        if self.gram_margin <= 0.0:
            raise InfeasibleError(
                f"truncated Gram matrix of G is not positive definite "
                f"(margin {self.gram_margin:.6e} at N={self.N})")

    def solve_gram(self, X):
        """gram^{-1} X."""
        self.require_gram_definite()
        return np.linalg.solve(self.gram, X)

    @cached_property
    def core_inv(self):
        self.require_definite()
        return np.linalg.inv(self.core)

    @cached_property
    def gram_inv(self):
        self.require_gram_definite()
        return np.linalg.inv(self.gram)

    @cached_property
    def gram_solved(self):
        """gram^{-1} [T_G E_p, S_m* T_G E_p], in one solve.  N = S_m* T_G E_p
        Theta0, so every Gram solve of the oracle is a slice of this one."""
        return self.solve_gram(np.hstack([self.TgEp, shift_up(self.TgEp, self.m)]))

    @cached_property
    def core_solved(self):
        """core^{-1} [T_K E_q, S_m* T_G E_p], in one solve."""
        self.require_definite()
        return np.linalg.solve(self.core, np.hstack([self.TkEq, shift_up(self.TgEp, self.m)]))

    @cached_property
    def lam(self):
        """The contraction Lambda = T_G* (T_G T_G*)^{-1} T_K."""
        return self.Tg.conj().T @ self.solve_gram(self.Tk)

    @cached_property
    def ill_inv(self):
        """(I - Lambda* Lambda)^{-1}."""
        self.require_definite()
        L = self.lam
        return np.linalg.inv(np.eye(L.shape[1], dtype=complex) - L.conj().T @ L)


def theta0_defect_oracle(ctx):
    """I_p minus the Gram matrix of the first block column of T_G:
    the defect whose minimal-rank factor is Theta0."""
    E = ctx.TgEp
    return herm(np.eye(ctx.p, dtype=complex) - E.conj().T @ ctx.gram_solved[:, :ctx.p])


class ThetaOracle:
    """Inner kernel function of T_G on the truncation.

    Theta(z) = Theta0 - z E_p* T_G* (I - z S_m*)^{-1} (T_G T_G*)^{-1} N with
    N = S_m* T_G E_p Theta0; the resolvent is an exact finite sum.
    """

    def __init__(self, ctx, Theta0):
        if Theta0.shape != (ctx.p, ctx.p - ctx.m):
            raise DimensionError(
                f"Theta0 must be {ctx.p}x{ctx.p - ctx.m}, got {Theta0.shape}")
        self.ctx = ctx
        self.Theta0 = np.asarray(Theta0, dtype=complex)
        self.Nop = shift_up(ctx.TgEp, ctx.m) @ self.Theta0
        self.w = ctx.gram_solved[:, ctx.p:] @ self.Theta0

    @property
    def core_n(self):
        """core^{-1} N."""
        return self.ctx.core_solved[:, self.ctx.q:] @ self.Theta0

    def sample(self, z):
        ctx = self.ctx
        return self.Theta0 - z * (ctx.TgEp.conj().T @ resolvent_up(self.w, z, ctx.m))

    def blocks(self, count):
        """First `count` Taylor blocks of Theta."""
        ctx = self.ctx
        out = [self.Theta0.copy()]
        wj = self.w
        for _ in range(count - 1):
            out.append(-(ctx.TgEp.conj().T @ wj))
            wj = shift_up(wj, ctx.m)
        return out[:count]

    @cached_property
    def toeplitz(self):
        """Truncated T_Theta on the same window as the context."""
        return lower_block_toeplitz(np.concatenate(self.blocks(self.ctx.N)), self.ctx.p)


def oracle_theta(ctx, Theta0):
    ctx.require_definite()
    return ThetaOracle(ctx, Theta0)


def _delta_squares(ctx, theta):
    """Delta0^2 = I_q + E_q* T_K* core^{-1} T_K E_q and
    Delta1^2 = I_k + N* (core^{-1} - gram^{-1}) N."""
    E, N = ctx.TkEq, theta.Nop
    d0sq = herm(np.eye(ctx.q, dtype=complex) + E.conj().T @ ctx.core_solved[:, :ctx.q])
    d1sq = herm(np.eye(ctx.p - ctx.m, dtype=complex)
                + N.conj().T @ theta.core_n - N.conj().T @ theta.w)
    return d0sq, d1sq


def oracle_deltas(ctx, theta):
    """Operator-side normalizations Delta0, Delta1 (see _delta_squares)."""
    d0sq, d1sq = _delta_squares(ctx, theta)
    return sqrtm_posdef(d0sq), sqrtm_posdef(d1sq)


def oracle_upsilon(ctx, Theta0, zs):
    """Sample the four coefficient functions at interior points zs.

        U11(z) = (Theta0 - z E_p* T_G* (I-zS_m*)^{-1} core^{-1} N) Delta1^{-1}
        U21(z) =        - z E_q* T_K* (I-zS_m*)^{-1} core^{-1} N  Delta1^{-1}
        U12(z) =          E_p* T_G* (I-zS_m*)^{-1} core^{-1} T_K E_q Delta0^{-1}
        U22(z) = Delta0^{-1} + E_q* T_K* (I-zS_m*)^{-1} core^{-1} T_K E_q Delta0^{-1}

    All points share one resolvent recursion on the stacked core^{-1} [N, T_K E_q].
    Returns the samples, stacked over the points, plus the operator-side
    Delta0, Delta1.
    """
    theta = oracle_theta(ctx, Theta0)
    Delta0, Delta1 = oracle_deltas(ctx, theta)
    d0i = np.linalg.inv(Delta0)
    k = ctx.p - ctx.m
    d1i = np.linalg.inv(Delta1)
    p = ctx.p
    z = np.asarray(zs, dtype=complex).reshape(-1)
    R = resolvent_up(np.hstack([theta.core_n, ctx.core_solved[:, :ctx.q]]), z, ctx.m)
    V = np.hstack([ctx.TgEp, ctx.TkEq]).conj().T @ R
    zc = z[:, None, None]
    return {"U11": (theta.Theta0 - zc * V[:, :p, :k]) @ d1i,
            "U21": (-zc * V[:, p:, :k]) @ d1i,
            "U12": V[:, :p, k:] @ d0i,
            "U22": d0i + V[:, p:, k:] @ d0i,
            "Delta0": Delta0, "Delta1": Delta1}


def bnabla(ctx, theta):
    """B_nabla = (I - Lambda* Lambda)^{-1} Lambda* S_p* T_Theta E_k,
    computed through the equivalent compact form -T_K* core^{-1} N."""
    return -(ctx.Tk.conj().T @ theta.core_n)


def bnabla_defect(ctx, theta):
    """Defect between the defining form of B_nabla and the compact form."""
    k = ctx.p - ctx.m
    TTEk = theta.toeplitz[:, :k]
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
    TTEk = theta.toeplitz[:, :k]
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
    TTEk = theta.toeplitz[:, :k]
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

def _shift_cols_left(M, r):
    Y = np.zeros_like(M)
    if M.shape[1] > r:
        Y[:, :-r] = M[:, r:]
    return Y


def _shift_cols_right(M, r):
    Y = np.zeros_like(M)
    if M.shape[1] > r:
        Y[:, r:] = M[:, :-r]
    return Y


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
    lhs = _shift_cols_left(row, ctx.m)
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
    T3 = _shift_cols_left(T2 - z * _shift_cols_right(T2, ctx.m), ctx.m)
    half = (ctx.N // 2) * ctx.m
    return _rel(np.linalg.norm(lhs[:, :half] - T3[:, :half]),
                np.linalg.norm(lhs[:, :half]))


def toeplitz_r(data, R0, Gamma, N):
    """Truncated selfadjoint Toeplitz matrix of R = G G* - K K*: block diagonal
    R0, lower blocks C A^{j-1} Gamma, upper blocks their adjoints."""
    blocks = [np.asarray(R0, dtype=complex)]
    Ck = data.C.copy()
    for _ in range(N - 1):
        blocks.append(Ck @ Gamma)
        Ck = Ck @ data.A
    T = lower_block_toeplitz(np.concatenate(blocks), data.m)
    D = np.kron(np.eye(N), herm(np.asarray(R0, dtype=complex)))
    return T + T.conj().T - D


def gram_riccati_defect(ctx, R0, Gamma, Q):
    """Relative defect of Q = W_obs* T_R^{-1} W_obs on the truncation."""
    TR = toeplitz_r(ctx.data, R0, Gamma, ctx.N)
    W = observability_matrix(ctx.data.C, ctx.data.A, ctx.N)
    W0 = np.linalg.solve(TR, W)
    return _rel(np.linalg.norm(W.conj().T @ W0 - Q), np.linalg.norm(Q))


def woodbury_defect(ctx, R0, Gamma, Omega, probes=20, seed=0):
    """Quadratic-form defect of core^{-1} = T_R^{-1} + W_0 Omega W_0* with
    W_0 = T_R^{-1} W_obs, probed on random vectors supported on the leading
    half of the window (the tail is polluted by the truncation boundary)."""
    TR = toeplitz_r(ctx.data, R0, Gamma, ctx.N)
    W = observability_matrix(ctx.data.C, ctx.data.A, ctx.N)
    W0 = np.linalg.solve(TR, W)
    Nm = ctx.N * ctx.m
    half = (ctx.N // 2) * ctx.m
    rng = np.random.default_rng(seed)
    X = np.zeros((Nm, probes), dtype=complex)
    X[:half] = rng.standard_normal((half, probes)) + 1j * rng.standard_normal((half, probes))
    lhs = np.sum(X.conj() * (ctx.core_inv @ X), axis=0)
    rhs = (np.sum(X.conj() * np.linalg.solve(TR, X), axis=0)
           + np.sum((X.conj().T @ W0) @ Omega * (W0.conj().T @ X).T, axis=1))
    scale = np.maximum(1.0, np.abs(lhs))
    return float(np.max(np.abs(lhs - rhs) / scale))

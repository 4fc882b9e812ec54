"""Truncated block-Toeplitz oracle.

The multiplication operator of a stable rational F, compressed to the first N
Taylor coefficients, is the lower block-triangular Toeplitz matrix of its
Taylor blocks.  Sums and products of such compressions are exact compressions
again as long as no truncated tail enters; quantities involving an inverse
carry a boundary error decaying like rho^(distance to the truncation edge).
All oracle comparisons therefore restrict to leading blocks and to sample
points in the interior of the disc.  Every formula here factors or solves
the truncated Taylor-data matrices exactly, reading only the Taylor blocks
and, in the Gram sweep, the realization (A, B1, C, D1) of G that generates
them; no Riccati or Stein solution enters, so the oracle stays independent
of the state-space solution path.

A truncation is kept as its first block column T E, the stacked Taylor
blocks (truncate); lower_block_toeplitz assembles the full matrix from it
only where an operator identity needs T itself.  The Gram matrices
gram = T_G T_G* and core = T_G T_G* - T_K T_K* are built from their
displacement: T J T* - S T J T* S* = (T E) J (T E)* gives each from the
first block column alone (toeplitz_gram), with no dense product; core is
one recursion of the joint column of [G  K] with J = diag(I_p, -I_q).
Block (i, j) depends only on the first max(i, j) + 1 Taylor blocks, so the
matrices of window N are the leading principal blocks of those of window
2N, and the margins fall along a ladder of windows.  A ladder therefore
builds one context at its largest window; OracleContext.window(N) hands out
each smaller rung as leading-row slices of its columns and leading-block
slices of its Gram matrices (gram only when asked for), with no second
truncation.

A ladder also eigen-solves densely only its first rung.  The window of c b
blocks is c copies of the b-block window plus a Hermitian term E of rank
<= 2 n (c - 1), n the state dimension of [G  K], so the margin of a rung
that is a whole multiple of the first follows from the first rung's
eigendecomposition by a low-rank update (ladder_margin): E is sketched
from the dense core itself, and the smallest eigenvalue is located by
inertia counts (Haynsworth) below the first rung's.  Each margin is the
smallest eigenvalue of its rung to roundoff of |core|; a dense eigvalsh
answers for any other rung.  The same factorization solves with each such
rung's core (ladder_solve): the first rung's by its eigenvectors, a later
one's by the Sherman-Morrison-Woodbury identity on the verified update,
gated on its residual and refined once only when the gate fails; such a
rung LU-solves its core only when the refined answer fails too.

The oracle path forms no N m x N m inverse.  Per rung it solves once with
core (by the ladder's update, or an LU where there is none) against thin
stacked right-hand sides (OracleContext.core_solved), and reads the forms
X* gram^{-1} X of X = [T_G E_p, S_m* T_G E_p] (OracleContext.gram_forms)
from one forward sweep of G lifted to chunks of the first rung
(gram_sweep): the sweep's pivots are the Schur complements of the block
LDL* of the truncated gram (the finite-horizon Kalman filter; Hassibi,
Sayed & Kailath 1999), so one sweep of the widest window serves every rung
with solves of the first rung's size, and neither the widest gram nor an
LU with it is formed.  A window that is not a whole multiple of the first
rung is one chunk, an LU solve with its own gram.  All points are sampled
through one resolvent recursion.  The path eigen-solves only core:
gram - core = T_K T_K* is positive semidefinite, so a positive core margin
already proves gram definite, and the Gram margin is computed only when the
core margin is not positive.  The explicit inverses and the LU solve
gram_solved serve the operator identities at the end of this module.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionError, InfeasibleError, StabilityError
from .linalg import herm, sqrtm_posdef
from .realization import (
    is_schur_stable,
    observability_blocks,
    observability_matrix,
    taylor_blocks,
)

EPS = np.finfo(float).eps
# sketch columns beyond the rank bound of a ladder update (ladder_margin)
OVERSAMPLE = 8
# Newton or halving steps of ladder_margin's root search: halving alone closes
# its bracket, |E| wide, to 4 eps |core| in about 50
MAX_STEPS = 100


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


def toeplitz_gram(column, r, signature=None):
    """T T* for the lower block Toeplitz T whose first block column (blocks
    r rows high) is `column`, from the displacement identity

        T T* - S T T* S* = (T E)(T E)*:

    block (i, j) is block (i-1, j-1) plus c_i c_j*, so one thin product and
    N block-row updates replace the dense N r x N r product.  With a
    `signature` J (one sign per column) it is T J T*, from c_i J c_j*."""
    N = column.shape[0] // r
    G = (column if signature is None else column * signature) @ column.conj().T
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


@dataclass(frozen=True)
class LadderUpdate:
    """A window's core as ladder_margin verified it: blockdiag(core_b, ...)
    + Q diag(s) Q* to roundoff of `scale`, an upper bound on |core|_2, and
    its smallest eigenvalue `margin`.  The first rung's is Q = 0."""
    margin: float
    Q: np.ndarray
    s: np.ndarray
    scale: float


def ladder_margin(core, w, U, n):
    """Smallest eigenvalue of the Hermitian `core` of a window c b blocks
    long (c >= 2), from the eigendecomposition (w, U) of its leading
    principal b-block window core_b, with the update that gave it (a
    LadderUpdate, which ladder_solve reuses), or None when the update cannot
    answer.

    The window's T is c copies of T_b on the block diagonal plus a block
    lower part of rank <= n (c - 1) (n the state dimension of [G  K]), so
        E = core - blockdiag(core_b, ..., core_b)
    has rank <= 2 n (c - 1).  E is never formed: a seeded sketch of
    2 n (c - 1) + OVERSAMPLE columns of its range gives E ~ Q S Q*, and the
    residual |E - Q S Q*|_F, one block row at a time, must lie below the
    roundoff of |core|, size eps |core|.  In the eigenbasis of the block
    diagonal, core is D + Z diag(s) Z*, with D = blockdiag(diag(w), ...),
    S = V diag(s) V*, Z = blockdiag(U, ...)* Q V.  Interlacing puts its
    smallest eigenvalue at or below top = w[0], and Weyl at or above
    top - |E|.  Below top, Haynsworth's inertia formula counts the
    eigenvalues under sigma as #neg(K(sigma)) - #pos(s), where K(sigma) is
    the small Hermitian matrix left by eliminating the coordinates R of D
    more than |E|/size above top; the rest, P, stay unreduced, so no weight
    e/(D_R - sigma) exceeds size and K's roundoff stays within that of core:

        K = [ (D_P - sigma)/e    Z_P a                                  ]
            [ (Z_P a)*           -sign(s) - (Z_R a)* e (D_R - sigma)^-1 Z_R a ]

    with e = max|s| and a = diag(|s|/e)^1/2.  The count is zero at top less
    the roundoff when the margin has converged, which returns top at once;
    otherwise Newton steps on eigenvalue #pos(s) of K, which falls as sigma
    rises and vanishes at the margin, find the root, each step kept inside
    the bracket that the counts close and halved where it leaves it.

    None when the sketch would reach half the window, or the residual
    fails; the caller then eigen-solves core densely.
    """
    size, lead = len(core), len(w)
    c = size // lead
    k = 2 * n * (c - 1) + OVERSAMPLE
    if 2 * k >= size:
        return None
    block = core[:lead, :lead]

    def update(X):
        """E X, from core X less the block diagonal's part."""
        return core @ X - (block @ X.reshape(c, lead, -1)).reshape(size, -1)

    Q = np.linalg.qr(update(np.random.default_rng(0).standard_normal((size, k))))[0]
    s, V = np.linalg.eigh(herm(Q.conj().T @ update(Q)))
    scale = max(-w[0], w[-1]) + max(-s[0], s[-1])  # bounds |core|_2
    roundoff = size * EPS * scale
    keep = np.abs(s) > EPS * scale
    s, Q = s[keep], Q @ V[:, keep]
    QS, QH = Q * s, Q.conj().T
    residual = 0.0
    for i in range(c):
        rows = slice(i * lead, (i + 1) * lead)
        R = core[rows] - QS[rows] @ QH
        R[:, rows] -= block
        residual += float(np.linalg.norm(R)) ** 2
    if residual > roundoff ** 2:
        return None
    return LadderUpdate(_updated_margin(w, U, Q, s, scale), Q, s, scale)


def _updated_margin(w, U, Q, s, scale):
    """Smallest eigenvalue of blockdiag(U diag(w) U*, ...) + Q diag(s) Q*,
    to roundoff of scale, by the inertia counts of ladder_margin."""
    size, lead = len(Q), len(w)
    c = size // lead
    roundoff = size * EPS * scale
    top = float(w[0])
    if not np.any(s < 0.0):
        return top  # E >= 0 keeps every eigenvalue at or above top
    e = float(np.max(np.abs(s)))
    d = np.tile(w, c)
    Z = (U.conj().T @ Q.reshape(c, lead, -1)).reshape(size, -1) * np.sqrt(np.abs(s) / e)
    near = d < top + e / size
    ZP, ZR, dP, dR = Z[near], Z[~near], d[near], d[~near]
    ZRH, p, index = ZR.conj().T, len(dP), int(np.sum(s > 0))
    K = np.zeros((p + len(s),) * 2, dtype=complex)
    K[:p, p:] = ZP
    K[p:, :p] = ZP.conj().T

    def crossing(sigma):
        """Eigenvalue #pos(s) of K(sigma), and its derivative in sigma."""
        weights = e / (dR - sigma)
        K[range(p), range(p)] = (dP - sigma) / e
        K[p:, p:] = -np.diag(np.sign(s)) - (ZRH * weights) @ ZR
        mu, X = np.linalg.eigh(K)
        x = X[:, index]
        y = (ZR @ x[p:]) * weights
        slope = -(float(np.vdot(x[:p], x[:p]).real) + float(np.vdot(y, y).real)) / e
        return float(mu[index]), slope

    hi = top - roundoff
    h, dh = crossing(hi)
    if h >= 0.0:
        return top
    lo = top - e - roundoff
    tol = 4 * EPS * scale
    for _ in range(MAX_STEPS):
        step = h / dh if dh < 0.0 else np.inf
        if step <= tol:
            return hi - step
        sigma = hi - step
        if not sigma > lo:
            sigma = 0.5 * (lo + hi)
        hs, dhs = crossing(sigma)
        if dhs < 0.0 and abs(hs) <= -tol * dhs:
            return sigma - hs / dhs
        if hs < 0.0:
            hi, h, dh = sigma, hs, dhs
        elif hs > 0.0:
            lo = sigma
        else:
            return sigma
        if hi - lo <= tol:
            break
    return hi


def ladder_solve(core, w, U, update, X):
    """core^{-1} X for the Hermitian `core` of a window c b blocks long whose
    margin ladder_margin answered as `update` (c = 1 for the first rung,
    Q = 0), or None when the answer fails its residual gate.

    core = D + Q diag(s) Q* with D = blockdiag(U diag(w) U*, ...), so by the
    Sherman-Morrison-Woodbury identity

        core^{-1} X = D^{-1} X - D^{-1} Q C^{-1} diag(s) Q* D^{-1} X,
        C = I + diag(s) Q* D^{-1} Q,

    with D^{-1} applied to all c blocks as one (b, c cols) product and C
    r x r, r the rank of the update.  The answer Y stands when |X - core
    Y|_F <= size eps scale |Y|_F, the roundoff gate of ladder_margin; one
    that fails takes one refinement step against core itself and is gated
    again, and the caller LU-solves core when it still fails.  It is called
    only on a positive margin, which interlacing puts at or below w[0], so D
    is definite.
    """
    size, lead = len(core), len(w)
    c, r = size // lead, len(update.s)

    def block_solve(Y):
        """D^{-1} Y, the c row blocks of Y side by side in one product."""
        cols = Y.shape[1]
        Y = Y.reshape(c, lead, cols).transpose(1, 0, 2).reshape(lead, c * cols)
        Y = U @ ((U.conj().T @ Y) / w[:, None])
        return Y.reshape(lead, c, cols).transpose(1, 0, 2).reshape(size, cols)

    DQX = block_solve(np.hstack([update.Q, X]))
    DQ, sQH = DQX[:, :r], update.s[:, None] * update.Q.conj().T
    capacitance = np.eye(r) + sQH @ DQ

    def woodbury(DY):
        """core^{-1} Y from D^{-1} Y."""
        return DY - DQ @ np.linalg.solve(capacitance, sQH @ DY)

    def passes(R, Y):
        return float(np.linalg.norm(R)) <= size * EPS * update.scale * float(np.linalg.norm(Y))

    try:
        Y = woodbury(DQX[:, r:])
        R = X - core @ Y
        if passes(R, Y):
            return Y
        Y += woodbury(block_solve(R))
    except np.linalg.LinAlgError:
        return None  # a singular capacitance matrix
    return Y if passes(X - core @ Y, Y) else None


def gram_sweep(data, column, b):
    """X* gram^{-1} X at every window of a whole multiple k b of b blocks,
    {k b: forms}, by one forward sweep of G lifted to chunks of b blocks.

    `column` is T_G E_p of a window N = c b blocks long, X = [T_G E_p,
    S_m* T_G E_p] that window's and gram = T_G T_G*.  In chunks of b blocks
    T_G is the lower block Toeplitz matrix of the lifted system (Phi, B_L,
    C_L, D_L) of G = (A, B1, C, D1): Phi = A^b, C_L = [C; ...; C A^(b-1)],
    B_L = [A^(b-1) B1, ..., B1] and D_L the b-block T_G.  The block LDL* of
    gram in chunk order is the Kalman filter of that system from P = 0:

        Re = C_L P C_L* + gram_b,   M = Phi P C_L* + B_L D_L*,
        P <- Phi P Phi* + B_L B_L* - M Re^{-1} M*,

    each Re the Schur complement of the leading chunks in the next, so

        X* gram^{-1} X = sum_k eps_k* Re_k^{-1} eps_k,
        eps_k = X_k - C_L s_k,   s <- Phi s + M Re^{-1} eps_k.

    gram_b is toeplitz_gram of the first b blocks, and block i of B_L D_L*
    is A^(b-1-i) sum_{l<=i} A^l B1 c_l* (_lifted): D_L is never assembled.
    The window of k b blocks has the same leading chunks, except that the
    last block of its S_m* T_G E_p is zero, which its last chunk applies.
    With b = N the sweep is one LU solve with gram itself.
    """
    m, p = data.m, column.shape[1]
    rows = b * m
    c = len(column) // rows
    X = np.hstack([column, shift_up(column, m)])
    Re = gram_b = toeplitz_gram(column[:rows], m)
    if c > 1:
        Phi, CL, BB, BD = _lifted(data, column[:rows], b)
        M, P, s = BD, np.zeros_like(BB), np.zeros((len(BB), 2 * p), dtype=complex)
    total = np.zeros((2 * p, 2 * p), dtype=complex)
    forms = {}
    for k in range(c):
        Xk = X[k * rows:(k + 1) * rows]
        eps = Xk
        if k:
            PC = P @ CL.conj().T
            Re = herm(CL @ PC + gram_b)
            M = Phi @ PC + BD
            eps = Xk - CL @ s
        ends = eps.copy()
        ends[-m:, p:] -= Xk[-m:, p:]  # the window ending here: zero last block of S_m* T_G E_p
        more = k < c - 1
        solved = np.linalg.solve(Re, np.hstack([eps, ends] + ([M.conj().T] if more else [])))
        forms[(k + 1) * b] = total + ends.conj().T @ solved[:, 2 * p:4 * p]
        if more:
            total += eps.conj().T @ solved[:, :2 * p]
            s = Phi @ s + M @ solved[:, :2 * p]
            P = herm(Phi @ P @ Phi.conj().T + BB - M @ solved[:, 4 * p:])
    return forms


def _lifted(data, lead, b):
    """Phi = A^b, C_L, B_L B_L* and B_L D_L* of G lifted to chunks of b
    blocks (gram_sweep), from the powers A^0 .. A^(b-1); `lead` stacks the
    first b Taylor blocks c_l of G."""
    A, B1, C = (np.asarray(M, dtype=complex) for M in (data.A, data.B1, data.C))
    n, m = len(A), len(C)
    powers = np.empty((b, n, n), dtype=complex)
    powers[0] = np.eye(n)
    for j in range(1, b):
        powers[j] = powers[j - 1] @ A
    AB = powers @ B1  # A^l B1
    CL = (C @ powers).reshape(b * m, n)
    BL = AB.transpose(1, 0, 2).reshape(n, -1)  # B_L, its blocks reversed
    partial = np.cumsum(AB @ lead.reshape(b, m, -1).conj().transpose(0, 2, 1), axis=0)
    BD = (powers[::-1] @ partial).transpose(1, 0, 2).reshape(n, b * m)
    return powers[-1] @ A, CL, herm(BL @ BL.conj().T), BD


class OracleContext:
    """Truncated compressions of T_G and T_K, kept as their first block
    columns TgEp = T_G E_p and TkEq = T_K E_q, the column blocks of one
    truncation of [G  K] (one Taylor recurrence), with the Gram matrices

        gram = T_G T_G*,   core = T_G T_G* - T_K T_K*

    built from their displacement (toeplitz_gram), their smallest
    eigenvalues, and solves against them.  Every solve with core requires
    the positivity margin (smallest eigenvalue of core) to be positive.
    Every solve with gram requires gram to be definite, which follows from
    a positive margin since gram - core = T_K T_K* >= 0; only when the
    margin is not positive does the guard compute the Gram margin itself.
    The oracle itself needs only the columns, the Gram forms gram_forms
    (by gram_sweep) and the thin solve core_solved (through the ladder's
    update where its margin has one, else an LU); the full matrices Tg, Tk,
    the LU solve gram_solved and the explicit inverses core_inv, gram_inv
    and ill_inv are built on first use, for Lambda and the operator
    identities below.

    window(N) is the context of the leading N blocks: its columns and Gram
    matrices are slices of this one's (gram sliced only when asked for), so
    a truncation ladder truncates once, at its largest window.  The first
    window cut is the ladder's first rung; the margins of its whole
    multiples update its eigendecomposition (_rung_margin), their core
    solves reuse that update (core_solved), and their Gram forms come from
    one sweep of this window in chunks of the first rung (gram_forms).
    """

    def __init__(self, data, N):
        self.data = data
        self.N = int(N)
        self.m, self.p, self.q = data.m, data.p, data.q
        column = truncate(data.joint(), self.N)
        self.TgEp, self.TkEq = column[:, :self.p], column[:, self.p:]
        # the sizes of the windows cut from this context, in order (its
        # ladder's rungs), the margins of its windows, the updates that gave
        # them (LadderUpdate) and the Gram forms of its rungs (gram_sweep), by
        # size; a window keeps its widest context in _root, None here (no
        # reference cycle)
        self._root, self._rungs = None, []
        self._margins, self._updates, self._forms = {}, {}, {}

    def window(self, N):
        """The context of the leading N <= self.N blocks, sliced from this
        one: the columns of a window are the leading rows of those of any
        larger window, and its gram and core the leading principal blocks.
        Solves of the window are its own; its margin is the smallest
        eigenvalue of its own core, as the ladder answers it (margin)."""
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
        sub.core = self.core[:rows, :rows]
        sub._root = self._root or self
        sub._root._rungs.append(N)
        return sub

    @cached_property
    def Tg(self):
        return lower_block_toeplitz(self.TgEp, self.m)

    @cached_property
    def Tk(self):
        return lower_block_toeplitz(self.TkEq, self.m)

    @cached_property
    def gram(self):
        if self._root is not None:  # a window's, sliced only when asked for
            rows = self.N * self.m
            return self._root.gram[:rows, :rows]
        return toeplitz_gram(self.TgEp, self.m)

    @cached_property
    def core(self):
        """T J T* for the joint T = [T_G  T_K], J = diag(I_p, -I_q): one
        displacement recursion of the joint column."""
        signature = np.repeat([1.0, -1.0], [self.p, self.q])
        return toeplitz_gram(np.hstack([self.TgEp, self.TkEq]), self.m, signature)

    @cached_property
    def margin(self):
        """Smallest eigenvalue of core, as its ladder answers it (_rung_margin)."""
        return (self._root or self)._rung_margin(self.N)

    def _rung_margin(self, N):
        """Smallest eigenvalue of the core of this context's leading N-block
        window, kept by N.

        A ladder is a widest context and the windows cut from it; the first
        window cut is its first rung, b blocks.  When the widest window is a
        whole multiple of b, the first rung reads its margin from the
        eigendecomposition of its core, and every rung that is a whole
        multiple of b updates that eigendecomposition (ladder_margin),
        reporting no more than the margin of the next rung below, where
        interlacing puts it; each keeps its update for core_solved.  Any
        other window, or an update that ladder_margin declines, eigen-solves
        its core."""
        if N in self._margins:
            return self._margins[N]
        rows = N * self.m
        core = self.core[:rows, :rows]
        b = self._lifted_rung(N)
        update = None
        if b is not None:
            w, U = self._first_spectrum
            if N == b:
                update = LadderUpdate(float(w[0]), U[:, :0], w[:0], float(max(-w[0], w[-1])))
            else:
                update = ladder_margin(core, w, U, self.data.n)
                if update is not None:
                    below = max(size for size in self._rungs if size < N)
                    update = replace(update, margin=min(update.margin, self._rung_margin(below)))
        if update is None:
            margin = float(np.linalg.eigvalsh(core)[0])
        else:
            margin, self._updates[N] = update.margin, update
        self._margins[N] = margin
        return margin

    def _lifted_rung(self, N):
        """The ladder's first rung b when this widest window and its N-block
        window are both whole multiples of it, else None: such a window's
        margin updates the first rung's eigendecomposition (_rung_margin)
        and its Gram forms come from one sweep in chunks of b (gram_forms)."""
        b = self._rungs[0] if self._rungs else None
        return b if b is not None and self.N % b == 0 and N % b == 0 else None

    @cached_property
    def _first_spectrum(self):
        """Eigendecomposition (w, U) of the first rung's core, eigenvalues ascending."""
        rows = self._rungs[0] * self.m
        return np.linalg.eigh(self.core[:rows, :rows])

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
        """gram^{-1} [T_G E_p, S_m* T_G E_p], in one LU solve: the reference
        for gram_forms, and the kernel function's samples (ThetaOracle.w)."""
        return self.solve_gram(np.hstack([self.TgEp, shift_up(self.TgEp, self.m)]))

    @cached_property
    def gram_forms(self):
        """X* gram^{-1} X for X = [T_G E_p, S_m* T_G E_p], by gram_sweep: on
        a ladder rung that is a whole multiple of the first (_lifted_rung),
        one sweep of the widest window in chunks of the first rung serves
        every rung; any other window is one chunk, an LU solve with its own
        gram."""
        self.require_gram_definite()
        root = self._root or self
        b = root._lifted_rung(self.N)
        if b is None:
            return gram_sweep(self.data, self.TgEp, self.N)[self.N]
        if self.N not in root._forms:
            root._forms.update(gram_sweep(self.data, root.TgEp, b))
        return root._forms[self.N]

    @cached_property
    def core_solved(self):
        """core^{-1} [T_K E_q, S_m* T_G E_p], in one solve: on a ladder rung
        whose margin came from the first rung's eigendecomposition, through
        that factorization and the rung's update (ladder_solve); by LU where
        there is none or its answer fails the residual gate."""
        self.require_definite()
        rhs = np.hstack([self.TkEq, shift_up(self.TgEp, self.m)])
        root = self._root or self
        update = root._updates.get(self.N)
        solved = None
        if update is not None:
            solved = ladder_solve(self.core, *root._first_spectrum, update, rhs)
        return np.linalg.solve(self.core, rhs) if solved is None else solved

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
    return herm(np.eye(ctx.p, dtype=complex) - ctx.gram_forms[:ctx.p, :ctx.p])


class ThetaOracle:
    """Inner kernel function of T_G on the truncation.

    Theta(z) = Theta0 - z E_p* T_G* (I - z S_m*)^{-1} (T_G T_G*)^{-1} N with
    N = S_m* T_G E_p Theta0; the resolvent is an exact finite sum.
    """

    def __init__(self, ctx, Theta0):
        if Theta0.shape != (ctx.p, ctx.p - ctx.m):
            raise DimensionError(
                f"Theta0 must be {ctx.p}x{ctx.p - ctx.m}, got {Theta0.shape}")
        ctx.require_gram_definite()
        self.ctx = ctx
        self.Theta0 = np.asarray(Theta0, dtype=complex)
        self.Nop = shift_up(ctx.TgEp, ctx.m) @ self.Theta0

    @cached_property
    def w(self):
        """gram^{-1} N, by LU (gram_solved): only sample, blocks and the
        operator identities read it."""
        return self.ctx.gram_solved[:, self.ctx.p:] @ self.Theta0

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
    E, N, T0 = ctx.TkEq, theta.Nop, theta.Theta0
    d0sq = herm(np.eye(ctx.q, dtype=complex) + E.conj().T @ ctx.core_solved[:, :ctx.q])
    d1sq = herm(np.eye(ctx.p - ctx.m, dtype=complex) + N.conj().T @ theta.core_n
                - T0.conj().T @ ctx.gram_forms[ctx.p:, ctx.p:] @ T0)
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
    blocks = [np.asarray(R0, dtype=complex)]
    blocks += [CAk @ Gamma for CAk in observability_blocks(data.C, data.A, N - 1)]
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

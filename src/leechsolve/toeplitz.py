"""Truncated block-Toeplitz oracle.

The multiplication operator of a stable rational F, compressed to the first N
Taylor coefficients, is the lower block-triangular Toeplitz matrix of its
Taylor blocks.  Sums and products of such compressions are exact compressions
again as long as no truncated tail enters; quantities involving an inverse
carry a boundary error decaying like rho^(distance to the truncation edge).
All oracle comparisons therefore restrict to leading blocks and to sample
points in the interior of the disc.  Every formula here factors or solves
the truncated Taylor-data matrices exactly, reading only the Taylor blocks
and, in the solves, the realization of [G  K] that generates them; no
Riccati or Stein solution enters, so the oracle stays independent of the
state-space solution path.

A truncation is kept as its first block column T E, the stacked Taylor
blocks (truncate: one doubling recurrence for C A^k and one batched product
with B); lower_block_toeplitz gathers the full matrix from it only where an
operator identity needs T itself.  The Gram matrices
gram = T_G T_G* and core = T_G T_G* - T_K T_K* are built from their
displacement: T J T* - S T J T* S* = (T E) J (T E)* gives each from the
first block column alone (toeplitz_gram), with no dense product; core is
one recursion of the joint column of [G  K] with J = diag(I_p, -I_q).
Block (i, j) depends only on the first max(i, j) + 1 Taylor blocks, so the
matrices of window N are the leading principal blocks of those of window
2N, and the margins fall along a ladder of windows.  A ladder therefore
builds one context at its largest window N; OracleContext.ladder() owns the
rung rule (N/4, N/2, N) and hands out each smaller rung as leading-row
slices of its columns (window), with no second truncation; a window's Gram
matrices come from its own columns, and only a dense path builds them.

A ladder can eigen-solve densely only its first rung.  The window of c b
blocks is c copies of the b-block window plus a Hermitian term E of rank
<= 2 n (c - 1), n the state dimension of [G  K], so the margin of a rung
that is a whole multiple of the first follows from the first rung's
eigendecomposition by a low-rank update (ladder_margin): E is factored
exactly from the realization of [G  K] lifted to chunks of the first rung
(_lifted, once per ladder, its powers A^0 .. A^b by doubling), the chunk
form of the displacement identity, and the smallest eigenvalue
is located by inertia counts (Haynsworth) below the first rung's
(_updated_margin).  Each margin is the smallest eigenvalue of its rung to
roundoff of |core|.  A rung updates only where update_pays finds that
cheaper than a dense eigvalsh, which answers for every other rung; on a
ladder whose rungs all update no core wider than the first rung is
formed.

The oracle path forms no N m x N m inverse.  Every thin solve, with gram
(J = I on G) or with core (J = diag(I_p, -I_q) on [G  K]), is one block
LDL* of T J T* (ldl_sweep): a forward sweep of the realization lifted to
chunks of b blocks, the finite-horizon Krein-space Kalman filter whose
pivots are the Schur complements of the leading chunks (Hassibi, Sayed &
Kailath 1999), then a backward adjoint sweep of products.  Every window
of a whole multiple of b blocks is a leading block of the widest, so on a
ladder one forward sweep per matrix, in chunks of the first rung, serves
every rung, each with its own backward sweep; both sweeps and the margin
updates read the one lift, and no Gram matrix nor LU wider than the first
rung is formed.  A window that is not such a multiple is one chunk, an LU
with its own Gram matrix.  The samples at all points read one resolvent of
the widest column, (I - conj(z) S)^{-1} [T_G E_p, T_K E_q], scanned once
per ladder at every point (column_resolvent); each rung reads its leading
rows.  The resolvents are log-depth scans (Kogge & Stone 1973), log2 N
array steps at all points at once.  The path eigen-solves only core:
gram - core = T_K T_K* is positive semidefinite, so a positive core margin
already proves gram definite, and the Gram margin is computed only when the
core margin is not positive.  The explicit inverses serve the test-side
operator identities (tests/reference.py).
"""

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
# Newton or halving steps of _updated_margin's root search: halving alone
# closes its bracket, |E| wide, to 4 eps |core| in about 50
MAX_STEPS = 100


def lower_block_toeplitz(column, r):
    """Assemble the lower block-triangular Toeplitz matrix whose first block
    column (blocks r rows high) is `column`.

    Block (i, j) is block i - j of the column, or zero above the diagonal,
    so the matrix is one gather from the column's blocks and a zero block."""
    N, c = column.shape[0] // r, column.shape[1]
    blocks = np.zeros((N + 1, r, c), dtype=complex)
    blocks[:N] = column.reshape(N, r, c)
    index = np.subtract.outer(np.arange(N), np.arange(N))
    index[index < 0] = N
    return blocks[index].swapaxes(1, 2).reshape(N * r, N * c)


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
    return taylor_blocks(F, N).reshape(N * F.out_dim, F.in_dim)


def shift_up(X, r):
    """Apply the adjoint shift S* (one block up)."""
    Y = np.zeros_like(X)
    if X.shape[0] > r:
        Y[:-r] = X[r:]
    return Y


def resolvent_up(X, z, r):
    """(I - z S*)^{-1} X (exact: S* is nilpotent): block i is the sum over
    j >= i of z^(j-i) X_j, by a log-depth scan (_resolvent_scan).

    With an array of points z the result is the stack over the points,
    shape z.shape + X.shape."""
    return _resolvent_scan(X, z, r, up=True)


def resolvent_down(X, z, r):
    """(I - z S)^{-1} X: block i is the sum over j <= i of z^(i-j) X_j, by
    the same scan as resolvent_up, for one point or an array of points."""
    return _resolvent_scan(X, z, r, up=False)


def _resolvent_scan(X, z, r, up):
    """The recursive-doubling scan (Kogge & Stone 1973) of the resolvents:
    after the step of span s each block holds its sum over the next 2 s
    blocks (up) or the previous 2 s (down), so log2 N array steps replace
    the N block steps of the Horner recursion."""
    z = np.asarray(z, dtype=complex)
    Y = np.empty(z.shape + X.shape, dtype=complex)
    Y[...] = X
    blocks = Y.reshape(z.shape + (X.shape[0] // r, r, X.shape[1]))
    zs = z[..., None, None, None]
    s = 1
    while s < blocks.shape[-3]:
        early, late = blocks[..., :-s, :, :], blocks[..., s:, :, :]
        if up:
            early += zs * late
        else:
            late += zs * early
        zs = zs * zs
        s *= 2
    return Y


def ladder_margin(w, U, lifted, c):
    """Smallest eigenvalue of the core of a window of c >= 2 chunks of b
    blocks, from the eigendecomposition (w, U) of the first chunk's core_b
    and the lift (Phi, C_L, B_L J B_L*, B_L J D_L*) of [G  K] to chunks of b
    blocks (_lifted); update_pays says where that is cheaper than a dense
    eigen-solve of the same core.

    In chunks, T is lower block Toeplitz with first column T E = e + a B_L,
    e = [D_L; 0] and a = [0; C_L; C_L Phi; ...; C_L Phi^(c-2)].  The
    displacement identity T J T* = sum_i Z^i (T E) J (T E)* Z^i* (Z the
    chunk shift) gives e J e* the block diagonal, so with d = e J B_L*

        E = core - blockdiag(core_b, ..., core_b)
          = sum_{i<c-1} Z^i (a B_L J B_L* a* + a d* + d a*) Z^i*
          = F H F*,   F = [Z^i a, Z^i d],   H = [[I (x) B_L J B_L*, I], [I, 0]]

    exactly (Z^(c-1) a = 0), of rank <= 2 n (c - 1), n the state dimension
    of [G  K].  A QR of F and an eigh of R H R* give E = Q diag(s) Q*;
    static data (n = 0) has E = 0 and the margin w[0]."""
    Phi, CL, BB, BD = lifted
    n, rows = len(Phi), len(CL)
    size, k = c * rows, 2 * n * (c - 1)
    if not n:
        return float(w[0])
    O = observability_matrix(CL, Phi, c - 1)
    F = np.zeros((size, 2, c - 1, n), dtype=complex)
    for i in range(c - 1):
        F[(i + 1) * rows:, 0, i] = O[:size - (i + 1) * rows]  # Z^i a
        F[i * rows:(i + 1) * rows, 1, i] = BD.conj().T  # Z^i d
    Q, R = np.linalg.qr(F.reshape(size, k))
    eye = np.eye(k // 2)
    H = np.block([[np.kron(np.eye(c - 1), BB), eye], [eye, np.zeros_like(eye)]])
    s, V = np.linalg.eigh(herm(R @ H @ R.conj().T))
    scale = max(-w[0], w[-1]) + max(-s[0], s[-1])  # bounds |core|_2
    keep = np.abs(s) > EPS * scale
    return _updated_margin(w, U, Q @ V[:, keep], s[keep], scale)


def update_pays(k, size):
    """True where the exact update of rank k (ladder_margin) finds the margin
    of a core of `size` rows faster than a dense eigvalsh of that core.

    Measured on one BLAS thread at 50 to 400 rows, the update is the cheaper
    up to about a third of the rows, less 40 rows for its fixed cost (the
    first rung's eigenvectors, the lift, the root search's small
    eigen-solves): no core of 50 rows updates, one of 100 below rank 20."""
    return 3 * k + 40 < size


def _updated_margin(w, U, Q, s, scale):
    """Smallest eigenvalue of core = blockdiag(U diag(w) U*, ...) + Q diag(s) Q*,
    to roundoff of scale, size eps scale, by inertia counts.

    In the eigenbasis of the block diagonal, core is D + Z diag(s) Z*, with
    D = blockdiag(diag(w), ...) and Z = blockdiag(U, ...)* Q.  Interlacing
    puts its smallest eigenvalue at or below top = w[0], and Weyl at or
    above top - |E|, E = Q diag(s) Q*.  Below top, Haynsworth's inertia
    formula counts the eigenvalues under sigma as #neg(K(sigma)) - #pos(s),
    where K(sigma) is the small Hermitian matrix left by eliminating the
    coordinates R of D more than |E|/size above top; the rest, P, stay
    unreduced, so no weight e/(D_R - sigma) exceeds size and K's roundoff
    stays within that of core:

        K = [ (D_P - sigma)/e    Z_P a                                  ]
            [ (Z_P a)*           -sign(s) - (Z_R a)* e (D_R - sigma)^-1 Z_R a ]

    with e = max|s| and a = diag(|s|/e)^1/2.  The count is zero at top less
    the roundoff when the margin has converged, which returns top at once;
    otherwise Newton steps on eigenvalue #pos(s) of K, which falls as sigma
    rises and vanishes at the margin, find the root, each step kept inside
    the bracket that the counts close and halved where it leaves it."""
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


def ldl_sweep(gram_b, Y, Z, m, lifted=None):
    """(T J T*)^{-1} X of every window of a whole multiple k b of b blocks,
    as a function of k, from one forward sweep of the realization lifted to
    chunks of b blocks; X = [Y, S_m* Z] of each window, so a shorter
    window's S_m* Z has a zero last block.

    T is the truncation of a realization (A, B, C, D) on the widest window,
    c b blocks of m rows, whose rows Y and Z hold; gram_b is the first
    chunk's T J T*, J one sign per column of B (the identity for gram).  In
    chunks of b blocks T is the lower block Toeplitz matrix of the lifted
    system (Phi, B_L, C_L, D_L): Phi = A^b, C_L = [C; ...; C A^(b-1)], B_L =
    [A^(b-1) B, ..., B] and D_L the b-block T, and `lifted` is (Phi, C_L,
    B_L J B_L*, B_L J D_L*) (_lifted); with one chunk (b = N) it is not
    read.  The block LDL* of T J T* in chunk order is the Krein-space Kalman
    filter of that system from P = 0:

        Re = C_L P C_L* + gram_b,   M = Phi P C_L* + B_L J D_L*,
        u_k = Re^{-1} (X_k - C_L s),   s <- Phi s + M u_k,
        P <- Phi P Phi* + B_L J B_L* - M Re^{-1} M*,

    each Re the Schur complement of the leading chunks in the next, definite
    when T J T* is.  The window of k chunks has the same leading chunks; its
    own last chunk, with the zero last block of S_m* Z, rides in the same
    chunk solve.  The backward adjoint sweep of that window is products
    only: y_k = u_k, lambda = C_L* y_k, and for j < k

        y_j = u_j - Re_j^{-1} M_j* lambda,   lambda <- Phi* lambda + C_L* y_j.

    With b = N the sweep is one LU solve with gram_b, T J T* itself.
    """
    rows, cols = len(gram_b), Y.shape[1]
    c = len(Y) // rows
    X = np.hstack([Y, shift_up(Z, m)])
    width = X.shape[1]
    Re = gram_b
    if c > 1:
        Phi, CL, BB, BD = lifted
        M, P, s = BD, np.zeros_like(BB), np.zeros((len(BB), width), dtype=complex)
    ends, solved, gains = [], [], []
    for k in range(c):
        Xk = X[k * rows:(k + 1) * rows]
        v = Xk
        if k:
            PC = P @ CL.conj().T
            Re = herm(CL @ PC + gram_b)
            M = Phi @ PC + BD
            v = Xk - CL @ s
        end = v.copy()
        end[-m:, cols:] -= Xk[-m:, cols:]  # the window ending here: S_m* Z's last block is zero
        more = k < c - 1
        out = np.linalg.solve(Re, np.hstack([end] + ([v, M.conj().T] if more else [])))
        ends.append(out[:, :width])
        if more:
            u, gain = out[:, width:2 * width], out[:, 2 * width:]
            solved.append(u)
            gains.append(gain)
            s = Phi @ s + M @ u
            P = herm(Phi @ P @ Phi.conj().T + BB - M @ gain)

    def window(k):
        """(T J T*)^{-1} X of the window of k chunks, by its backward sweep."""
        y, lam = [ends[k - 1]], 0.0  # lam holds Phi* lambda
        for j in range(k - 2, -1, -1):
            lam = CL.conj().T @ y[-1] + lam
            y.append(solved[j] - gains[j] @ lam)
            lam = Phi.conj().T @ lam
        return np.concatenate(y[::-1])
    return window


def _lifted(F, lead, b, p):
    """[G  K] = F = (A, [B1 B2], C, [D1 D2]) lifted to chunks of b blocks,
    as ldl_sweep reads it: {"gram": (Phi, C_L, B_L1 B_L1*, B_L1 D_L1*) of
    G, "core": (Phi, C_L, B_L J B_L*, B_L J D_L*) of [G  K] with J =
    diag(I_p, -I_q)}; the two share Phi = A^b and C_L, and the margin
    updates read "core" (ladder_margin).

    The powers A^0 .. A^b come from one doubling recurrence
    (observability_blocks of the identity); `lead` stacks the first b Taylor
    blocks c_l of F.  Block i of B_L J D_L* is A^(b-1-i) sum_{l<=i} A^l B J
    c_l*, so D_L is never assembled."""
    A, B, C = F.A, F.B, F.C
    n, m = len(A), len(C)
    powers = observability_blocks(np.eye(n, dtype=complex), A, b + 1)
    AB = powers[:b] @ B  # A^l B
    CL = (C @ powers[:b]).reshape(b * m, n)
    # A^l B c_l* and A^l B J c_l*, and the blocks of B_L, reversed, for G and for K
    leadH = lead.reshape(b, m, -1).conj().transpose(0, 2, 1)
    BL1, BL2 = (M.transpose(1, 0, 2).reshape(n, b * M.shape[2])
                for M in (AB[..., :p], AB[..., p:]))
    BB1 = herm(BL1 @ BL1.conj().T)
    terms = AB[..., :p] @ leadH[:, :p]
    termsJ = terms - AB[..., p:] @ leadH[:, p:]
    partial = np.cumsum(np.concatenate([terms, termsJ], axis=2), axis=0)
    BD = (powers[b - 1::-1] @ partial).transpose(1, 0, 2)
    BD1, BDJ = (BD[..., half].reshape(n, b * m) for half in (slice(None, m), slice(m, None)))
    Phi = powers[b]
    return {"gram": (Phi, CL, BB1, BD1),
            "core": (Phi, CL, herm(BB1 - BL2 @ BL2.conj().T), BDJ)}


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
    The oracle itself needs only the columns and the thin solves
    gram_solved and core_solved, each by one block LDL* sweep (ldl_sweep);
    the full matrices Tg, Tk and the explicit inverses core_inv, gram_inv
    and ill_inv are built on first use, for Lambda and the test-side
    operator identities (tests/reference.py).

    window(N) is the context of the leading N blocks: its columns are
    slices of this one's, so a truncation ladder truncates once, at its
    largest window; a window has no ladder of its own.  ladder() cuts the
    windows N/4, N/2 and N and records them as this context's rungs.  The
    solves of the whole multiples of the first rung share one forward sweep
    per matrix of this window in chunks of the first rung (_solved), and
    their margins update its eigendecomposition through the lifted
    realization where update_pays (_updated_rungs), all reading one lift
    (_first_lift); a ladder whose rungs all update builds gram and core of
    no window wider than the first rung unless a dense path asks for them.
    The margin of any other rung is dense, and so are the margin and the
    solves of a rung that is no whole multiple of the first and of every
    window of a context with no ladder.  The sample points' resolvent of
    the column is this window's too, and each rung reads its leading rows
    (column_resolvent).
    """

    def __init__(self, data, N):
        self.data = data
        self.N = int(N)
        self.m, self.p, self.q = data.m, data.p, data.q
        column = truncate(data.joint(), self.N)
        self.TgEp, self.TkEq = column[:, :self.p], column[:, self.p:]
        # the rungs of its ladder (ladder), the cores and margins of its
        # windows by size, the forward sweeps of its gram and core
        # (ldl_sweep) by name, and its last column resolvent with the bytes
        # of its points (column_resolvent); a window keeps its widest
        # context in _root, None here (no reference cycle)
        self._root, self._rungs = None, []
        self._cores, self._margins, self._sweeps = {}, {}, {}
        self._resolvent = (None, None)

    def ladder(self):
        """The windows N/4, N/2 and N of this context, smallest first: the
        first two with floors of 8 and 16, every rung capped at N and
        duplicates dropped.  The rungs are recorded here, so whole multiples
        of the first take their solves and, where update_pays, their margins
        from it (_solved, _rung_margin); a ladder of one rung records
        nothing and stays dense.  A window answers through its widest
        context, which would not read rungs recorded on the window, so a
        window has no ladder."""
        if self._root is not None:
            raise DimensionError(f"a window of {self.N} blocks has no ladder of its own; "
                                 f"cut it from OracleContext(data, {self.N})")
        N = self.N
        sizes = sorted({min(N, size) for size in (max(8, N // 4), max(16, N // 2), N)})
        if len(sizes) > 1:
            self._rungs = sizes
        return [self.window(size) for size in sizes]

    def window(self, N):
        """The context of the leading N <= self.N blocks, sliced from this
        one: the columns of a window are the leading rows of those of any
        larger window.  Its gram and core, read only by dense paths, come
        from its own columns.  Solves of the window are its own; its margin
        is the smallest eigenvalue of its own core, as the ladder answers it
        (margin).  Cutting a window records nothing, so the order of the
        cuts changes nothing: a window is dense, one LU chunk, unless it is
        a whole multiple of a first rung that ladder() recorded."""
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
        sub._root = self._root or self
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
        """T J T* for the joint T = [T_G  T_K], J = diag(I_p, -I_q): one
        displacement recursion of the joint column, kept by the widest
        context (_window_core)."""
        return (self._root or self)._window_core(self.N)

    def _window_core(self, N):
        """The core of this context's leading N-block window, from that
        window's own leading column, built once per N: the window's core,
        its dense margin (_rung_margin) and, for the first rung, the
        eigendecomposition of the margin updates (_first_spectrum) and the
        first pivot of the core sweep (_sweep) read the same matrix."""
        if N not in self._cores:
            column, signature = self._joint()
            self._cores[N] = toeplitz_gram(column[:N * self.m], self.m, signature)
        return self._cores[N]

    def _joint(self):
        """The joint column [T_G E_p, T_K E_q] and J = diag(I_p, -I_q)."""
        signature = np.repeat([1.0, -1.0], [self.p, self.q])
        return np.hstack([self.TgEp, self.TkEq]), signature

    @cached_property
    def margin(self):
        """Smallest eigenvalue of core, as its ladder answers it (_rung_margin)."""
        return (self._root or self)._rung_margin(self.N)

    def _rung_margin(self, N):
        """Smallest eigenvalue of the core of this context's leading N-block
        window, kept by N.

        A ladder is a widest context and the rungs that ladder() records;
        its first rung is b blocks.  A rung that _updated_rungs names updates
        the eigendecomposition (w, U) of the first rung's core through the
        lift of [G  K] to chunks of b blocks (ladder_margin), and the first
        rung then reads its margin w[0] from it.  Interlacing orders these
        margins, and each updated rung reports within them: no more than
        w[0], and no less than the next updated rung above it, so a read of
        the widest rung alone updates nothing below it.  Any other window
        eigen-solves its core (_window_core)."""
        if N in self._margins:
            return self._margins[N]
        updated = self._updated_rungs()
        if N in updated:
            w, U = self._first_spectrum
            margin = ladder_margin(w, U, self._first_lift["core"], N // self._rungs[0])
            margin = min(margin, float(w[0]))
            above = [size for size in updated if size > N]
            if above:
                margin = max(margin, self._rung_margin(above[0]))
        elif updated and N == self._rungs[0]:
            margin = float(self._first_spectrum[0][0])
        else:
            margin = float(np.linalg.eigvalsh(self._window_core(N))[0])
        self._margins[N] = margin
        return margin

    def _updated_rungs(self):
        """The rungs c b that update the first rung b's eigendecomposition:
        whole multiples of b (_lifted_rung) where update_pays for the rank
        2 n (c - 1) and the c b m rows, settled from sizes alone before any
        eigen-solve, whatever order the rungs are read in."""
        n = self.data.n
        return [N for N in self._rungs[1:] if self._lifted_rung(N) is not None
                and update_pays(2 * n * (N // self._rungs[0] - 1), N * self.m)]

    def _lifted_rung(self, N):
        """The ladder's first rung b when this widest window and its N-block
        window are both whole multiples of it, else None: such a window's
        margin may update the first rung's eigendecomposition (_updated_rungs)
        and its solves share one sweep in chunks of b (_solved)."""
        b = self._rungs[0] if self._rungs else None
        return b if b is not None and self.N % b == 0 and N % b == 0 else None

    @cached_property
    def _first_spectrum(self):
        """Eigendecomposition (w, U) of the first rung's core, eigenvalues ascending."""
        return np.linalg.eigh(self._window_core(self._rungs[0]))

    @cached_property
    def _first_lift(self):
        """[G  K] lifted to chunks of the first rung (_lifted), once per
        ladder: the margin updates (ladder_margin) and the forward sweeps of
        core and gram (_sweep) all read it."""
        b = self._rungs[0]
        column, _ = self._joint()
        return _lifted(self.data.joint(), column[:b * self.m], b, self.p)

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
        """gram^{-1} [T_G E_p, S_m* T_G E_p]: J = I on G (_solved)."""
        self.require_gram_definite()
        return self._solved("gram")

    @cached_property
    def core_solved(self):
        """core^{-1} [T_K E_q, S_m* T_G E_p]: J = diag(I_p, -I_q) on [G  K]
        (_solved)."""
        self.require_definite()
        return self._solved("core")

    def _solved(self, name):
        """(T J T*)^{-1} X of this window for its gram or core, by ldl_sweep:
        on a ladder rung that is a whole multiple of the first (_lifted_rung),
        one forward sweep of the widest window in chunks of the first rung,
        kept for every rung, and this rung's backward sweep; any other
        window is one chunk, an LU solve with its own Gram matrix."""
        root = self._root or self
        b = root._lifted_rung(self.N)
        if b is None:
            return self._sweep(name, self.N)(1)
        if name not in root._sweeps:
            root._sweeps[name] = root._sweep(name, b)
        return root._sweeps[name](self.N // b)

    def _sweep(self, name, b):
        """The forward sweep of this context's gram or core in chunks of b
        blocks; the first chunk's matrix is this context's own when the chunk
        is the whole window, else built from the chunk's leading column (a
        chunk of a ladder builds no Gram matrix wider than itself)."""
        lifted = None if b == self.N else self._first_lift[name]
        if name == "core":
            core_b = self.core if b == self.N else self._window_core(b)
            return ldl_sweep(core_b, self.TkEq, self.TgEp, self.m, lifted)
        gram_b = self.gram if b == self.N else toeplitz_gram(self.TgEp[:b * self.m], self.m)
        return ldl_sweep(gram_b, self.TgEp, self.TgEp, self.m, lifted)

    def column_resolvent(self, z):
        """(I - conj(z) S_m)^{-1} [T_G E_p, T_K E_q] at the 1-D array of
        points z, stacked (len(z), N m, p + q).  S_m is lower triangular, so
        a window's resolvent is the leading rows of its widest context's:
        the widest scans once per set of points (resolvent_down), keeps the
        last, and every window reads its leading rows."""
        root = self._root or self
        key = z.tobytes()
        if root._resolvent[0] != key:
            column, _ = root._joint()
            root._resolvent = (key, resolvent_down(column, z.conj(), self.m))
        return root._resolvent[1][:, :self.N * self.m]

    @cached_property
    def lam(self):
        """The contraction Lambda = T_G* (T_G T_G*)^{-1} T_K."""
        self.require_gram_definite()
        return self.Tg.conj().T @ np.linalg.solve(self.gram, self.Tk)

    @cached_property
    def ill_inv(self):
        """(I - Lambda* Lambda)^{-1}."""
        self.require_definite()
        L = self.lam
        return np.linalg.inv(np.eye(L.shape[1], dtype=complex) - L.conj().T @ L)


def theta0_defect_oracle(ctx):
    """I_p minus the Gram matrix of the first block column of T_G:
    the defect whose minimal-rank factor is Theta0."""
    return herm(np.eye(ctx.p, dtype=complex) - ctx.TgEp.conj().T @ ctx.gram_solved[:, :ctx.p])


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
        """gram^{-1} N, from gram_solved."""
        return self.ctx.gram_solved[:, self.ctx.p:] @ self.Theta0

    @property
    def core_n(self):
        """core^{-1} N."""
        return self.ctx.core_solved[:, self.ctx.q:] @ self.Theta0

    def sample(self, z):
        ctx = self.ctx
        return self.Theta0 - z * (ctx.TgEp.conj().T @ resolvent_up(self.w, z, ctx.m))


def oracle_theta(ctx, Theta0):
    ctx.require_definite()
    return ThetaOracle(ctx, Theta0)


def _delta_squares(ctx, theta):
    """Delta0^2 = I_q + E_q* T_K* core^{-1} T_K E_q and
    Delta1^2 = I_k + N* (core^{-1} - gram^{-1}) N."""
    E, N = ctx.TkEq, theta.Nop
    d0sq = herm(np.eye(ctx.q, dtype=complex) + E.conj().T @ ctx.core_solved[:, :ctx.q])
    d1sq = herm(np.eye(ctx.p - ctx.m, dtype=complex) + N.conj().T @ (theta.core_n - theta.w))
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

    The four share V(z) = ((I - conj(z) S_m)^{-1} [T_G E_p, T_K E_q])*
    core^{-1} [N, T_K E_q], whose left factor depends only on the column and
    the points: a ladder scans it once at its widest window for all points
    (column_resolvent), and each rung reads its leading rows.  Returns the
    samples, stacked over the points, plus the operator-side Delta0, Delta1.
    """
    theta = oracle_theta(ctx, Theta0)
    Delta0, Delta1 = oracle_deltas(ctx, theta)
    d0i = np.linalg.inv(Delta0)
    k = ctx.p - ctx.m
    d1i = np.linalg.inv(Delta1)
    p = ctx.p
    z = np.asarray(zs, dtype=complex).reshape(-1)
    X = np.hstack([theta.core_n, ctx.core_solved[:, :ctx.q]])
    V = ctx.column_resolvent(z).conj().transpose(0, 2, 1) @ X
    zc = z[:, None, None]
    return {"U11": (theta.Theta0 - zc * V[:, :p, :k]) @ d1i,
            "U21": (-zc * V[:, p:, :k]) @ d1i,
            "U12": V[:, :p, k:] @ d0i,
            "U22": d0i + V[:, p:, k:] @ d0i,
            "Delta0": Delta0, "Delta1": Delta1}

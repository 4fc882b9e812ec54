"""State-space calculus for rational matrix functions on the unit disc.

A realization stores F(z) = D + z C (I - z A)^{-1} B.  The Taylor
coefficients at the origin are F_0 = D and F_j = C A^{j-1} B for j >= 1, so
Schur stability of A is exactly analyticity of F on a disc of radius > 1.
observability_blocks is the package's one C A^k recurrence, by recursive
doubling (log2 N products, not N), and taylor_blocks multiplies all its
blocks by B in one batched product.
Sums, products and concatenations are formed by composing state spaces:
their state dimension is the sum of their operands', and no minimization is
attempted.  An inverse keeps its operand's state.  Chains of these grow the
state, so the coefficients module forms solutions in closed form on the
shared state instead.  `evaluate` takes one point or a 1-D array of points,
the latter in batched solves of at most EVAL_ENTRIES resolvent entries each.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError, NotInvertibleError, StabilityError
from .linalg import INVERT_RATIO, as_cmatrix, is_schur_stable, spectral_norm

NORM_GRID = 512  # circle points hinf_norm_estimate starts from
# n x n entries that one batched resolvent solve of evaluate holds at most:
# 16 MB of complex numbers, so up to n = 45 the 512-point grid is one solve
EVAL_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class Realization:
    """State-space data (A, B, C, D) for F(z) = D + z C (I - z A)^{-1} B.

    It carries no stability flag: every consumer that needs A Schur stable
    (hinf_norm_estimate, truncate) certifies it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_cmatrix(self.A, "A")
        B = as_cmatrix(self.B, "B")
        C = as_cmatrix(self.C, "C")
        D = as_cmatrix(self.D, "D")
        n = A.shape[0]
        out_dim, in_dim = D.shape
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape != (n, in_dim):
            raise DimensionError(f"B must be {n}x{in_dim}, got {B.shape}")
        if C.shape != (out_dim, n):
            raise DimensionError(f"C must be {out_dim}x{n}, got {C.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def out_dim(self):
        return self.D.shape[0]

    @property
    def in_dim(self):
        return self.D.shape[1]


def constant(D):
    """Realization of the constant function z -> D (no state)."""
    D = as_cmatrix(D, "D")
    n0 = np.zeros((0, 0), dtype=complex)
    return Realization(n0, np.zeros((0, D.shape[1]), dtype=complex),
                       np.zeros((D.shape[0], 0), dtype=complex), D)


def zeros(out_dim, in_dim):
    return constant(np.zeros((out_dim, in_dim), dtype=complex))


def evaluate(F, z):
    """Value F(z) = D + z C (I - z A)^{-1} B; raises if I - z A is singular.

    For a 1-D array of points the values are stacked with shape
    (len(z), out_dim, in_dim), from solves on the stacked resolvents, in
    chunks of points of at most EVAL_ENTRIES resolvent entries, so the
    memory stays O(n^2) at any number of points.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise DimensionError(f"evaluation points must be a 1-D array, got ndim={zs.ndim}")
    w = zs.reshape(-1, 1, 1)
    n = F.state_dim
    if n == 0:
        values = np.repeat(F.D[None], w.shape[0], axis=0)
    else:
        step = max(1, EVAL_ENTRIES // (n * n))
        chunks = []
        for start in range(0, max(w.shape[0], 1), step):  # no points: one empty solve
            wc = w[start:start + step]
            M = np.eye(n, dtype=complex) - wc * F.A
            try:
                X = np.linalg.solve(M, np.broadcast_to(F.B, (wc.shape[0],) + F.B.shape))
            except np.linalg.LinAlgError as exc:
                where = f"z = {z}" if zs.ndim == 0 else f"one of {zs.size} points"
                raise EvaluationError(f"resolvent singular at {where}") from exc
            chunks.append(F.D + wc * (F.C @ X))
        values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return values if zs.ndim else values[0]


def observability_blocks(C, A, count):
    """The first `count` blocks C, C A, ..., C A^(count-1), stacked with shape
    (count, rows of C, n): the one C A^k recurrence, read by the Taylor
    coefficients, the observability test, the generator's truncations and
    (with C = I) the powers of the oracle's lifted realization; stacked as
    one (count rows) x n matrix, it is the observability matrix.

    Recursive doubling (Kogge & Stone 1973): with the first s blocks and
    A^s known, the next s are the one product [C; ...; C A^(s-1)] A^s, and
    A^2s = A^s A^s, so about 2 log2(count) products replace count - 1.
    Each block carries the componentwise error of any order of the same
    product, a modest multiple of k (n + 1) eps |C| |A|^k for block k."""
    C = np.asarray(C)
    rows, n = C.shape
    O = np.empty((count, rows, n), dtype=np.result_type(C, A))
    O[:1] = C
    power, s = A, 1
    while s < count:
        t = min(s, count - s)
        O[s:s + t] = (O[:t].reshape(t * rows, n) @ power).reshape(t, rows, n)
        s += t
        if s < count:
            power = power @ power
    return O


def taylor_blocks(F, count):
    """First `count` Taylor coefficients F_0, F_1, ... of F at the origin,
    stacked with shape (count, out_dim, in_dim): D, then the blocks C A^k
    times B in one batched product."""
    blocks = np.empty((count, F.out_dim, F.in_dim), dtype=complex)
    if count:
        blocks[0] = F.D
        blocks[1:] = observability_blocks(F.C, F.A, count - 1) @ F.B
    return blocks


def _block_diag(X, Y):
    """The block-diagonal matrix diag(X, Y), of the composed state spaces below."""
    return np.block([[X, np.zeros((X.shape[0], Y.shape[1]), dtype=complex)],
                     [np.zeros((Y.shape[0], X.shape[1]), dtype=complex), Y]])


def product(F, G):
    """Pointwise product (F G)(z) = F(z) G(z)."""
    if F.in_dim != G.out_dim:
        raise DimensionError(
            f"product needs inner dimensions to match: {F.in_dim} vs {G.out_dim}")
    nf, ng = F.state_dim, G.state_dim
    A = np.block([
        [F.A, F.B @ G.C],
        [np.zeros((ng, nf), dtype=complex), G.A],
    ])
    B = np.vstack([F.B @ G.D, G.B])
    C = np.hstack([F.C, F.D @ G.C])
    D = F.D @ G.D
    return Realization(A, B, C, D)


def add(F, G):
    """Pointwise sum (F + G)(z)."""
    if (F.out_dim, F.in_dim) != (G.out_dim, G.in_dim):
        raise DimensionError(
            f"sum needs matching shapes: {F.out_dim}x{F.in_dim} vs {G.out_dim}x{G.in_dim}")
    A = _block_diag(F.A, G.A)
    B = np.vstack([F.B, G.B])
    C = np.hstack([F.C, G.C])
    D = F.D + G.D
    return Realization(A, B, C, D)


def hconcat(F, G):
    """Side-by-side block row [F(z)  G(z)] acting on stacked inputs."""
    if F.out_dim != G.out_dim:
        raise DimensionError(
            f"hconcat needs matching output dimensions: {F.out_dim} vs {G.out_dim}")
    A = _block_diag(F.A, G.A)
    B = _block_diag(F.B, G.B)
    C = np.hstack([F.C, G.C])
    D = np.hstack([F.D, G.D])
    return Realization(A, B, C, D)


def vconcat(F, G):
    """Stacked block column [F(z); G(z)] sharing one input."""
    if F.in_dim != G.in_dim:
        raise DimensionError(
            f"vconcat needs matching input dimensions: {F.in_dim} vs {G.in_dim}")
    A = _block_diag(F.A, G.A)
    B = np.vstack([F.B, G.B])
    C = _block_diag(F.C, G.C)
    D = np.vstack([F.D, G.D])
    return Realization(A, B, C, D)


def inverse(F):
    """Pointwise inverse F(z)^{-1}, requiring D = F(0) invertible.

    Uses A - B D^{-1} C as the new state matrix, which need not be stable
    even when A is.
    """
    if F.out_dim != F.in_dim:
        raise DimensionError(f"inverse needs a square function, got {F.out_dim}x{F.in_dim}")
    k = F.out_dim
    if k == 0:
        return F
    sv = np.linalg.svd(F.D, compute_uv=False)
    if sv[-1] <= INVERT_RATIO * max(1.0, sv[0]):
        raise NotInvertibleError(
            f"function is not invertible at the origin (sigma_min(D) = {sv[-1]:.3e})")
    Dinv = np.linalg.inv(F.D)
    A = F.A - F.B @ Dinv @ F.C
    B = F.B @ Dinv
    C = -Dinv @ F.C
    D = Dinv
    return Realization(A, B, C, D)


def hinf_norm_estimate(F):
    """Lower bound for sup_{|z|=1} ||F(z)||: the largest ||F(z)|| sampled on
    a NORM_GRID-point circle grid and on four zooms, each one batched
    evaluate of 17 points spread over one step of the previous pass either
    side of its best point (last spacing: 1/4096 of a grid step)."""
    if F.state_dim and not is_schur_stable(F.A):
        raise StabilityError("H-infinity norm needs a stable function")
    if F.out_dim == 0 or F.in_dim == 0:
        return 0.0
    if F.state_dim == 0:
        return spectral_norm(F.D)
    step = 2.0 * np.pi / NORM_GRID
    thetas = step * np.arange(NORM_GRID)
    best = 0.0
    for _ in range(5):  # the grid, then the four zooms
        values = spectral_norm(evaluate(F, np.exp(1j * thetas)))
        j = int(np.argmax(values))
        best = max(best, float(values[j]))
        thetas = thetas[j] + step * np.linspace(-1.0, 1.0, 17)
        step /= 8.0
    return best

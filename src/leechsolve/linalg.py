"""Dense complex linear-algebra primitives.

Two heavy primitives carry everything downstream: the Hermitian
eigendecomposition (definiteness, rank decisions, norms, PD square roots)
and the squared-doubling Stein solve.  Its squarings A, A^2, A^4, ... are
the Schur stability certificate (is_schur_stable asks for nothing more).
schur_squarings keeps its last answer, keyed on the bits of A, so the
consumers of one A (validate, both Gramians, both Riccati solves, the
truncation of [G  K]) build its sequence once and share it.
All operations accept 0-sized matrices.
"""

import logging

import numpy as np

from .errors import DefinitenessError, DimensionError

log = logging.getLogger("leechsolve.linalg")

# the fixed margin of the Stein certificate, and of the solver's positivity
# and parameter-norm gates
DEFAULT_TOL = 1e-9
# full column rank: sigma_min > RANK_RATIO sigma_max.  It gates validate's
# kernel condition only; riccati.is_observable, the other reader, gates
# nothing and has no caller in the solver
RANK_RATIO = 1e-10
# invertible at the origin: sigma_min(D) > INVERT_RATIO max(1, sigma_max(D))
INVERT_RATIO = 1e-12
# stein_doubling gives up after this many squarings; by then
# (1 - DEFAULT_TOL)^(2^k) has underflowed to 0, so no later step can certify
MAX_SQUARINGS = 64


def as_cmatrix(M, name="matrix"):
    """Coerce to a 2-d complex ndarray, rejecting non-finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(-1, 1)
    elif A.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise DimensionError(f"{name} contains non-finite entries")
    return A


def herm(M):
    """Hermitian part (M + M*)/2, of each matrix in a stack (..., n, n).

    One transposed pass writes M* into the output, then M is added and the
    sum halved in place: addition commutes and halving is exact, so the bits
    are those of 0.5 * (M + M*).  The output has the type of M times 0.5:
    M's own for a floating or complex M, float for an integer one."""
    dtype = M.dtype if M.dtype.kind in "fc" else float
    H = np.conjugate(M.swapaxes(-1, -2), dtype=dtype, order="C")
    H += M
    H *= 0.5
    return H


def _square(M, what, name="M"):
    """as_cmatrix(M, name), checked square for `what`, the operation that needs it."""
    A = as_cmatrix(M, name)
    rows, cols = A.shape
    if rows != cols:
        raise DimensionError(f"{what} needs a square matrix, got {rows}x{cols}")
    return A


def minimal_rank_factor(M, rank):
    """The top `rank` eigenpairs of the Hermitian part of M as a factor F
    (n x rank, columns by decreasing eigenvalue, V_k diag(w_k)^1/2), and all
    eigenvalues w, ascending, from one eigendecomposition.

    For a PSD M of that rank, F F* = M up to the dropped eigenvalues.  The
    rank is the caller's, as is the verdict on whether w bears it out; a
    negative kept eigenvalue gives a zero column.
    """
    w, V = np.linalg.eigh(herm(_square(M, "rank factorization")))
    wk = w[::-1][:rank]
    return V[:, ::-1][:, :rank] * np.sqrt(np.maximum(wk, 0.0)), w


def spectral_norm(M):
    """Largest singular value, via the Hermitian eigenproblem on the smaller Gram matrix.

    A stack of shape (..., rows, cols) gives the array of largest singular
    values over its last two axes.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim <= 2:
        A = as_cmatrix(A, "M")
    elif not np.all(np.isfinite(A)):
        raise DimensionError("M contains non-finite entries")
    if A.size == 0:
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[:-2])
    AH = A.conj().swapaxes(-1, -2)
    G = A @ AH if A.shape[-2] <= A.shape[-1] else AH @ A
    top = np.sqrt(np.maximum(np.linalg.eigvalsh(herm(G))[..., -1], 0.0))
    return float(top) if A.ndim == 2 else top


def singular_extremes(M):
    """(sigma_min, sigma_max) over the column space, from the singular values:
    eig(M* M) would square the condition number."""
    A = as_cmatrix(M, "M")
    s = np.linalg.svd(A, compute_uv=False) if min(A.shape) else np.zeros(1)
    return (float(s[-1]) if A.shape[0] >= A.shape[1] else 0.0), float(s[0])


# schur_squarings' last answer: ((shape, bytes of A as complex), squarings)
_last = (None, None)


def schur_squarings(A):
    """The squarings A, A^2, A^4, ..., A^(2^(k-1)) that certify the spectral
    radius of A below 1 - DEFAULT_TOL, as a tuple of read-only arrays, or None.

    ||A^(2^j)||_F < (1 - DEFAULT_TOL)^(2^j) for some j certifies it, since the
    Frobenius norm bounds rho(A^(2^j)) = rho(A)^(2^j); the sequence ends at
    the first certified k with ||A^(2^k)||^2 below roundoff.  None when the
    squarings overflow or run out.  The stopping rule reads A alone, so one
    sequence serves every Stein sum on A (stein_doubling).  The last answer
    is kept, keyed on A's shape and the bytes of its complex array: a call on
    the same bits returns it, and any other A (one ulp, or -0.0 for 0.0,
    apart) is built afresh.  The entry is swapped whole, so concurrent
    callers can at worst build the same sequence twice.
    """
    global _last
    M = np.asarray(A, dtype=complex)
    key = (M.shape, M.tobytes())
    last_key, squarings = _last
    if key != last_key:
        squarings = _build_squarings(M)
        _last = (key, squarings)
    return squarings


def _build_squarings(A):
    """schur_squarings(A), built."""
    Ak = np.array(A, dtype=complex)
    bound = 1.0 - DEFAULT_TOL
    certified = False
    squarings = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_SQUARINGS):
            a = float(np.linalg.norm(Ak))
            if not np.isfinite(a):
                return None
            certified = certified or a < bound
            if certified and a * a <= np.finfo(float).eps:
                return tuple(squarings)
            Ak.flags.writeable = False
            squarings.append(Ak)
            Ak = Ak @ Ak
            bound *= bound
    return None


def stein_doubling(A, W):
    """Solution P of P - A P A* = W by squared doubling, or None.

    Step j adds Aj P Aj* for Aj = A^(2^j), so after k steps P sums the first
    2^k terms of sum_i A^i W A^i*.  The squarings are schur_squarings(A);
    after the last one the tail, about ||A^(2^k)||^2 ||P||, is below
    roundoff.  W may be a stack (..., n, n) of right-hand sides, each summed
    on its own.  None when A is not certified or P overflows.
    """
    squarings = schur_squarings(A)
    if squarings is None:
        return None
    P = np.array(W, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for Ak in squarings:
            P = P + Ak @ P @ Ak.conj().T
    # a transient above ~1e154 in ||A^j|| overflows P alone
    return P if np.all(np.isfinite(P)) else None


def is_schur_stable(A):
    """True iff A's squarings certify its spectral radius below 1 - DEFAULT_TOL
    (schur_squarings); a radius too close to that reads False."""
    return schur_squarings(_square(A, "stability test", "A")) is not None


def sqrtm_posdef(M):
    """Hermitian square root of a positive definite matrix (eigendecomposition)."""
    w, V = np.linalg.eigh(herm(_square(M, "matrix square root")))
    if w.size and w[0] <= 0.0:
        raise DefinitenessError(
            f"matrix square root requires positive definiteness: min eigenvalue {w[0]:.3e}"
        )
    return eigh_root(w, V)


def eigh_root(w, V):
    """V diag(w)^1/2 V*: the Hermitian square root of the matrix with the
    eigendecomposition (w, V), every eigenvalue in w positive."""
    return (V * np.sqrt(w)) @ V.conj().T


def solve_hermitian(M, B, what="system"):
    """Solve M X = B for Hermitian positive definite M, logging the conditioning."""
    A = herm(as_cmatrix(M, "M"))
    rhs = np.asarray(B, dtype=complex)
    if A.shape[0] == 0:
        return np.zeros((0,) + rhs.shape[1:], dtype=complex)
    try:
        X = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"{what}: coefficient matrix is singular") from exc
    if log.isEnabledFor(logging.DEBUG):
        w = np.linalg.eigvalsh(A)
        if w[0] > 0:
            log.debug("%s: condition number %.3e", what, w[-1] / w[0])
        else:
            log.debug("%s: matrix not PD (min eig %.3e)", what, w[0])
    return X

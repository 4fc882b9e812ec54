"""Stein equations and the stabilizing solution of a discrete algebraic Riccati equation.

For data (A, Gamma, R0, C) the Riccati equation is Q = f(Q), where

    f(Q) = A* Q A + W* Delta^{-1} W,  W = C - Gamma* Q A,  Delta = R0 - Gamma* Q Gamma,

with Delta > 0 and A0 = A - Gamma Delta^{-1} W Schur stable at the solution.
For R0 > 0 it reads Q = Ad* Q (I + G Q)^{-1} Ad + H, with Ad = A - Gamma R0^{-1} C,
G = -Gamma R0^{-1} Gamma* and H = C* R0^{-1} C, which the structure-preserving
doubling algorithm (SDA: Chu, Fan & Lin 2005; convergence: Lin & Xu 2006)
solves: its iterate H_k is f^(2^k)(0).

Certificate of infeasibility: where Delta(Q) > 0, f(Q) is the maximum over K
of (A - Gamma K)* Q (A - Gamma K) + C* K + K* C - K* R0 K, so f is monotone
there, and Q <= Q' gives Delta(Q) >= Delta(Q').  If a stabilizing solution X
with Delta(X) > 0 exists, X is PSD (a Stein sum of PSD terms), and induction
from 0 <= f(0) gives f^j(0) <= f^(j+1)(0) <= X for every j: every fixed-point
iterate keeps Delta >= Delta(X) > 0, and none falls.  So an iterate with an
indefinite Schur complement, or one that falls, proves that none exists.

Equations on the same A and C are solved as a stack: stabilizing_riccati
takes Gamma and R0 stacked, and one doubling loop makes every solve, product
and eigensolve for all of them at once; an equation that converges rides
along until the last one does.  The loop raises on the first problem in any
slice.  A stack that fails is solved again one equation at a time, in stack
order (core.solve stacks the pair before the kernel), and fails as those
solves do, with the first failure: at most one more loop, up to the failing
equation.  One equation is a stack of one.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    DefinitenessError,
    DimensionError,
    LeechError,
    RiccatiError,
    StabilityError,
)
from .linalg import (
    RANK_RATIO,
    as_cmatrix,
    herm,
    is_schur_stable,
    singular_extremes,
    solve_hermitian,
    stein_doubling,
)
from .realization import observability_blocks

log = logging.getLogger("leechsolve.riccati")


def solve_stein(A, W):
    """Unique solution P of P - A P A* = W for Schur stable A and Hermitian PSD W.

    W may be a stack (k, n, n) of right-hand sides, solved in one pass to a
    stack of solutions.  An A not certified Schur stable (is_schur_stable) is
    a StabilityError.  Each solution is returned exactly Hermitian.  A slice
    whose residual after the doubled sum exceeds 1e-11 * (1 + ||W||) takes
    one step of iterative refinement on the same certificate; its refined
    residual is verified against 1e-11 * (1 + ||W|| + ||P||), as roundoff
    scales with the solution's transient, and a larger one is a
    BreakdownError.
    """
    A = as_cmatrix(A, "A")
    W = np.asarray(W, dtype=complex)
    if W.ndim != 3:
        W = as_cmatrix(W, "W")
    elif not np.all(np.isfinite(W)):
        raise DimensionError("W contains non-finite entries")
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"A must be square, got {A.shape}")
    if W.shape[-2:] != (n, n):
        raise DimensionError(f"W must be {n}x{n} to match A, got {W.shape}")
    if n == 0:
        return np.zeros(W.shape, dtype=complex)
    shape, scales = W.shape, []
    for Wi in W.reshape(-1, n, n):
        scale = float(np.linalg.norm(Wi))
        if np.linalg.norm(Wi - Wi.conj().T) > 1e-10 * (1.0 + scale):
            raise DefinitenessError("Stein right-hand side must be Hermitian")
        wmin = float(np.linalg.eigvalsh(herm(Wi))[0])
        if wmin < -1e-10 * (1.0 + scale):
            raise DefinitenessError(
                f"Stein right-hand side must be PSD, min eigenvalue {wmin:.3e}")
        scales.append(scale)
    W = herm(W).reshape(-1, n, n)
    P = stein_doubling(A, W)
    if P is None:
        raise StabilityError("Stein equation requires a Schur stable A")
    P = herm(P)
    AH = A.conj().T
    scales = np.array(scales)
    R = W - P + A @ P @ AH
    refine = np.linalg.norm(R, axis=(1, 2)) > 1e-11 * (1.0 + scales)
    if np.any(refine):
        # one refinement step, only for the slices that need it: roundoff in
        # the doubled sum grows with the transient of A^j, and the
        # correction's is smaller by the residual
        Pr = herm(P[refine] + stein_doubling(A, herm(R[refine])))
        residual = np.linalg.norm(Pr - A @ Pr @ AH - W[refine], axis=(1, 2))
        gate = 1e-11 * (1.0 + scales[refine] + np.linalg.norm(Pr, axis=(1, 2)))
        if np.any(residual > gate):
            worst = float(np.max(residual[residual > gate]))
            raise BreakdownError(f"Stein solve residual {worst:.3e} exceeds tolerance")
        P[refine] = Pr
    return P.reshape(shape)


def is_observable(C, A):
    """Rank test on the observability matrix: sigma_min > RANK_RATIO sigma_max."""
    n = A.shape[0]
    if n == 0:
        return True
    smin, smax = singular_extremes(observability_blocks(C, A, n).reshape(n * len(C), n))
    return smax > 0.0 and smin > RANK_RATIO * smax


@dataclass
class RiccatiSolution:
    """Stabilizing solution Q with its Schur complement Delta = R0 - Gamma* Q Gamma,
    closed loop A0 = A - Gamma L, doubling count, final fixed-point residual,
    gain L = Delta^{-1} (C - Gamma* Q A) and eigendecomposition eig = (w, V),
    Q = V diag(w) V*, from the eigh that checks Q is PSD."""

    Q: np.ndarray
    Delta: np.ndarray
    A0: np.ndarray
    iterations: int
    residual: float
    gain: np.ndarray
    eig: tuple


class RiccatiSolutions(tuple):
    """The solutions of a stack of equations, in stack order."""

    @property
    def iterations(self):
        """The doublings of every equation, summed."""
        return sum(sol.iterations for sol in self)


def _as_stack(M, name):
    """M as a stack (k, rows, cols) of finite matrices."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 3:
        raise DimensionError(f"{name} must be a stack of matrices, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} contains non-finite entries")
    return M


def _min_eig(M):
    """Smallest eigenvalue of the Hermitian part of each matrix in a stack (inf when empty)."""
    return np.linalg.eigvalsh(herm(M)).min(axis=-1, initial=np.inf)


def _finish(A, Gamma, R0, C, Q, GQG, k):
    """The solution from the converged iterate Q after k doublings (GQG =
    Gamma* Q Gamma), once its postconditions hold."""
    Delta = herm(R0 - GQG)
    if not _min_eig(Delta) > 0.0:
        raise DefinitenessError("computed Schur complement is not positive definite")
    W = C - Gamma.conj().T @ Q @ A
    L = solve_hermitian(Delta, W, "riccati gain")
    A0 = A - Gamma @ L
    residual = float(np.linalg.norm(Q - herm(A.conj().T @ Q @ A + W.conj().T @ L)))
    if residual > 1e-9 * (1.0 + float(np.linalg.norm(Q))):
        raise BreakdownError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if not is_schur_stable(A0):
        raise StabilityError("closed-loop matrix of the computed solution is not Schur stable")
    # Q is a Stein sum of A^j* W* Delta^{-1} W A^j, so PSD up to the residual;
    # its eigendecomposition is kept for the gap verdicts
    qw, qV = np.linalg.eigh(Q)
    if qw[0] < -1e-9 * (1.0 + qw[-1]):
        raise DefinitenessError(f"stabilizing solution is not PSD: eigenvalue {qw[0]:.3e}")
    log.debug("riccati solved in %d doublings, residual %.3e, eig(Q) in [%.3e, %.3e]",
              k, residual, qw[0], qw[-1])
    return RiccatiSolution(Q, Delta, A0, k, residual, L, (qw, qV))


def _check_finite(k, *stacks):
    """Raise the BreakdownError of doubling k if any iterate is not finite."""
    if not all(np.isfinite(M).all() for M in stacks):
        raise BreakdownError(f"Riccati doubling {k} produced a non-finite iterate")


def _doubling(A, Gamma, R0, C):
    """The SDA loop of stabilizing_riccati on checked data: the solutions in
    stack order, each finished at the doubling where it converges, or the
    first problem in any slice, raised."""
    n, count, m = A.shape[0], len(Gamma), R0.shape[-1]
    infeasible = "; no stabilizing solution exists for this data"
    Ri = herm(R0)
    if not np.all(_min_eig(Ri) > 0.0):
        raise RiccatiError("Schur complement lost positive definiteness at Q = 0" + infeasible)
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return [RiccatiSolution(empty, R, empty, 0, 0.0, np.zeros((m, 0), dtype=complex),
                                (np.zeros(0), empty)) for R in Ri]

    Gh = Gamma.conj().swapaxes(-1, -2)
    # an iterate may overflow or go NaN, here and in the loop; the finiteness
    # check raises before any eigensolve reads it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X = np.linalg.solve(Ri, np.concatenate([np.broadcast_to(C, (count, m, n)), Gh],
                                                   axis=-1))
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError("riccati R0: coefficient matrix is singular") from exc
        RiC, RiG = X[..., :n], X[..., n:]
        Ak, Gk, Q = A - Gamma @ RiC, -herm(Gamma @ RiG), herm(C.conj().T @ RiC)
        GQG = Gh @ Q @ Gamma
        _check_finite(0, Ak, Gk, Q, GQG)
        schur = _min_eig(R0 - GQG)
        qnorm = np.linalg.norm(Q, axis=(-2, -1))
        gamma2 = np.linalg.norm(Gamma, axis=(-2, -1)) ** 2
    out = [None] * count  # each equation's solution, once it converges
    eye = np.eye(n)
    for k in range(1, 65):
        if not np.all(schur > 0.0):
            raise RiccatiError("Schur complement lost positive definiteness at "
                               f"fixed-point iterate 2^{k - 1}" + infeasible)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                X = np.linalg.solve(eye + Gk @ Q, np.concatenate([Ak, Gk], axis=-1))
            except np.linalg.LinAlgError as exc:
                raise BreakdownError(f"Riccati doubling {k}: I + G H is singular") from exc
            SA, SG = X[..., :n], X[..., n:]
            AkH = Ak.conj().swapaxes(-1, -2)
            Qn = herm(Q + AkH @ Q @ SA)
            Gk = herm(Gk + Ak @ SG @ AkH)
            Ak = Ak @ SA
            GQGn = Gh @ Qn @ Gamma
            _check_finite(k, Qn, Gk, Ak, GQGn)
            # one eigensolve gives the fall from Gamma* H_k Gamma and the next
            # doubling's Schur complement; rounding reaches Gamma* H_k Gamma at
            # about eps ||Gamma||^2 ||H_k||, as the data scales
            w = _min_eig(np.concatenate([GQGn - GQG, R0 - GQGn]))
            fall, schur = w[:count], w[count:]
            fell = fall < -1e-12 * gamma2 * qnorm
            if fell.any():
                raise RiccatiError(
                    f"fixed-point iterate fell between 2^{k - 1} and 2^{k} "
                    f"(eigenvalue {fall[fell.argmax()]:.3e} of Gamma* step Gamma)" + infeasible)
            step = np.linalg.norm(Qn - Q, axis=(-2, -1))
        log.debug("riccati doubling %d: steps %s", k, step)
        Q, GQG, qnorm = Qn, GQGn, np.linalg.norm(Qn, axis=(-2, -1))
        for j in np.flatnonzero(step <= 1e-13 * (1.0 + qnorm)):
            if out[j] is None:
                # a copy: the view Q[j] would keep the whole stack alive
                out[j] = _finish(A, Gamma[j], R0[j], C, Q[j].copy(), GQG[j], k)
        if all(sol is not None for sol in out):
            return out
    raise BreakdownError("Riccati doubling did not converge in 64 doublings")


def stabilizing_riccati(A, Gamma, R0, C):
    """Stabilizing solutions of a stack of Riccati equations (A, Gamma, R0, C), by SDA.

    Gamma (k, n, m) and R0 (k, m, m) stack k equations on the same A and C,
    solved in one doubling loop to a RiccatiSolutions tuple in stack order,
    each bit for bit as a stack of one; an equation that converges is
    finished at that doubling and rides along.  The loop raises on the first
    problem in any slice; a stack of more than one then solves its equations
    alone, in stack order, and raises the first failure, with its index in
    the stack as `equation`: at most one more loop, up to that equation.

    Precondition: A Schur stable, which makes {C, A} detectable, all that a
    stabilizing solution needs (an unobservable pair gives a singular Q, and
    nothing inverts Q).  From A_0 = Ad, G_0 = G and H_0 = H (the loop keeps
    H_k in Q), doubling k sets S = I + G_k H_k and
        A_{k+1} = A_k S^{-1} A_k,   G_{k+1} = G_k + A_k S^{-1} G_k A_k*,
        H_{k+1} = H_k + A_k* H_k S^{-1} A_k;
    `iterations` counts the doublings.  As H_k = f^(2^k)(0), the module's
    certificate makes R0 - Gamma* H_k Gamma not positive definite, or a fall
    lambda_min(Gamma* H_{k+1} Gamma - Gamma* H_k Gamma) < -1e-12 ||Gamma||^2 ||H_k||,
    a RiccatiError: no stabilizing solution exists, an infeasible verdict.
    Gamma* H_{k+1} Gamma is formed once: it is also the next doubling's Schur
    complement.  A failed computation is a breakdown: BreakdownError for a
    singular S, a non-finite iterate (doubling 0 is the start; checked before
    any eigensolve reads it), no convergence in 64 doublings or a large
    residual; DefinitenessError for a singular R0, the final Delta or a Q
    that is not PSD to roundoff (a singular Q is fine); StabilityError for
    A0.  That PSD check is Q's one eigendecomposition: each solution carries
    it as `eig`.
    """
    A = as_cmatrix(A, "A")
    C = as_cmatrix(C, "C")
    Gamma, R0 = _as_stack(Gamma, "Gamma"), _as_stack(R0, "R0")
    n, count, m = A.shape[0], len(Gamma), R0.shape[-1]
    if A.shape != (n, n):
        raise DimensionError(f"A must be square, got {A.shape}")
    if Gamma.shape[1:] != (n, m):
        raise DimensionError(f"Gamma must be {n}x{m}, got {Gamma.shape[1:]}")
    if R0.shape[1:] != (m, m):
        raise DimensionError(f"R0 must be square, got {R0.shape[1:]}")
    if len(R0) != count:
        raise DimensionError(f"Gamma stacks {count} equations, R0 {len(R0)}")
    if C.shape != (m, n):
        raise DimensionError(f"C must be {m}x{n}, got {C.shape}")
    if not is_schur_stable(A):
        raise StabilityError("Riccati data requires a Schur stable A")

    try:
        return RiccatiSolutions(_doubling(A, Gamma, R0, C))
    except LeechError as exc:
        if count == 1:
            exc.equation = 0
            raise
        log.debug("riccati stack of %d failed (%s); solving its equations one at a time",
                  count, exc)
    out = []
    for j in range(count):
        try:
            out += _doubling(A, Gamma[j:j + 1], R0[j:j + 1], C)
        except LeechError as exc:
            exc.equation = j
            raise
    return RiccatiSolutions(out)

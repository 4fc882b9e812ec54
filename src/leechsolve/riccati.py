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
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    DefinitenessError,
    DimensionError,
    RiccatiError,
    StabilityError,
)
from .linalg import (
    RANK_RATIO,
    as_cmatrix,
    herm,
    hermitian_posdef_check,
    is_schur_stable,
    schur_squarings,
    singular_extremes,
    solve_hermitian,
    stein_doubling,
)

log = logging.getLogger("leechsolve.riccati")


def solve_stein(A, W, squarings=None):
    """Unique solution P of P - A P A* = W for Schur stable A and Hermitian PSD W.

    W may be a stack (k, n, n) of right-hand sides, solved in one pass to a
    stack of solutions.  `squarings` is A's certificate schur_squarings(A)
    when the caller has one; without it A is certified here, and an unstable
    A is a StabilityError.  Each solution is returned exactly Hermitian after
    one step of iterative refinement, which reuses the squarings; each
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
    scales = []
    for Wi in W.reshape(-1, n, n):
        scale = float(np.linalg.norm(Wi))
        if np.linalg.norm(Wi - Wi.conj().T) > 1e-10 * (1.0 + scale):
            raise DefinitenessError("Stein right-hand side must be Hermitian")
        wmin = float(np.linalg.eigvalsh(herm(Wi))[0])
        if wmin < -1e-10 * (1.0 + scale):
            raise DefinitenessError(
                f"Stein right-hand side must be PSD, min eigenvalue {wmin:.3e}")
        scales.append(scale)
    if squarings is None:
        squarings = schur_squarings(A)
    W = herm(W)
    P = None if squarings is None else stein_doubling(A, W, squarings)
    if P is None:
        raise StabilityError("Stein equation requires a Schur stable A")
    # one refinement step: roundoff in the doubled sum grows with the
    # transient of A^j, and the correction's is smaller by the residual
    AH = A.conj().T
    P = herm(P + stein_doubling(A, herm(W - P + A @ P @ AH), squarings))
    for Pi, Wi, scale in zip(P.reshape(-1, n, n), W.reshape(-1, n, n), scales):
        residual = float(np.linalg.norm(Pi - A @ Pi @ AH - Wi))
        if residual > 1e-11 * (1.0 + scale + float(np.linalg.norm(Pi))):
            raise BreakdownError(f"Stein solve residual {residual:.3e} exceeds tolerance")
    return P


def observability_matrix(C, A, N):
    """Stack the first N blocks [C; CA; ...; C A^{N-1}]."""
    blocks = []
    Ck = C.copy()
    for _ in range(N):
        blocks.append(Ck)
        Ck = Ck @ A
    if not blocks:
        return np.zeros((0, A.shape[0]), dtype=complex)
    return np.vstack(blocks)


def is_observable(C, A):
    """Rank test on the observability matrix: sigma_min > RANK_RATIO sigma_max."""
    if A.shape[0] == 0:
        return True
    smin, smax = singular_extremes(observability_matrix(C, A, A.shape[0]))
    return smax > 0.0 and smin > RANK_RATIO * smax


@dataclass
class RiccatiSolution:
    """Stabilizing solution Q with its Schur complement Delta = R0 - Gamma* Q Gamma,
    closed loop A0 = A - Gamma L, doubling count, final fixed-point residual
    and gain L = Delta^{-1} (C - Gamma* Q A)."""

    Q: np.ndarray
    Delta: np.ndarray
    A0: np.ndarray
    iterations: int
    residual: float
    gain: np.ndarray


def stabilizing_riccati(A, Gamma, R0, C, squarings=None):
    """Stabilizing solution of the Riccati equation for (A, Gamma, R0, C), by SDA.

    Precondition: A Schur stable, which makes {C, A} detectable, all that a
    stabilizing solution needs (an unobservable pair gives a singular Q, and
    nothing inverts Q).  `squarings` is A's certificate schur_squarings(A)
    when the caller has one, and stands in for the stability test; without
    it A is certified here.  From A_0 = Ad, G_0 = G
    and H_0 = H (the loop keeps H_k in Q), doubling k sets S = I + G_k H_k and
        A_{k+1} = A_k S^{-1} A_k,   G_{k+1} = G_k + A_k S^{-1} G_k A_k*,
        H_{k+1} = H_k + A_k* H_k S^{-1} A_k;
    `iterations` counts the doublings.  As H_k = f^(2^k)(0), the module's
    certificate makes R0 - Gamma* H_k Gamma not positive definite, or a fall
    lambda_min(Gamma* (H_{k+1} - H_k) Gamma) < -1e-12 ||Gamma||^2 ||H_k||, a
    RiccatiError: no stabilizing solution exists, an infeasible verdict.  A
    failed computation is a breakdown: BreakdownError for a singular S, a
    non-finite iterate, no convergence in 64 doublings or a large residual;
    DefinitenessError for the final Delta or a Q that is not PSD to roundoff
    (a singular Q is fine); StabilityError for A0.
    """
    A = as_cmatrix(A, "A")
    Gamma = as_cmatrix(Gamma, "Gamma")
    R0 = as_cmatrix(R0, "R0")
    C = as_cmatrix(C, "C")
    n = A.shape[0]
    m = R0.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"A must be square, got {A.shape}")
    if Gamma.shape != (n, m):
        raise DimensionError(f"Gamma must be {n}x{m}, got {Gamma.shape}")
    if R0.shape != (m, m):
        raise DimensionError(f"R0 must be square, got {R0.shape}")
    if C.shape != (m, n):
        raise DimensionError(f"C must be {m}x{n}, got {C.shape}")
    if squarings is None and not is_schur_stable(A):
        raise StabilityError("Riccati data requires a Schur stable A")

    infeasible = "; no stabilizing solution exists for this data"
    if not hermitian_posdef_check(herm(R0)):
        raise RiccatiError("Schur complement lost positive definiteness at Q = 0" + infeasible)
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return RiccatiSolution(empty, herm(R0), empty, 0, 0.0, np.zeros((m, 0), dtype=complex))

    Gh = Gamma.conj().T
    RiC, RiG = np.hsplit(solve_hermitian(R0, np.hstack([C, Gh]), "riccati R0"), [n])
    Ak, Gk, Q = A - Gamma @ RiC, -herm(Gamma @ RiG), herm(C.conj().T @ RiC)
    gamma2 = float(np.linalg.norm(Gamma)) ** 2
    for k in range(1, 65):
        if not hermitian_posdef_check(herm(R0 - Gh @ Q @ Gamma)):
            raise RiccatiError("Schur complement lost positive definiteness at "
                               f"fixed-point iterate 2^{k - 1}" + infeasible)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                SA, SG = np.hsplit(np.linalg.solve(np.eye(n) + Gk @ Q, np.hstack([Ak, Gk])), [n])
            except np.linalg.LinAlgError as exc:
                raise BreakdownError(f"Riccati doubling {k}: I + G H is singular") from exc
            Qn = herm(Q + Ak.conj().T @ Q @ SA)
            Gk = herm(Gk + Ak @ SG @ Ak.conj().T)
            Ak = Ak @ SA
        if not all(np.all(np.isfinite(M)) for M in (Qn, Gk, Ak)):
            raise BreakdownError(f"Riccati doubling {k} produced a non-finite iterate")
        # rounding reaches Gamma* H_k Gamma at about eps ||Gamma||^2 ||H_k||, as the data scales
        fall = float(np.min(np.linalg.eigvalsh(herm(Gh @ (Qn - Q) @ Gamma)), initial=0.0))
        if fall < -1e-12 * gamma2 * float(np.linalg.norm(Q)):
            raise RiccatiError(f"fixed-point iterate fell between 2^{k - 1} and 2^{k} "
                               f"(eigenvalue {fall:.3e} of Gamma* step Gamma)" + infeasible)
        step = float(np.linalg.norm(Qn - Q))
        log.debug("riccati doubling %d: step %.3e", k, step)
        Q = Qn
        if step <= 1e-13 * (1.0 + float(np.linalg.norm(Q))):
            break
    else:
        raise BreakdownError("Riccati doubling did not converge in 64 doublings")

    Delta = herm(R0 - Gh @ Q @ Gamma)
    if not hermitian_posdef_check(Delta):
        raise DefinitenessError("computed Schur complement is not positive definite")
    W = C - Gh @ Q @ A
    L = solve_hermitian(Delta, W, "riccati gain")
    A0 = A - Gamma @ L
    residual = float(np.linalg.norm(Q - herm(A.conj().T @ Q @ A + W.conj().T @ L)))
    if residual > 1e-9 * (1.0 + float(np.linalg.norm(Q))):
        raise BreakdownError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if not is_schur_stable(A0):
        raise StabilityError("closed-loop matrix of the computed solution is not Schur stable")
    # Q is a Stein sum of A^j* W* Delta^{-1} W A^j, so PSD up to the residual
    qw = np.linalg.eigvalsh(Q)
    if qw[0] < -1e-9 * (1.0 + qw[-1]):
        raise DefinitenessError(f"stabilizing solution is not PSD: eigenvalue {qw[0]:.3e}")
    log.debug("riccati solved in %d doublings, residual %.3e, eig(Q) in [%.3e, %.3e]",
              k, residual, qw[0], qw[-1])
    return RiccatiSolution(Q, Delta, A0, k, residual, L)

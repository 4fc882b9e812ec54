"""Stein equations and the stabilizing solution of a discrete algebraic Riccati equation.

The Riccati equation solved here is, for data (A, Gamma, R0, C),

    Q = A* Q A + (C - Gamma* Q A)* (R0 - Gamma* Q Gamma)^{-1} (C - Gamma* Q A)

with Delta = R0 - Gamma* Q Gamma required positive definite along the way and
A0 = A - Gamma Delta^{-1} (C - Gamma* Q A) Schur stable at the solution.  The
solver iterates the fixed-point map from Q = 0 and takes a Newton step (a
Stein solve against the closed loop) whenever that solve certifies the closed
loop stable and the step keeps Delta definite.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    DefinitenessError,
    DimensionError,
    ObservabilityError,
    RiccatiError,
    StabilityError,
)
from .linalg import (
    as_cmatrix,
    herm,
    hermitian_posdef_check,
    is_schur_stable,
    singular_extremes,
    solve_hermitian,
    stein_doubling,
)

log = logging.getLogger("leechsolve.riccati")


def solve_stein(A, W):
    """Unique solution P of P - A P A* = W for Schur stable A and Hermitian PSD W.

    The solution is returned exactly Hermitian after one step of iterative
    refinement; the residual is verified against 1e-11 * (1 + ||W||), and a
    larger one is a BreakdownError.
    """
    A = as_cmatrix(A, "A")
    W = as_cmatrix(W, "W")
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"A must be square, got {A.shape}")
    if W.shape != (n, n):
        raise DimensionError(f"W must be {n}x{n} to match A, got {W.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    scale = float(np.linalg.norm(W))
    if np.linalg.norm(W - W.conj().T) > 1e-10 * (1.0 + scale):
        raise DefinitenessError("Stein right-hand side must be Hermitian")
    wmin = float(np.linalg.eigvalsh(herm(W))[0])
    if wmin < -1e-10 * (1.0 + scale):
        raise DefinitenessError(
            f"Stein right-hand side must be PSD, min eigenvalue {wmin:.3e}"
        )
    W = herm(W)
    P = stein_doubling(A, W)
    if P is None:
        raise StabilityError("Stein equation requires a Schur stable A")
    # one refinement step: roundoff in the doubled sum grows with the
    # transient of A^j, and the correction's is smaller by the residual
    P = herm(P + stein_doubling(A, herm(W - P + A @ P @ A.conj().T)))
    residual = float(np.linalg.norm(P - A @ P @ A.conj().T - W))
    if residual > 1e-11 * (1.0 + scale):
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
    """Rank test on the observability matrix: sigma_min > 1e-10 * sigma_max."""
    O = observability_matrix(C, A, A.shape[0])
    if A.shape[0] == 0:
        return True
    smin, smax = singular_extremes(O)
    if smax == 0.0:
        return False
    return smin > 1e-10 * smax


@dataclass
class RiccatiSolution:
    """Stabilizing solution Q with its Schur complement Delta = R0 - Gamma* Q Gamma,
    closed loop A0 = A - Gamma L, iteration count, final fixed-point residual
    and gain L = Delta^{-1} (C - Gamma* Q A)."""

    Q: np.ndarray
    Delta: np.ndarray
    A0: np.ndarray
    iterations: int
    residual: float
    gain: np.ndarray


def stabilizing_riccati(A, Gamma, R0, C, initial=None):
    """Stabilizing solution of the Riccati equation for (A, Gamma, R0, C).

    Preconditions: A Schur stable, {C, A} observable.  Raises RiccatiError
    (no stabilizing solution exists, an infeasible verdict) if Delta loses
    definiteness along the iteration or the iteration diverges.  A computed
    solution that fails a postcondition is a numerical breakdown:
    DefinitenessError for the final Delta or a Q that is not PSD to roundoff
    (a singular Q is fine), StabilityError for A0, and BreakdownError for a
    large residual or no convergence in 10 000 steps.
    The solution is unique, so any admissible `initial` converges to the same Q.
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
    if not is_schur_stable(A):
        raise StabilityError("Riccati data requires a Schur stable A")
    if not is_observable(C, A):
        raise ObservabilityError("Riccati data requires an observable pair {C, A}")

    if n == 0:
        if not hermitian_posdef_check(R0):
            raise RiccatiError("R0 must be positive definite when there is no state")
        empty = np.zeros((0, 0), dtype=complex)
        return RiccatiSolution(empty, herm(R0), empty, 0, 0.0, np.zeros((m, 0), dtype=complex))

    Q = herm(as_cmatrix(initial, "initial")) if initial is not None else np.zeros((n, n), dtype=complex)
    if Q.shape != (n, n):
        raise DimensionError(f"initial iterate must be {n}x{n}, got {Q.shape}")

    Ah = A.conj().T
    Gh = Gamma.conj().T
    min_step = np.inf
    iterations = 0
    converged = False
    for k in range(1, 10001):
        iterations = k
        Delta = herm(R0 - Gh @ Q @ Gamma)
        if not hermitian_posdef_check(Delta, tol=0.0):
            raise RiccatiError(
                f"Schur complement lost positive definiteness at iteration {k}; "
                "no stabilizing solution exists for this data"
            )
        W = C - Gh @ Q @ A
        L = solve_hermitian(Delta, W, "riccati gain")
        A0 = A - Gamma @ L
        # Newton step solves Qn - A0* Qn A0 = L*C + C*L - L*R0 L, or gives None
        # when the solve cannot certify A0 stable
        rhs = herm(L.conj().T @ C + C.conj().T @ L - L.conj().T @ R0 @ L)
        Qn = stein_doubling(A0.conj().T, rhs)
        if Qn is not None:
            Qn = herm(Qn)
            if not hermitian_posdef_check(herm(R0 - Gh @ Qn @ Gamma), tol=0.0):
                Qn = None
        if Qn is None:
            Qn = herm(Ah @ Q @ A + W.conj().T @ L)
        step = float(np.linalg.norm(Qn - Q))
        log.debug("riccati iter %d: step %.3e", k, step)
        Q = Qn
        if step <= 1e-12 * (1.0 + float(np.linalg.norm(Q))):
            converged = True
            break
        if k > 3 and step > 1e4 * min_step and step > 1e-6 * (1.0 + float(np.linalg.norm(Q))):
            raise RiccatiError(f"Riccati iteration diverging at step {k} (step {step:.3e})")
        min_step = min(min_step, step)
    if not converged:
        raise BreakdownError("Riccati iteration did not converge in 10000 steps")

    Delta = herm(R0 - Gh @ Q @ Gamma)
    if not hermitian_posdef_check(Delta, tol=0.0):
        raise DefinitenessError("computed Schur complement is not positive definite")
    W = C - Gh @ Q @ A
    L = solve_hermitian(Delta, W, "riccati gain")
    A0 = A - Gamma @ L
    residual = float(np.linalg.norm(Q - herm(Ah @ Q @ A + W.conj().T @ L)))
    if residual > 1e-9 * (1.0 + float(np.linalg.norm(Q))):
        raise BreakdownError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if not is_schur_stable(A0):
        raise StabilityError("closed-loop matrix of the computed solution is not Schur stable")
    # Q is a Stein sum of A^j* W* Delta^{-1} W A^j, so PSD up to the residual
    qw = np.linalg.eigvalsh(Q)
    if qw[0] < -1e-9 * (1.0 + qw[-1]):
        raise DefinitenessError(f"stabilizing solution is not PSD: eigenvalue {qw[0]:.3e}")
    log.debug("riccati solved in %d iterations, residual %.3e, eig(Q) in [%.3e, %.3e]",
              iterations, residual, qw[0], qw[-1])
    return RiccatiSolution(Q, Delta, A0, iterations, residual, L)

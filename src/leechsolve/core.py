"""Problem data and the pipeline from state-space data to derived matrices.

The problem: given stable rational G (size m x p) and K (size m x q) with a
joint observable realization

    G(z) = D1 + z C (I - z A)^{-1} B1,    K(z) = D2 + z C (I - z A)^{-1} B2,

find all rational X analytic on the closed disc with G X = K and
sup norm at most 1.  Strict suboptimality (the Gram operator of G dominating
that of K with a definite margin) is decided here through a pair of
stabilizing Riccati solutions and one extra positivity gap; the same objects
produce every matrix appearing in the parametrization of the solutions.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DefinitenessError,
    DimensionError,
    InfeasibleError,
    RankDefectError,
    ValidationError,
)
from .linalg import (
    as_cmatrix,
    herm,
    hermitian_posdef_check,
    is_schur_stable,
    minimal_rank_factor,
    singular_extremes,
    solve_hermitian,
    sqrtm_posdef,
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
)
from .realization import Realization
from .riccati import is_observable, solve_stein, stabilizing_riccati

log = logging.getLogger("leechsolve.core")


@dataclass(frozen=True)
class LeechData:
    """Joint realization data (A, B1, B2, C, D1, D2) of the pair [G  K]."""

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D1: np.ndarray
    D2: np.ndarray

    def __post_init__(self):
        A = as_cmatrix(self.A, "A")
        B1 = as_cmatrix(self.B1, "B1")
        B2 = as_cmatrix(self.B2, "B2")
        C = as_cmatrix(self.C, "C")
        D1 = as_cmatrix(self.D1, "D1")
        D2 = as_cmatrix(self.D2, "D2")
        n = A.shape[0]
        m, p = D1.shape
        q = D2.shape[1]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if C.shape != (m, n):
            raise DimensionError(f"C must be {m}x{n}, got {C.shape}")
        if B1.shape != (n, p):
            raise DimensionError(f"B1 must be {n}x{p}, got {B1.shape}")
        if B2.shape != (n, q):
            raise DimensionError(f"B2 must be {n}x{q}, got {B2.shape}")
        if D2.shape != (m, q):
            raise DimensionError(f"D2 must be {m}x{q}, got {D2.shape}")
        for name, M in (("A", A), ("B1", B1), ("B2", B2), ("C", C), ("D1", D1), ("D2", D2)):
            object.__setattr__(self, name, M)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.D1.shape[0]

    @property
    def p(self):
        return self.D1.shape[1]

    @property
    def q(self):
        return self.D2.shape[1]

    def g(self):
        """Realization of G."""
        return Realization(self.A, self.B1, self.C, self.D1, stable=True)

    def k(self):
        """Realization of K."""
        return Realization(self.A, self.B2, self.C, self.D2, stable=True)

    def gk(self):
        """Realization of the row [G  K] (shared state)."""
        return Realization(self.A, np.hstack([self.B1, self.B2]), self.C,
                           np.hstack([self.D1, self.D2]), stable=True)


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self):
        return "; ".join(f"{c.name}: {'ok' if c.passed else 'FAIL'} ({c.detail})"
                         for c in self.checks)


def validate(data, tol=DEFAULT_TOL):
    """Check the standing assumptions on the data.

    - dimensions: p >= m (wide numerator) and p <= n + m so the kernel
      condition below can hold at all;
    - stability: A Schur stable;
    - observability: the pair {C, A} observable;
    - kernel condition: [B1; D1] has trivial kernel (full column rank p).
    """
    checks = []
    n, m, p, q = data.n, data.m, data.p, data.q
    dims_ok = (m >= 1) and (p >= m) and (p <= n + m)
    checks.append(ValidationCheck(
        "dimensions", dims_ok,
        f"n={n}, m={m}, p={p}, q={q}; need 1 <= m <= p <= n + m"))
    stable = is_schur_stable(data.A, tol=tol)
    checks.append(ValidationCheck("stability", stable, "A Schur stable"
                                  if stable else "spectral radius of A is not below 1"))
    obs = is_observable(data.C, data.A)
    checks.append(ValidationCheck("observability", obs, "pair {C, A} observable"
                                  if obs else "observability matrix is rank deficient"))
    stack = np.vstack([data.B1, data.D1])
    smin, smax = singular_extremes(stack)
    kernel_ok = smax > 0.0 and smin > 1e-10 * smax
    checks.append(ValidationCheck(
        "kernel", kernel_ok,
        f"sigma_min([B1; D1]) = {smin:.3e}, sigma_max = {smax:.3e}"))
    return ValidationReport(checks)


@dataclass
class PopovData:
    """Quadratic data of the two Riccati equations: the difference form
    (R0, Gamma) for the pair and the kernel form (R10, Gamma0) for G alone."""

    R0: np.ndarray
    Gamma: np.ndarray
    R10: np.ndarray
    Gamma0: np.ndarray


def gramians(data):
    """Controllability Gramians P1, P2 of (A, B1) and (A, B2)."""
    P1 = solve_stein(data.A, data.B1 @ data.B1.conj().T)
    P2 = solve_stein(data.A, data.B2 @ data.B2.conj().T)
    return P1, P2


def popov_data(data, P1, P2):
    """Popov-type data built from the Gramians:

        R0     = D1 D1* - D2 D2* + C (P1 - P2) C*
        Gamma  = B1 D1* - B2 D2* + A (P1 - P2) C*
        R10    = D1 D1* + C P1 C*
        Gamma0 = B1 D1* + A P1 C*
    """
    A, B1, B2, C, D1, D2 = data.A, data.B1, data.B2, data.C, data.D1, data.D2
    dP = P1 - P2
    R0 = herm(D1 @ D1.conj().T - D2 @ D2.conj().T + C @ dP @ C.conj().T)
    Gamma = B1 @ D1.conj().T - B2 @ D2.conj().T + A @ dP @ C.conj().T
    R10 = herm(D1 @ D1.conj().T + C @ P1 @ C.conj().T)
    Gamma0 = B1 @ D1.conj().T + A @ P1 @ C.conj().T
    return PopovData(R0, Gamma, R10, Gamma0)


def theta0_defect(data, Q0, P1):
    """Gram defect M of the constant term of the inner kernel function.

    With the kernel Riccati solution Q0 and its derived closed loop, M equals
    the identity minus the Gram matrix of the first Taylor block column, and
    its rank is p - m whenever the kernel condition holds.
    """
    A, B1, C, D1 = data.A, data.B1, data.C, data.D1
    p = data.p
    R10 = herm(D1 @ D1.conj().T + C @ P1 @ C.conj().T)
    Gamma0 = B1 @ D1.conj().T + A @ P1 @ C.conj().T
    Delta10 = herm(R10 - Gamma0.conj().T @ Q0 @ Gamma0)
    C0p = solve_hermitian(Delta10, C - Gamma0.conj().T @ Q0 @ A, "kernel defect")
    A0p = A - Gamma0 @ C0p
    C1p = D1.conj().T @ C0p + B1.conj().T @ Q0 @ A0p
    Q0inv = np.linalg.inv(Q0)
    gap0 = herm(Q0inv - P1)
    Omega0 = P1 @ solve_hermitian(gap0, Q0inv, "kernel gap")
    DQB = D1 - Gamma0.conj().T @ Q0 @ B1
    M = (np.eye(p, dtype=complex)
         - C1p @ Omega0 @ C1p.conj().T
         - DQB.conj().T @ solve_hermitian(Delta10, DQB, "kernel defect")
         - B1.conj().T @ Q0 @ B1)
    return herm(M)


def theta0(M, k, rank_tol=DEFAULT_RANK_TOL):
    """Constant term Theta0 (p x k, k = p - m) of the inner function spanning
    Ker T_G, from its Gram defect M = theta0_defect(...).

    Factorizes the defect; a rank different from k signals a violated kernel
    condition or numerical breakdown.
    """
    # the natural scale of M is 1 (it is I minus a Gram matrix), so the cut is
    # the absolute rank_tol; a norm below it means the defect vanished (p = m)
    scale = float(np.linalg.norm(M, 2))
    if scale <= rank_tol:
        F = np.zeros((M.shape[0], 0), dtype=complex)
    else:
        F = minimal_rank_factor(M, rank_tol=rank_tol / scale)
    if F.shape[1] != k:
        raise RankDefectError(
            f"kernel defect has rank {F.shape[1]}, expected p - m = {k}; "
            "kernel condition violated or numerical breakdown")
    return F


def _gaps(Q, Q0, P1, P2):
    """Q^{-1} and the positivity gaps Q^{-1} + P2 - P1 (pair) and Q0^{-1} - P1
    (kernel); both gaps come out of herm exactly Hermitian."""
    Qinv = np.linalg.inv(Q)
    return Qinv, herm(Qinv + P2 - P1), herm(np.linalg.inv(Q0) - P1)


def _omega(P1, P2, Qinv, gap):
    """Omega = (P1 - P2) gap^{-1} Q^{-1}, Hermitian."""
    return herm((P1 - P2) @ solve_hermitian(gap, Qinv, "Omega"))


@dataclass
class DerivedMatrices:
    """Everything the parametrization needs, computed once by solve().

    The n x n gaps and Omega are recomputed on access; the coefficients read
    the thin products solve() formed from them (B = [B1  B2], D = [D1  D2]):

        E0 = (D - Gamma* Q B)* Delta^{-1} (D2 - Gamma* Q B2) + B* Q B2
             + [C1; C2] Omega C2*                        (p + q) x q
        E1 = Theta0* B1* (gap^{-1} - gap0^{-1}) B1 Theta0     (p - m) x (p - m)
        F1 = Q^{-1} gap^{-1} B1 Theta0                        n x (p - m)

    E0 stacks U12(0) Delta0 over Delta0^2 - I, and E1 = Delta1^2 - I.
    """

    data: LeechData
    P1: np.ndarray
    P2: np.ndarray
    R0: np.ndarray
    Gamma: np.ndarray
    Q: np.ndarray
    Delta: np.ndarray
    A0: np.ndarray
    Q0: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    B0: np.ndarray
    Theta0: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    F1: np.ndarray
    Delta0: np.ndarray
    Delta1: np.ndarray
    margins: dict = field(default_factory=dict)

    @property
    def gap(self):
        """Q^{-1} + P2 - P1, positive definite iff suboptimal."""
        return _gaps(self.Q, self.Q0, self.P1, self.P2)[1]

    @property
    def gap0(self):
        """Q0^{-1} - P1."""
        return _gaps(self.Q, self.Q0, self.P1, self.P2)[2]

    @property
    def Omega(self):
        return _omega(self.P1, self.P2, *_gaps(self.Q, self.Q0, self.P1, self.P2)[:2])


def delta_matrices(derived, tol=DEFAULT_TOL):
    """Recompute the PD normalizations (Delta0, Delta1) from derived data.

        Delta0^2 = I_q + C2 Omega C2* + (D2 - Gamma* Q B2)* Delta^{-1} (D2 - Gamma* Q B2)
                       + B2* Q B2
        Delta1^2 = I_{p-m} + Theta0* B1* [ gap^{-1} - gap0^{-1} ] B1 Theta0

    read off the products E0 and E1 that solve() formed.  Both right-hand
    sides must be positive definite and Delta1^2 - I is PSD; a failure is a
    numerical breakdown (DefinitenessError), since solve() has already
    established suboptimality.
    """
    p, q, k = derived.data.p, derived.data.q, derived.data.p - derived.data.m
    d0sq = herm(np.eye(q, dtype=complex) + derived.E0[p:])
    d1sq = herm(np.eye(k, dtype=complex) + derived.E1)
    if not hermitian_posdef_check(d0sq, tol=0.0):
        raise DefinitenessError("Delta0^2 is not positive definite (numerical breakdown)")
    if not hermitian_posdef_check(d1sq, tol=0.0):
        raise DefinitenessError("Delta1^2 is not positive definite (numerical breakdown)")
    excess = d1sq - np.eye(k, dtype=complex)
    if excess.size:
        wmin = float(np.linalg.eigvalsh(herm(excess))[0])
        if wmin < -tol * max(1.0, float(np.linalg.norm(d1sq))):
            raise DefinitenessError(
                f"Delta1^2 - I has negative eigenvalue {wmin:.3e}; breakdown")
    return sqrtm_posdef(d0sq, tol=0.0), sqrtm_posdef(d1sq, tol=0.0)


def solve(data, tol=DEFAULT_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Decide strict suboptimality and return all derived matrices.

    Pipeline: validation, Gramians, Popov data, stabilizing Riccati solutions
    for the pair and for the kernel, the positivity gaps, and from these the
    matrices (C0, C1, C2, B0, Theta0, Delta0, Delta1) and the thin products
    the coefficients are assembled from.
    Raises ValidationError for malformed data, InfeasibleError when no
    stabilizing solution exists or the pair gap Q^-1 + P2 - P1 is not
    positive definite, and DefinitenessError or RankDefectError for a
    numerical breakdown after a positive pair gap: the kernel gap
    Q0^-1 - P1, the rank cut of theta0 or the Delta normalizations.
    """
    report = validate(data, tol=tol)
    if not report.ok:
        raise ValidationError("data validation failed: " + report.summary(), report)
    A, B1, B2, C, D1, D2 = data.A, data.B1, data.B2, data.C, data.D1, data.D2

    P1, P2 = gramians(data)
    pop = popov_data(data, P1, P2)

    try:
        ric = stabilizing_riccati(A, pop.Gamma, pop.R0, C)
    except Exception as exc:
        raise InfeasibleError(
            f"no stabilizing Riccati solution for the pair: {exc}") from exc
    try:
        ric0 = stabilizing_riccati(A, pop.Gamma0, pop.R10, C)
    except Exception as exc:
        raise InfeasibleError(
            f"no stabilizing Riccati solution for the kernel data: {exc}") from exc

    Q, Delta, A0, Q0 = ric.Q, ric.Delta, ric.A0, ric0.Q
    Qinv, gap, gap0 = _gaps(Q, Q0, P1, P2)
    # the gaps are exactly Hermitian, so the smallest eigenvalue is the verdict
    gap_min = float(np.min(np.linalg.eigvalsh(gap), initial=np.inf))
    gap0_min = float(np.min(np.linalg.eigvalsh(gap0), initial=np.inf))
    log.debug("positivity gaps: pair %.6e, kernel %.6e", gap_min, gap0_min)
    if not gap_min > tol:
        raise InfeasibleError(
            f"positivity gap Q^-1 + P2 - P1 has min eigenvalue {gap_min:.6e}; "
            "the data is not strictly suboptimal")
    if not gap0_min > tol:
        raise DefinitenessError(
            f"kernel positivity gap Q0^-1 - P1 has min eigenvalue {gap0_min:.6e}; "
            "numerical breakdown")

    C0 = ric.gain
    C1 = D1.conj().T @ C0 + B1.conj().T @ Q @ A0
    C2 = D2.conj().T @ C0 + B2.conj().T @ Q @ A0
    OmegaC2 = _omega(P1, P2, Qinv, gap) @ C2.conj().T
    B = np.hstack([B1, B2])
    DQB = np.hstack([D1, D2]) - pop.Gamma.conj().T @ Q @ B
    DQB2 = solve_hermitian(Delta, DQB[:, data.p:], "B0")
    B0 = B2 - pop.Gamma @ DQB2 + A0 @ OmegaC2
    E0 = DQB.conj().T @ DQB2 + B.conj().T @ Q @ B2 + np.vstack([C1, C2]) @ OmegaC2

    M = theta0_defect(data, Q0, P1)
    Theta0 = theta0(M, data.p - data.m, rank_tol=rank_tol)
    w = np.linalg.eigvalsh(M)  # the gap at the rank cut
    X = B1 @ Theta0
    gapX = solve_hermitian(gap, X, "Delta1")
    E1 = X.conj().T @ (gapX - solve_hermitian(gap0, X, "Delta1"))

    derived = DerivedMatrices(
        data=data, P1=P1, P2=P2, R0=pop.R0, Gamma=pop.Gamma, Q=Q, Delta=Delta,
        A0=A0, Q0=Q0, C0=C0, C1=C1, C2=C2, B0=B0, Theta0=Theta0,
        E0=E0, E1=E1, F1=Qinv @ gapX,
        Delta0=None, Delta1=None,
        margins={
            "gap_min_eig": gap_min,
            "gap0_min_eig": gap0_min,
            "riccati_residual": ric.residual,
            "riccati_iterations": ric.iterations,
            "kernel_riccati_residual": ric0.residual,
            "kernel_riccati_iterations": ric0.iterations,
            "theta0_kept_min_eig": float(np.min(w[w > rank_tol], initial=np.inf)),
            "theta0_dropped_max_eig": float(np.max(np.abs(w[w <= rank_tol]), initial=0.0)),
        },
    )
    derived.Delta0, derived.Delta1 = delta_matrices(derived, tol=tol)
    return derived

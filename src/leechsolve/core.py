"""Problem data and the pipeline from state-space data to derived matrices.

The problem: given stable rational G (size m x p) and K (size m x q) with a
joint realization on one Schur stable A

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
    LeechError,
    NotInvertibleError,
    RankDefectError,
    ValidationError,
)
from .linalg import (
    as_cmatrix,
    herm,
    hermitian_posdef_check,
    minimal_rank_factor,
    is_schur_stable,
    singular_extremes,
    solve_hermitian,
    sqrtm_posdef,
    DEFAULT_TOL,
    INVERT_RATIO,
    RANK_RATIO,
)
from .realization import Realization
from .riccati import solve_stein, stabilizing_riccati

log = logging.getLogger("leechsolve.core")

# theta0's rank cut on the eigenvalues of the defect M; M is I minus a Gram
# matrix, so its natural scale is 1 and the cut is absolute
RANK_CUT = 1e-8


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
        return Realization(self.A, self.B1, self.C, self.D1)

    def k(self):
        """Realization of K."""
        return Realization(self.A, self.B2, self.C, self.D2)


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

    def summary(self):
        return "; ".join(f"{c.name}: {'ok' if c.passed else 'FAIL'} ({c.detail})"
                         for c in self.checks)


def validate(data):
    """Check the standing assumptions on the data.  Observability of {C, A}
    is not one: a stable A makes the pair detectable, which is all the
    stabilizing Riccati solutions need.

    - dimensions: p >= m (wide numerator) and p <= n + m so the kernel
      condition below can hold at all;
    - stability: A Schur stable, certified with spectral radius below
      1 - DEFAULT_TOL (is_schur_stable);
    - kernel condition: [B1; D1] has trivial kernel (full column rank p).
    """
    checks = []
    n, m, p, q = data.n, data.m, data.p, data.q
    dims_ok = (m >= 1) and (p >= m) and (p <= n + m)
    checks.append(ValidationCheck(
        "dimensions", dims_ok,
        f"n={n}, m={m}, p={p}, q={q}; need 1 <= m <= p <= n + m"))
    stable = is_schur_stable(data.A)
    checks.append(ValidationCheck("stability", stable, "A Schur stable"
                                  if stable else "spectral radius of A is not below 1"))
    stack = np.vstack([data.B1, data.D1])
    smin, smax = singular_extremes(stack)
    kernel_ok = smax > 0.0 and smin > RANK_RATIO * smax
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
    """Controllability Gramians P1, P2 of (A, B1) and (A, B2), summed by one
    stacked Stein solve."""
    W = np.stack([data.B1 @ data.B1.conj().T, data.B2 @ data.B2.conj().T])
    P1, P2 = solve_stein(data.A, W)
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
    its rank is p - m whenever the kernel condition holds.  This form rebuilds
    the kernel Schur complement Delta10, gain and closed loop from Q0 and P1;
    solve() passes the kernel Riccati solution's own to _kernel_defect.
    """
    A, B1, C, D1 = data.A, data.B1, data.C, data.D1
    R10 = herm(D1 @ D1.conj().T + C @ P1 @ C.conj().T)
    Gamma0 = B1 @ D1.conj().T + A @ P1 @ C.conj().T
    Delta10 = herm(R10 - Gamma0.conj().T @ Q0 @ Gamma0)
    C0p = solve_hermitian(Delta10, C - Gamma0.conj().T @ Q0 @ A, "kernel defect")
    return _kernel_defect(data, P1, Gamma0, Q0, Delta10, C0p, A - Gamma0 @ C0p)


def _kernel_defect(data, P1, Gamma0, Q0, Delta10, C0p, A0p):
    """theta0_defect from the kernel Riccati data: Gamma0, the solution Q0, its
    Schur complement Delta10, gain C0p and closed loop A0p."""
    B1, D1 = data.B1, data.D1
    C1p = D1.conj().T @ C0p + B1.conj().T @ Q0 @ A0p
    # Omega0 = P1 (Q0^{-1} - P1)^{-1} Q0^{-1} = (I - P1 Q0)^{-1} P1, with no inverse of Q0
    Omega0 = herm(np.linalg.solve(np.eye(len(Q0), dtype=complex) - P1 @ Q0, P1))
    DQB = D1 - Gamma0.conj().T @ Q0 @ B1
    M = (np.eye(data.p, dtype=complex)
         - C1p @ Omega0 @ C1p.conj().T
         - DQB.conj().T @ solve_hermitian(Delta10, DQB, "kernel defect")
         - B1.conj().T @ Q0 @ B1)
    return herm(M)


def theta0(M, k):
    """Constant term Theta0 (p x k, k = p - m) of the inner function spanning
    Ker T_G, from its Gram defect M = theta0_defect(...).

    Factorizes the defect, dropping eigenvalues at or below RANK_CUT; a rank
    different from k signals a violated kernel condition or numerical
    breakdown.
    """
    F = minimal_rank_factor(M, RANK_CUT)
    if F.shape[1] != k:
        raise RankDefectError(
            f"kernel defect has rank {F.shape[1]}, expected p - m = {k}; "
            "kernel condition violated or numerical breakdown")
    return F


def _gap_min(Q, H):
    """Smallest eigenvalue of I + Q^1/2 H Q^1/2 (inf when n = 0): for PSD Q, the
    gap Q^-1 + H under congruence, so the same verdict with no inverse.  With
    Q = V W V*, F = V W^1/2 makes F* H F unitarily similar to Q^1/2 H Q^1/2."""
    w, V = np.linalg.eigh(Q)
    F = V * np.sqrt(np.clip(w, 0.0, None))
    return float(np.min(np.linalg.eigvalsh(herm(np.eye(len(Q)) + F.conj().T @ H @ F)),
                        initial=np.inf))


def _inverse(Q, name, margin):
    """Q^{-1} for the gap properties.  A PSD Q with lambda_min(Q) <=
    INVERT_RATIO lambda_max(Q) (relative, as Q scales with the data; Q = 0
    included) is singular to working precision: a NotInvertibleError."""
    w = np.linalg.eigvalsh(Q)
    if len(w) and w[0] <= INVERT_RATIO * w[-1]:
        raise NotInvertibleError(
            f"{name} is singular (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]), as for data with "
            f"unobservable states, so its gap has no inverse form; margins[\"{margin}\"] "
            "decides the gap without one")
    return np.linalg.inv(Q)


def _omega(P1, P2, Q):
    """Omega = (P1 - P2) gap^{-1} Q^{-1} = (I + (P2 - P1) Q)^{-1} (P1 - P2), Hermitian."""
    dP = P1 - P2
    return herm(np.linalg.solve(np.eye(len(Q), dtype=complex) - dP @ Q, dP))


@dataclass
class DerivedMatrices:
    """Everything the parametrization needs, computed once by solve().

    The n x n matrices beyond the Gramians and the two Riccati solutions are
    recomputed on access: the closed loop A0 = A - Gamma C0 (bit for bit the
    Riccati solution's), the gaps and Omega.  The coefficients read the thin
    products solve() formed from them (B = [B1  B2], D = [D1  D2]):

        E0 = (D - Gamma* Q B)* Delta^{-1} (D2 - Gamma* Q B2) + B* Q B2
             + [C1; C2] Omega C2*                        (p + q) x q
        E1 = Theta0* B1* (gap^{-1} - gap0^{-1}) B1 Theta0     (p - m) x (p - m)
        F1 = Q^{-1} gap^{-1} B1 Theta0                        n x (p - m)

    E0 stacks U12(0) Delta0 over Delta0^2 - I, and E1 = Delta1^2 - I.  solve()
    forms them by solves against I + (P2 - P1) Q and I - P1 Q0: only the gap
    and gap0 properties invert Q or Q0, for inspection.
    """

    data: LeechData
    P1: np.ndarray
    P2: np.ndarray
    R0: np.ndarray
    Gamma: np.ndarray
    Q: np.ndarray
    Delta: np.ndarray
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
    def A0(self):
        """The shared state matrix, the pair's closed loop A - Gamma C0: bit for
        bit the Riccati solution's A0."""
        return self.data.A - self.Gamma @ self.C0

    @property
    def gap(self):
        """Q^{-1} + P2 - P1, positive definite iff suboptimal.  Only for an
        invertible Q (unobservable data gives a singular one, a
        NotInvertibleError); solve() never reads it."""
        return herm(_inverse(self.Q, "Q", "gap_min_eig") + self.P2 - self.P1)

    @property
    def gap0(self):
        """Q0^{-1} - P1, for an invertible Q0 only, as gap; solve() never reads it."""
        return herm(_inverse(self.Q0, "Q0", "gap0_min_eig") - self.P1)

    @property
    def Omega(self):
        return _omega(self.P1, self.P2, self.Q)


def delta_matrices(derived):
    """Recompute the PD normalizations (Delta0, Delta1) from derived data.

        Delta0^2 = I_q + C2 Omega C2* + (D2 - Gamma* Q B2)* Delta^{-1} (D2 - Gamma* Q B2)
                       + B2* Q B2
        Delta1^2 = I_{p-m} + Theta0* B1* [ gap^{-1} - gap0^{-1} ] B1 Theta0

    read off the products E0 and E1 that solve() formed.  Both right-hand
    sides must be positive definite, and no eigenvalue of Delta1^2 - I lies
    below -DEFAULT_TOL max(1, ||Delta1^2||); a failure is a
    numerical breakdown (DefinitenessError), since solve() has already
    established suboptimality.
    """
    p, q, k = derived.data.p, derived.data.q, derived.data.p - derived.data.m
    d0sq = herm(np.eye(q, dtype=complex) + derived.E0[p:])
    d1sq = herm(np.eye(k, dtype=complex) + derived.E1)
    if not hermitian_posdef_check(d0sq):
        raise DefinitenessError("Delta0^2 is not positive definite (numerical breakdown)")
    if not hermitian_posdef_check(d1sq):
        raise DefinitenessError("Delta1^2 is not positive definite (numerical breakdown)")
    excess = d1sq - np.eye(k, dtype=complex)
    if excess.size:
        wmin = float(np.linalg.eigvalsh(herm(excess))[0])
        if wmin < -DEFAULT_TOL * max(1.0, float(np.linalg.norm(d1sq))):
            raise DefinitenessError(
                f"Delta1^2 - I has negative eigenvalue {wmin:.3e}; breakdown")
    return sqrtm_posdef(d0sq), sqrtm_posdef(d1sq)


def solve(data):
    """Decide strict suboptimality and return all derived matrices.

    Pipeline: validation, Gramians, Popov data, stabilizing Riccati solutions
    for the pair and for the kernel (one stacked stabilizing_riccati call, one
    doubling loop), the positivity gaps, and from these the
    matrices (C0, C1, C2, B0, Theta0, Delta0, Delta1) and the thin products
    the coefficients are assembled from.  A is certified once, by validate:
    linalg keeps that certificate, keyed on A's bits, and both Gramians and
    both Riccati solves read it; each closed loop A0 is certified on its
    own.  The gaps Q^-1 + P2 - P1 and Q0^-1 - P1 are decided as
    I + Q^1/2 (P2 - P1) Q^1/2 > 0 and I - Q0^1/2 P1 Q0^1/2 > 0, so no
    Riccati solution is inverted.  Raises ValidationError for malformed data
    (a validation report that is not ok).  An InfeasibleError is the
    verdict that the data is not strictly suboptimal: a RiccatiError when
    either Riccati equation has no stabilizing solution, or a pair gap whose
    smallest eigenvalue does not exceed DEFAULT_TOL.  A BreakdownError is a
    numerical failure that says nothing about the data: a Riccati solution
    that fails its postconditions, and after a positive pair gap the kernel
    gap, the rank cut of theta0 (RANK_CUT) or the Delta normalizations.
    Every threshold is a module constant; none is a parameter.
    A Riccati failure keeps its class; its message names the equation, and
    the pair's failure comes first when both fail.
    """
    report = validate(data)
    if not report.ok:
        raise ValidationError("data validation failed: " + report.summary(), report)
    A, B1, B2, C, D1, D2 = data.A, data.B1, data.B2, data.C, data.D1, data.D2

    P1, P2 = gramians(data)
    pop = popov_data(data, P1, P2)

    try:
        ric, ric0 = stabilizing_riccati(A, np.stack([pop.Gamma, pop.Gamma0]),
                                        np.stack([pop.R0, pop.R10]), C)
    except LeechError as exc:  # keeps its class, names the equation
        # a fault of the shared A or C has no equation; the pair meets it first
        what = ("pair", "kernel")[getattr(exc, "equation", 0)]
        raise type(exc)(f"{what} Riccati equation: {exc}") from exc

    Q, Delta, A0, Q0 = ric.Q, ric.Delta, ric.A0, ric0.Q
    gap_min = _gap_min(Q, P2 - P1)
    gap0_min = _gap_min(Q0, -P1)
    log.debug("positivity gaps: pair %.6e, kernel %.6e", gap_min, gap0_min)
    if not gap_min > DEFAULT_TOL:
        raise InfeasibleError(
            f"positivity gap I + Q^1/2 (P2 - P1) Q^1/2 has min eigenvalue {gap_min:.6e}; "
            "the data is not strictly suboptimal")
    if not gap0_min > DEFAULT_TOL:
        raise DefinitenessError(
            f"kernel positivity gap I - Q0^1/2 P1 Q0^1/2 has min eigenvalue {gap0_min:.6e}; "
            "numerical breakdown")

    C0 = ric.gain
    C1 = D1.conj().T @ C0 + B1.conj().T @ Q @ A0
    C2 = D2.conj().T @ C0 + B2.conj().T @ Q @ A0
    OmegaC2 = _omega(P1, P2, Q) @ C2.conj().T
    B = np.hstack([B1, B2])
    DQB = np.hstack([D1, D2]) - pop.Gamma.conj().T @ Q @ B
    DQB2 = solve_hermitian(Delta, DQB[:, data.p:], "B0")
    B0 = B2 - pop.Gamma @ DQB2 + A0 @ OmegaC2
    E0 = DQB.conj().T @ DQB2 + B.conj().T @ Q @ B2 + np.vstack([C1, C2]) @ OmegaC2

    M = _kernel_defect(data, P1, pop.Gamma0, Q0, ric0.Delta, ric0.gain, ric0.A0)
    Theta0 = theta0(M, data.p - data.m)
    w = np.linalg.eigvalsh(M)  # the gap at the rank cut
    # F1 = (gap Q)^{-1} X, so gap^{-1} X = Q F1, and likewise gap0^{-1} X
    X = B1 @ Theta0
    F1 = np.linalg.solve(np.eye(data.n) + (P2 - P1) @ Q, X)
    E1 = X.conj().T @ (Q @ F1 - Q0 @ np.linalg.solve(np.eye(data.n) - P1 @ Q0, X))

    derived = DerivedMatrices(
        data=data, P1=P1, P2=P2, R0=pop.R0, Gamma=pop.Gamma, Q=Q, Delta=Delta,
        Q0=Q0, C0=C0, C1=C1, C2=C2, B0=B0, Theta0=Theta0,
        E0=E0, E1=E1, F1=F1,
        Delta0=None, Delta1=None,
        margins={
            "gap_min_eig": gap_min,
            "gap0_min_eig": gap0_min,
            "riccati_residual": ric.residual,
            "riccati_iterations": ric.iterations,
            "kernel_riccati_residual": ric0.residual,
            "kernel_riccati_iterations": ric0.iterations,
            "theta0_kept_min_eig": float(np.min(w[w > RANK_CUT], initial=np.inf)),
            "theta0_dropped_max_eig": float(np.max(np.abs(w[w <= RANK_CUT]), initial=0.0)),
        },
    )
    derived.Delta0, derived.Delta1 = delta_matrices(derived)
    return derived

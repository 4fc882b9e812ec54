"""Coefficient functions of the linear-fractional parametrization.

From the derived matrices, the four coefficients

    [ U11(z)  U12(z) ]
    [ U21(z)  U22(z) ]

share the single stable state matrix A0, and every solution of the
interpolation problem is X = (U12 + U11 Y)(U22 + U21 Y)^{-1} with Y ranging
over the stable functions of size (p - m) x q with sup norm at most 1.  The
equivalent feedback (Redheffer) form with coefficients Phi_ij is the partial
inverse of the same joint realization, so its four blocks share one state of
dimension n.  A solution X for a parameter Y with s states is formed in
closed form on n + s states.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError, ParameterError, StabilityError
from .linalg import DEFAULT_TOL, INVERT_RATIO, is_schur_stable, spectral_norm
from .realization import NORM_GRID, Realization, circle_values, hinf_norm_estimate, zeros

log = logging.getLogger("leechsolve.coefficients")

# roots of unity sampled by solution_report and j_inner_defect; every
# NORM_GRID // REPORT_POINTS-th point of the norm grid is one of them
REPORT_POINTS = 64


@dataclass
class CoefficientSet:
    """The four coefficient realizations plus their constant ingredients.

    U11: p x (p-m),  U12: p x q,  U21: q x (p-m),  U22: q x q.
    `joint` stacks them into one (p+q) x (p-m+q) realization on the shared
    state, convenient for evaluating all four at once.
    """

    Theta0: np.ndarray
    Delta0: np.ndarray
    Delta1: np.ndarray
    U11: Realization
    U12: Realization
    U21: Realization
    U22: Realization
    joint: Realization

    @property
    def p(self):
        return self.U11.out_dim

    @property
    def q(self):
        return self.U22.out_dim

    @property
    def free_dim(self):
        return self.U11.in_dim


def build_upsilon(derived):
    """Assemble the coefficient realizations from the derived matrices.

    All four blocks share A0.  With gap = Q^{-1} + P2 - P1:

        U11(z) = Theta0 Delta1^{-1} - z C1 (I - z A0)^{-1} Bt,
                 Bt = Q^{-1} gap^{-1} B1 Theta0 Delta1^{-1} = F1 Delta1^{-1}
        U21(z) =                  - z C2 (I - z A0)^{-1} Bt
        U12(z) = U12(0) + z C1 (I - z A0)^{-1} B0 Delta0^{-1},
                 U12(0) = ((D1 - Gamma* Q B1)* Delta^{-1} (D2 - Gamma* Q B2)
                           + B1* Q B2 + C1 Omega C2*) Delta0^{-1}
        U22(z) = Delta0 + z C2 (I - z A0)^{-1} B0 Delta0^{-1}

    Every product with Q, the gaps or Omega was formed by solve() as a solve,
    never an inverse (the first p rows of E0, and F1), so this only scales and
    stacks; the four blocks are sub-functions of `joint`.
    """
    p, q, k = derived.data.p, derived.data.q, derived.data.p - derived.data.m
    d0inv = np.linalg.inv(derived.Delta0)
    d1inv = np.linalg.inv(derived.Delta1)
    joint = Realization(
        derived.A0,
        np.hstack([-derived.F1 @ d1inv, derived.B0 @ d0inv]),
        np.vstack([derived.C1, derived.C2]),
        np.block([
            [derived.Theta0 @ d1inv, derived.E0[:p] @ d0inv],
            [np.zeros((q, k), dtype=complex), derived.Delta0],
        ]),
    )
    return CoefficientSet(derived.Theta0, derived.Delta0, derived.Delta1,
                          *_quadrants(joint, p, k), joint)


def j_inner_defect(coeffs):
    """sup over the REPORT_POINTS roots of unity of || U(z)* J1 U(z) - J2 ||
    with J1 = diag(I_p, -I_q), J2 = diag(I_{p-m}, -I_q), U read by
    circle_values."""
    p, q, k = coeffs.p, coeffs.q, coeffs.free_dim
    J1 = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)
    J2 = np.diag(np.concatenate([np.ones(k), -np.ones(q)])).astype(complex)
    U = circle_values(coeffs.joint, REPORT_POINTS)
    return float(np.max(spectral_norm(np.swapaxes(U.conj(), 1, 2) @ J1 @ U - J2)))


@dataclass
class RedhefferSet:
    """Feedback form of the parametrization:

        X = Phi22 + Phi21 Y (I - Phi11 Y)^{-1} Phi12

    over the same contractive Y.  All four blocks share one state of the
    coefficients' dimension n.  `joint` stacks them as one realization from
    [u; y] to [x; v], where x = X y once the loop u = Y v is closed:

        [ Phi21(z)  Phi22(z) ]
        [ Phi11(z)  Phi12(z) ]
    """

    Phi11: Realization
    Phi12: Realization
    Phi21: Realization
    Phi22: Realization
    joint: Realization

    @property
    def q(self):
        return self.Phi12.in_dim

    @property
    def free_dim(self):
        return self.Phi11.in_dim


def _block(F, rows, cols):
    """The sub-function F[rows, cols] on F's own state."""
    return Realization(F.A, F.B[:, cols], F.C[rows], F.D[rows, cols])


def _quadrants(F, r, c):
    """F's blocks top left, top right, bottom left and bottom right, split
    after its first r outputs and c inputs, on F's own state."""
    return tuple(_block(F, rows, cols) for rows in (slice(None, r), slice(r, None))
                 for cols in (slice(None, c), slice(c, None)))


def _partial_inverse(F, m, what):
    """Invert the channel from F's last m inputs to its last m outputs.

    With inputs [u1; u2] and outputs [y1; y2] of F, the result maps [u1; y2]
    to [y1; u2] on F's state, with state matrix A - B2 D22^{-1} C2.  That
    matrix must be Schur stable; otherwise the channel's inverse is not
    analytic on the closed disc, `what` is not outer, and StabilityError is
    raised.
    """
    r, c = F.out_dim - m, F.in_dim - m
    B1, B2 = F.B[:, :c], F.B[:, c:]
    C1, C2 = F.C[:r], F.C[r:]
    D11, D12, D21, D22 = F.D[:r, :c], F.D[:r, c:], F.D[r:, :c], F.D[r:, c:]
    sv = np.linalg.svd(D22, compute_uv=False)
    if m and sv[-1] <= INVERT_RATIO * max(1.0, sv[0]):
        raise NotInvertibleError(
            f"{what} is not invertible at the origin (sigma_min = {sv[-1]:.3e})")
    Dinv = np.linalg.inv(D22)
    DinvC, DinvD = Dinv @ C2, Dinv @ D21
    A = F.A - B2 @ DinvC
    if not is_schur_stable(A):
        raise StabilityError(f"{what} is not outer (breakdown)")
    return Realization(
        A,
        np.hstack([B1 - B2 @ DinvD, B2 @ Dinv]),
        np.vstack([C1 - D12 @ DinvC, -DinvC]),
        np.block([[D11 - D12 @ DinvD, D12 @ Dinv], [-DinvD, Dinv]]),
    )


def _through_parameter(J, Y):
    """J diag(Y, I) on state n + s: J's first Y.out_dim inputs driven through Y.

    The result's inputs are Y's input followed by J's remaining inputs.
    """
    k, n, s = Y.out_dim, J.state_dim, Y.state_dim
    B1, D1 = J.B[:, :k], J.D[:, :k]
    return Realization(
        np.block([[J.A, B1 @ Y.C], [np.zeros((s, n), dtype=complex), Y.A]]),
        np.block([[B1 @ Y.D, J.B[:, k:]],
                  [Y.B, np.zeros((s, J.in_dim - k), dtype=complex)]]),
        np.hstack([J.C, D1 @ Y.C]),
        np.hstack([D1 @ Y.D, J.D[:, k:]]),
    )


def build_redheffer(coeffs):
    """Convert the coefficient set to feedback form:

        Phi12 = U22^{-1}, Phi11 = -Phi12 U21,
        Phi22 = U12 Phi12, Phi21 = U11 - U12 Phi12 U21,

    by inverting the U22 channel of the joint realization.  The shared state
    matrix is A0 - B0d Delta0^{-1} C2 with B0d = B0 Delta0^{-1}, which must
    be stable (U22 outer).
    """
    joint = _partial_inverse(coeffs.joint, coeffs.q, "U22")
    phi21, phi22, phi11, phi12 = _quadrants(joint, coeffs.p, coeffs.free_dim)
    return RedhefferSet(phi11, phi12, phi21, phi22, joint)


def check_parameter(coeffs, Y):
    """Validate the free parameter against a CoefficientSet or RedhefferSet:
    shape (p-m) x q, stable, sup norm estimate <= 1 + DEFAULT_TOL.  A Y with
    states is certified stable even when it is empty (p = m or q = 0)."""
    if not isinstance(Y, Realization):
        raise ParameterError("free parameter must be a Realization")
    k, q = coeffs.free_dim, coeffs.q
    if (Y.out_dim, Y.in_dim) != (k, q):
        raise ParameterError(
            f"free parameter must be {k}x{q}, got {Y.out_dim}x{Y.in_dim}")
    try:
        norm = hinf_norm_estimate(Y)
    except StabilityError as exc:
        raise ParameterError(f"free parameter must be a stable function: {exc}") from exc
    if norm > 1.0 + DEFAULT_TOL:
        raise ParameterError(
            f"free parameter exceeds the unit ball: estimated sup norm {norm:.6e}")
    return norm


def apply_lft(coeffs, Y):
    """Solution X = (U12 + U11 Y)(U22 + U21 Y)^{-1} for a contractive Y.

    With T = joint [Y; I] on n + s states (s the state dimension of Y), split
    into numerator rows (Cn, Dn) and denominator rows (Cd, Dd),

        X = (A - B Dd^{-1} Cd, B Dd^{-1}, Cn - Dn Dd^{-1} Cd, Dn Dd^{-1}).

    Y must pass check_parameter.  The denominator is invertible at the origin
    by construction (Dd = (U22 + U21 Y)(0) = Delta0) and outer for admissible
    Y; the state matrix of X is checked to be stable and the map fails loudly
    otherwise.
    """
    check_parameter(coeffs, Y)
    # T = joint [Y; I] maps y to [numerator y; denominator y]
    S = _through_parameter(coeffs.joint, Y)
    q = coeffs.q
    T = Realization(S.A, S.B[:, :q] + S.B[:, q:], S.C, S.D[:, :q] + S.D[:, q:])
    X = _partial_inverse(T, q, "denominator U22 + U21 Y")
    return _block(X, slice(None, coeffs.p), slice(None))


def central_solution(coeffs):
    """The solution at Y = 0, namely X = U12 U22^{-1}."""
    return apply_lft(coeffs, zeros(coeffs.free_dim, coeffs.q))


def apply_redheffer(phi, Y):
    """Evaluate the feedback form X = Phi22 + Phi21 Y (I - Phi11 Y)^{-1} Phi12
    in closed form on n + s states (s the state dimension of Y), for a Y
    that passes check_parameter."""
    check_parameter(phi, Y)
    q = phi.q
    # E maps [y; v] to [Phi22 y + Phi21 Y v; Phi12 y + Phi11 Y v - v]; closing
    # the loop sets the second output to 0
    S = _through_parameter(phi.joint, Y)
    p = phi.Phi21.out_dim
    loop = np.vstack([np.zeros((p, q), dtype=complex), np.eye(q, dtype=complex)])
    E = Realization(S.A, np.hstack([S.B[:, q:], S.B[:, :q]]), S.C,
                    np.hstack([S.D[:, q:], S.D[:, :q] - loop]))
    X = _partial_inverse(E, q, "feedback loop I - Phi11 Y")
    return _block(X, slice(None, p), slice(None, q))


def solution_report(derived, coeffs, X):
    """Verification appendix for a computed solution: interpolation residual
    and indefinite-metric defect of the coefficients at the REPORT_POINTS
    roots of unity, the sup-norm estimate of X (hinf_norm_estimate), and the
    margins of solve, an empty extremum (inf) as None so the artifact is
    strict JSON.  X is read once, on the norm's NORM_GRID roots of unity,
    and the residual takes every (NORM_GRID // REPORT_POINTS)-th of them;
    [G  K] and the coefficients are read by circle_values too."""
    grid = circle_values(X, NORM_GRID)
    GK = circle_values(derived.data.joint(), REPORT_POINTS)  # [G(z)  K(z)], one FFT
    p = derived.data.p
    Xz = grid[::NORM_GRID // REPORT_POINTS]  # X at the REPORT_POINTS roots of unity
    residual = float(np.max(spectral_norm(GK[:, :, :p] @ Xz - GK[:, :, p:])))
    norm = hinf_norm_estimate(X, grid)
    defect = j_inner_defect(coeffs)
    return {
        "interpolation_residual": residual,
        "norm_estimate": norm,
        "norm_grid": NORM_GRID,
        "coefficient_metric_defect": defect,
        "circle_points": REPORT_POINTS,
        "margins": {key: float(val) if np.isfinite(val) else None
                    for key, val in derived.margins.items()},
    }

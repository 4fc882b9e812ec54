"""Acceptance gate.

Each test covers one numbered acceptance criterion and prints exactly one
verdict line of the form

    [criterion NN] <label>: PASS|FAIL (<measured quantities>)

before asserting, so the verdict is visible in the report either way.
"""

import numpy as np
import pytest

from leechsolve.coefficients import (
    apply_lft,
    apply_redheffer,
    build_redheffer,
    build_upsilon,
    central_solution,
    j_inner_defect,
)
from leechsolve.core import gramians, popov_data, solve
from leechsolve.errors import InfeasibleError, RiccatiError
from leechsolve.generate import random_contraction, random_problem
from leechsolve.linalg import herm
from leechsolve.realization import evaluate, hinf_norm_estimate, inverse, product
from leechsolve.riccati import stabilizing_riccati
from leechsolve.toeplitz import (
    oracle_deltas,
    oracle_theta,
    oracle_upsilon,
    theta0_defect_oracle,
)
from tests.reference import (
    delta1_appendix_defect,
    g_of,
    gram_riccati_defect,
    identity_gram_inverse,
    identity_kernel_resolvent,
    identity_lambda_gram,
    identity_resolvent_compression,
    identity_resolvent_shift,
    identity_shift_compression,
    hermitian_posdef_check,
    k_of,
    theta_sample,
)
from tests.conftest import circle_points, fixed_point_riccati, interior_points

UPSILON_BLOCKS = ("U11", "U12", "U21", "U22")


def _report(num, label, ok, measured):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({measured})")


def _upsilon_gap(item, ctx, zs):
    out = oracle_upsilon(ctx, item.derived.Theta0, zs)
    worst = 0.0
    for name in UPSILON_BLOCKS:
        F = getattr(item.coeffs, name)
        for sample, z in zip(out[name], zs):
            worst = max(worst, float(np.linalg.norm(sample - evaluate(F, z))))
    return worst, out


def test_criterion_01_riccati_postconditions_and_restart():
    worst_resid = 0.0
    worst_radius = 0.0
    worst_reference = 0.0
    count = 0
    for seed in range(1001, 1026):
        data, _ = random_problem(seed)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        for R, G in ((pop.R0, pop.Gamma), (pop.R10, pop.Gamma0)):
            (sol,) = stabilizing_riccati(data.A, G[None], R[None], data.C)
            W = data.C - G.conj().T @ sol.Q @ data.A
            recon = (data.A.conj().T @ sol.Q @ data.A
                     + W.conj().T @ np.linalg.solve(sol.Delta, W))
            scale = 1.0 + float(np.linalg.norm(sol.Q))
            worst_resid = max(worst_resid, float(np.linalg.norm(sol.Q - recon)) / scale)
            assert hermitian_posdef_check(herm(sol.Delta))
            worst_radius = max(worst_radius,
                               float(np.max(np.abs(np.linalg.eigvals(sol.A0)))))
            ref = fixed_point_riccati(data.A, G, R, data.C)
            worst_reference = max(worst_reference,
                                  float(np.linalg.norm(ref - sol.Q)) / scale)
            count += 1
    ok = (count == 50 and worst_resid <= 1e-9
          and worst_radius < 1.0 and worst_reference <= 1e-12)
    _report(1, "stabilizing solutions on 50 random instances", ok,
            f"max scaled residual {worst_resid:.3e}, max closed-loop radius "
            f"{worst_radius:.4f}, max scaled distance to the fixed-point "
            f"reference {worst_reference:.3e}")
    assert ok


def test_criterion_02_verdict_matches_operator_sign(verdict_battery, oracle_cache):
    agreements = 0
    margins = []
    for item in verdict_battery:
        margin = oracle_cache(item.data, 200).margin
        margins.append(margin)
        try:
            solve(item.data)
            verdict_feasible = True
        except (InfeasibleError, RiccatiError):
            verdict_feasible = False
        if verdict_feasible == (margin > 0.0) == item.feasible:
            agreements += 1
    ok = agreements == len(verdict_battery) == 30
    _report(2, "feasibility verdict against truncated positivity margin", ok,
            f"{agreements}/{len(verdict_battery)} agree; margin range "
            f"[{min(margins):.3e}, {max(margins):.3e}]")
    assert ok


def test_criterion_03_coefficient_convergence(battery, oracle_cache):
    zs = list(interior_points(16))
    worst_fine = 0.0
    worst_ratio = np.inf
    for item in battery:
        coarse, _ = _upsilon_gap(item, oracle_cache(item.data, 50), zs)
        fine, _ = _upsilon_gap(item, oracle_cache(item.data, 200), zs)
        worst_fine = max(worst_fine, fine)
        worst_ratio = min(worst_ratio, coarse / max(fine, 1e-300))
    ok = worst_fine <= 1e-5 and worst_ratio >= 10.0
    _report(3, "coefficient samples against the operator oracle", ok,
            f"sup difference {worst_fine:.3e} at the fine window, worst "
            f"coarse/fine improvement factor {worst_ratio:.1f}")
    assert ok


def test_criterion_04_normalization_agreement(battery, oracle_cache):
    worst = 0.0
    for item in battery:
        ctx = oracle_cache(item.data, 200)
        theta = oracle_theta(ctx, item.derived.Theta0)
        D0, D1 = oracle_deltas(ctx, theta)
        worst = max(worst, float(np.linalg.norm(D0 - item.derived.Delta0)),
                    float(np.linalg.norm(D1 - item.derived.Delta1)))
    ok = worst <= 1e-6
    _report(4, "normalizations against the operator oracle", ok,
            f"max difference {worst:.3e}")
    assert ok


def test_criterion_05_interpolation_of_coefficient_columns(battery):
    pts = list(circle_points(64)) + list(interior_points(32))
    worst = 0.0
    for item in battery:
        G, K = g_of(item.data), k_of(item.data)
        c = item.coeffs
        for z in pts:
            Gz, Kz = evaluate(G, z), evaluate(K, z)
            worst = max(worst, float(np.linalg.norm(
                Gz @ evaluate(c.U11, z) - Kz @ evaluate(c.U21, z))))
            worst = max(worst, float(np.linalg.norm(
                Gz @ evaluate(c.U12, z) - Kz @ evaluate(c.U22, z))))
    ok = worst <= 1e-8
    _report(5, "numerator columns interpolate through the coefficients", ok,
            f"max residual {worst:.3e} over 64 circle and 32 interior points")
    assert ok


def test_criterion_06_indefinite_metric_preservation(battery):
    worst = max(j_inner_defect(item.coeffs) for item in battery)
    ok = worst <= 1e-7
    _report(6, "coefficient matrix preserves the indefinite metric", ok,
            f"max defect {worst:.3e} over 64 circle points")
    assert ok


def _parameters_for(item, count=10):
    k, q = item.coeffs.free_dim, item.coeffs.q
    out = []
    for j in range(count):
        out.append(random_contraction(1000 * item.seed + j, k, q,
                                      norm_bound=0.99,
                                      constant_only=(j % 2 == 0)))
    return out


def test_criterion_07_parametrized_solutions(battery):
    grid = list(circle_points(64))
    worst_resid = 0.0
    worst_norm = 0.0
    worst_central = 0.0
    for item in battery:
        G, K = g_of(item.data), k_of(item.data)
        for Y in _parameters_for(item):
            X = apply_lft(item.coeffs, Y)
            for z in grid:
                worst_resid = max(worst_resid, float(np.linalg.norm(
                    evaluate(G, z) @ evaluate(X, z) - evaluate(K, z))))
            worst_norm = max(worst_norm, hinf_norm_estimate(X))
        X0 = central_solution(item.coeffs)
        Xq = product(item.coeffs.U12, inverse(item.coeffs.U22))
        for z in grid[::4]:
            worst_central = max(worst_central, float(np.linalg.norm(
                evaluate(X0, z) - evaluate(Xq, z))))
    ok = (worst_resid <= 1e-7 and worst_norm <= 1.0 + 1e-7
          and worst_central <= 1e-10)
    _report(7, "ten admissible parameters per instance", ok,
            f"max interpolation residual {worst_resid:.3e}, max solution norm "
            f"{worst_norm:.9f}, central-vs-quotient difference {worst_central:.3e}")
    assert ok


def test_criterion_08_feedback_form_equivalence(battery):
    pts = list(circle_points(16)) + list(interior_points(8))
    worst = 0.0
    for item in battery:
        phi = build_redheffer(item.coeffs)
        for Y in _parameters_for(item):
            X1 = apply_lft(item.coeffs, Y)
            X2 = apply_redheffer(phi, Y)
            for z in pts:
                worst = max(worst, float(np.linalg.norm(
                    evaluate(X1, z) - evaluate(X2, z))))
    ok = worst <= 1e-8
    _report(8, "feedback form agrees with the fractional form", ok,
            f"max pointwise difference {worst:.3e} over all test parameters")
    assert ok


def test_criterion_09_degenerate_numerators(
        kernel_case, corona_case, corona_square_case, oracle_cache):
    zs = list(interior_points(16))
    c = kernel_case.coeffs
    q, k = c.q, c.free_dim

    kernel_worst = 0.0
    for z in zs:
        kernel_worst = max(
            kernel_worst,
            float(np.linalg.norm(evaluate(c.U12, z))),
            float(np.linalg.norm(evaluate(c.U21, z))),
            float(np.linalg.norm(evaluate(c.U22, z) - np.eye(q))))
    kernel_worst = max(kernel_worst,
                       float(np.linalg.norm(c.Delta0 - np.eye(q))),
                       float(np.linalg.norm(c.Delta1 - np.eye(k))))

    ctx = oracle_cache(kernel_case.data, 300)
    theta = oracle_theta(ctx, kernel_case.derived.Theta0)
    theta_worst = max(float(np.linalg.norm(evaluate(c.U11, z) - theta_sample(theta, z)))
                      for z in zs)

    dsq = corona_square_case.derived
    square_worst = max(float(np.linalg.norm(dsq.C2 - dsq.C0)),
                       float(np.linalg.norm(
                           dsq.Delta1 - np.eye(dsq.data.p - dsq.data.m))))

    dw = corona_case.derived
    wide_c_gap = float(np.linalg.norm(dw.C2 - dw.C0))
    excess = herm(dw.Delta1 @ dw.Delta1
                  - np.eye(dw.data.p - dw.data.m, dtype=complex))
    excess_min = float(np.linalg.eigvalsh(excess)[0])
    ctxw = oracle_cache(corona_case.data, 200)
    thetaw = oracle_theta(ctxw, dw.Theta0)
    _, D1w = oracle_deltas(ctxw, thetaw)
    wide_oracle_gap = float(np.linalg.norm(D1w - dw.Delta1))

    ok = (kernel_worst <= 1e-12 and theta_worst <= 1e-6
          and square_worst <= 1e-10 and wide_c_gap <= 1e-10
          and excess_min > 0.0 and wide_oracle_gap <= 1e-6)
    _report(9, "zero and corona numerators", ok,
            f"zero-numerator specialization {kernel_worst:.3e}, kernel column vs "
            f"oracle {theta_worst:.3e}; square corona (p=m) identity normalization "
            f"{square_worst:.3e}; wide corona (p>m) C2-C0 {wide_c_gap:.3e} with "
            f"strictly larger normalization (min excess eigenvalue {excess_min:.3e}) "
            f"confirmed by the oracle to {wide_oracle_gap:.3e}")
    assert ok


def test_criterion_10_kernel_defect_and_innerness(battery, oracle_cache):
    worst_defect = 0.0
    worst_inner = 0.0
    boundary = list(circle_points(16))
    for item in battery:
        M_ss = item.derived.M
        M_or = theta0_defect_oracle(oracle_cache(item.data, 200))
        worst_defect = max(worst_defect, float(np.linalg.norm(M_ss - M_or)))
        theta = oracle_theta(oracle_cache(item.data, 300), item.derived.Theta0)
        eye = np.eye(item.data.p - item.data.m)
        for z in boundary:
            T = theta_sample(theta, z)
            worst_inner = max(worst_inner,
                              float(np.linalg.norm(T.conj().T @ T - eye)))
    ok = worst_defect <= 1e-6 and worst_inner <= 1e-5
    _report(10, "kernel defect agreement and boundary inner-ness", ok,
            f"max defect difference {worst_defect:.3e}, max inner-ness defect "
            f"{worst_inner:.3e} on the circle")
    assert ok


def test_criterion_11_operator_identities(battery, oracle_cache):
    exact_ctx = oracle_cache(battery[0].data, 60)
    decay_item = battery[0]
    decay_ctx = oracle_cache(decay_item.data, 200)
    d = decay_item.derived
    theta = oracle_theta(decay_ctx, d.Theta0)
    rng = np.random.default_rng(17)
    Nm = exact_ctx.N * exact_ctx.m
    Xrand = rng.standard_normal((Nm, Nm)) + 1j * rng.standard_normal((Nm, Nm))
    G, K = g_of(decay_item.data), k_of(decay_item.data)
    zin = 0.15 + 0.4j

    entries = [
        ("gram inverse (full window)", identity_gram_inverse(exact_ctx), 1e-12),
        ("coupling times gram inverse (full window)",
         identity_lambda_gram(exact_ctx), 1e-12),
        ("shift compression of the numerator (leading N-1 blocks)",
         identity_shift_compression(exact_ctx, which="g"), 1e-12),
        ("shift compression of the right side (leading N-1 blocks)",
         identity_shift_compression(exact_ctx, which="k"), 1e-12),
        ("resolvent shift (leading N-1 blocks)",
         identity_resolvent_shift(exact_ctx, 0.45 - 0.3j), 1e-12),
        ("resolvent compression (leading half, random operator)",
         identity_resolvent_compression(exact_ctx, Xrand, zin), 1e-12),
        ("kernel resolvent (leading half)",
         identity_kernel_resolvent(decay_ctx, zin, evaluate(G, zin),
                                   evaluate(K, zin)), 1e-8),
        ("lifting normalization (full window)",
         delta1_appendix_defect(decay_ctx, theta), 1e-8),
        ("observability factorization of the Riccati solution",
         gram_riccati_defect(decay_ctx, d.R0, d.Gamma, d.Q), 1e-8),
    ]
    ok = all(value <= tol for _, value, tol in entries)
    detail = "; ".join(f"{label} {value:.1e}" for label, value, tol in entries)
    _report(11, "operator identities with documented window exclusions", ok, detail)
    for label, value, tol in entries:
        assert value <= tol, f"{label}: {value:.3e} > {tol:.1e}"


# the converse of the theorem, pointwise on CONVERSE_POINTS circle points:
# relative consistency residual of a solution, the least a control (no
# solution) may reach, negative Fourier coefficients of an analytic Y
# relative to its largest, and the round trip LFT(Y) = X'
CONVERSE_POINTS = 512
CONVERSE_TOL, CONTROL_MIN, ANALYTIC_TOL, ROUND_TRIP_TOL = 1e-12, 1e-3, 1e-8, 1e-12


def _kernel_vector(G):
    """N(z) with G(z) N(z) = 0: the signed m x m minors of the first m + 1
    columns of G (Cramer), zero below them; analytic because G is."""
    m, p = G.shape[1:]
    N = np.zeros((len(G), p, 1), dtype=complex)
    for j in range(m + 1):
        N[:, j, 0] = (-1) ** j * np.linalg.det(np.delete(G[:, :, :m + 1], j, axis=2))
    return N


def _parameter_of(U, X):
    """Y with (U11 - X U21) Y = X U22 - U12 by least squares at each point,
    and the largest relative residual over the points."""
    U11, U12, U21, U22 = U
    L, R = U11 - X @ U21, X @ U22 - U12
    Y = np.linalg.pinv(L) @ R
    residual = _pointwise_norm(L @ Y - R) / (_pointwise_norm(L) * _pointwise_norm(Y)
                                             + _pointwise_norm(R))
    return Y, float(residual.max())


def _pointwise_norm(M):
    """Frobenius norm of each matrix of a stack over the points."""
    return np.linalg.norm(M, axis=(1, 2))


def test_criterion_12_every_solution_is_in_the_range(battery):
    # X' = X_c + eps N Z solves G X = K for every stable row Z, and no
    # coefficient enters it; the parameter it is the LFT of must exist, be
    # analytic and be contractive exactly when X' is.  The control
    # X_c + eps e_1 Z solves nothing, so its equation is inconsistent.  On
    # generator draws 0..11 eps is 0.05 and 0.6; on the battery, whose N is
    # larger, eps = delta / max |N Z| over the points, with delta =
    # (1 - |X_c|) / 2, which keeps X' contractive, and delta = 1.5 + |X_c|,
    # which does not, at any |N|
    zs = circle_points(CONVERSE_POINTS)
    negative = slice(CONVERSE_POINTS // 2 + 1, None)  # Fourier indices -255 .. -1
    worst = {"consistency": 0.0, "analytic": 0.0, "round trip": 0.0}
    control, mismatched, contractive = np.inf, [], {"draws": 0, "battery": 0}
    cases = [("draws", seed, random_problem(seed)[0], None) for seed in range(12)]
    cases += [("battery", item.seed, item.data, item.coeffs) for item in battery]
    for group, seed, data, coeffs in cases:
        if coeffs is None:
            coeffs = build_upsilon(solve(data))
        p, k = coeffs.p, coeffs.free_dim
        joint = evaluate(coeffs.joint, zs)
        U = (joint[:, :p, :k], joint[:, :p, k:], joint[:, p:, :k], joint[:, p:, k:])
        Xc = evaluate(central_solution(coeffs), zs)
        N = _kernel_vector(evaluate(g_of(data), zs))
        Z = evaluate(random_contraction(seed, 1, data.q), zs)
        e1 = np.zeros_like(N)
        e1[:, 0] = 1.0
        epsilons = (0.05, 0.6)
        if group == "battery":
            xc = float(np.max(np.linalg.norm(Xc, 2, axis=(1, 2))))
            nz = float(np.max(np.linalg.norm(N @ Z, 2, axis=(1, 2))))
            epsilons = ((1.0 - xc) / 2 / nz, (1.5 + xc) / nz)
        for eps in epsilons:
            X = Xc + eps * N @ Z
            Y, residual = _parameter_of(U, X)
            worst["consistency"] = max(worst["consistency"], residual)
            control = min(control, _parameter_of(U, Xc + eps * e1 @ Z)[1])
            X_norm = float(np.max(np.linalg.norm(X, 2, axis=(1, 2))))
            Y_norm = float(np.max(np.linalg.norm(Y, 2, axis=(1, 2))))
            if (X_norm < 1.0) != (Y_norm < 1.0):
                mismatched.append((seed, eps, X_norm, Y_norm))
            if X_norm < 1.0:
                # a parameter past the unit ball need not be analytic
                contractive[group] += 1
                coefficients = _pointwise_norm(np.fft.fft(Y, axis=0))
                worst["analytic"] = max(worst["analytic"],
                                        float(coefficients[negative].max() / coefficients.max()))
            U11, U12, U21, U22 = U
            X_back = (U11 @ Y + U12) @ np.linalg.inv(U21 @ Y + U22)
            worst["round trip"] = max(worst["round trip"], float(
                np.max(_pointwise_norm(X_back - X)) / max(1.0, X_norm)))
    ok = (worst["consistency"] <= CONVERSE_TOL and control >= CONTROL_MIN
          and worst["analytic"] <= ANALYTIC_TOL and worst["round trip"] <= ROUND_TRIP_TOL
          and not mismatched  # each side of the iff is met
          and 12 <= contractive["draws"] < 24 and contractive["battery"] == 10)
    _report(12, "every solution is the image of a parameter", ok,
            f"consistency {worst['consistency']:.1e} against control {control:.1e}; "
            f"negative Fourier coefficients {worst['analytic']:.1e} on {contractive} "
            f"contractive solutions; contractive iff the parameter is, mismatches "
            f"{mismatched}; round trip {worst['round trip']:.1e}")
    assert ok

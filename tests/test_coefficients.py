"""Coefficient realizations, the linear-fractional map, and the feedback form."""

import dataclasses

import numpy as np
import pytest

from leechsolve import coefficients, realization
from leechsolve.coefficients import (
    apply_lft,
    apply_redheffer,
    build_redheffer,
    build_upsilon,
    central_solution,
    check_parameter,
    j_inner_defect,
    solution_report,
)
from leechsolve.coefficients import CoefficientSet
from leechsolve.core import LeechData, solve
from leechsolve.errors import ParameterError, StabilityError
from leechsolve.generate import random_contraction, random_problem
from leechsolve.linalg import spectral_norm
from leechsolve.realization import (
    Realization,
    constant,
    evaluate,
    hinf_norm_estimate,
    inverse,
    product,
    zeros,
)
from leechsolve.toeplitz import truncate
from tests.conftest import circle_points, interior_points, square_numerator_data
from tests.reference import g_of, k_of

GRID = list(circle_points(16)) + list(interior_points(16))


class TestBuildUpsilon:
    def test_block_shapes(self, battery):
        c = battery[0].coeffs
        data = battery[0].data
        p, q, k = data.p, data.q, data.p - data.m
        assert (c.U11.out_dim, c.U11.in_dim) == (p, k)
        assert (c.U12.out_dim, c.U12.in_dim) == (p, q)
        assert (c.U21.out_dim, c.U21.in_dim) == (q, k)
        assert (c.U22.out_dim, c.U22.in_dim) == (q, q)
        assert (c.joint.out_dim, c.joint.in_dim) == (p + q, k + q)
        assert c.free_dim == k

    def test_values_at_origin(self, battery):
        c = battery[0].coeffs
        np.testing.assert_allclose(evaluate(c.U22, 0.0), c.Delta0, atol=0.0)
        np.testing.assert_allclose(
            evaluate(c.U21, 0.0), np.zeros((c.q, c.free_dim)), atol=0.0)
        np.testing.assert_allclose(
            evaluate(c.U11, 0.0), c.Theta0 @ np.linalg.inv(c.Delta1), atol=1e-13)

    def test_joint_matches_blocks(self, battery):
        c = battery[1].coeffs
        p, k = c.p, c.free_dim
        for z in GRID[:8]:
            J = evaluate(c.joint, z)
            np.testing.assert_allclose(J[:p, :k], evaluate(c.U11, z), atol=1e-12)
            np.testing.assert_allclose(J[:p, k:], evaluate(c.U12, z), atol=1e-12)
            np.testing.assert_allclose(J[p:, :k], evaluate(c.U21, z), atol=1e-12)
            np.testing.assert_allclose(J[p:, k:], evaluate(c.U22, z), atol=1e-12)

    def test_zero_k_collapses(self, kernel_case):
        c = kernel_case.coeffs
        q = c.q
        for z in GRID[:8]:
            np.testing.assert_allclose(evaluate(c.U12, z), np.zeros((c.p, q)), atol=0.0)
            np.testing.assert_allclose(evaluate(c.U21, z),
                                       np.zeros((q, c.free_dim)), atol=0.0)
            np.testing.assert_allclose(evaluate(c.U22, z), np.eye(q), atol=1e-12)


class TestIndefiniteMetric:
    def test_defect_small_on_battery(self, battery):
        for item in battery[:3]:
            assert j_inner_defect(item.coeffs) <= 1e-7

    def test_kernel_column_is_inner(self, kernel_case):
        # with K = 0 the joint function is block diagonal and the defect
        # reduces to inner-ness of the kernel column
        assert j_inner_defect(kernel_case.coeffs) <= 1e-8


class TestRedheffer:
    def test_zero_k_feedback_blocks(self, kernel_case):
        phi = build_redheffer(kernel_case.coeffs)
        c = kernel_case.coeffs
        for z in GRID[:8]:
            np.testing.assert_allclose(
                evaluate(phi.Phi11, z), np.zeros((c.q, c.free_dim)), atol=1e-12)
            np.testing.assert_allclose(evaluate(phi.Phi12, z), np.eye(c.q), atol=1e-12)
            np.testing.assert_allclose(
                evaluate(phi.Phi22, z), np.zeros((c.p, c.q)), atol=1e-12)
            np.testing.assert_allclose(
                evaluate(phi.Phi21, z), evaluate(c.U11, z), atol=1e-11)

    def test_agrees_with_fractional_form(self, battery):
        item = battery[2]
        c = item.coeffs
        phi = build_redheffer(c)
        for pseed in (3, 4):
            Y = random_contraction(pseed, c.free_dim, c.q)
            X1 = apply_lft(c, Y)
            X2 = apply_redheffer(phi, Y)
            for z in GRID:
                np.testing.assert_allclose(
                    evaluate(X1, z), evaluate(X2, z), atol=1e-8)

    @pytest.mark.parametrize("kind", ["norm", "unstable"])
    def test_feedback_form_enforces_the_parameter_contract(self, kind):
        # the same contract apply_lft enforces: a Y outside the unit ball or
        # not stable is a ParameterError, not a solution or a breakdown
        c = build_upsilon(solve(random_problem(5)[0]))
        phi = build_redheffer(c)
        assert (phi.free_dim, phi.q) == (c.free_dim, c.q)
        k, q = c.free_dim, c.q
        if kind == "norm":
            Y = constant(1.5 * np.eye(k, q))
        else:
            Y = Realization(1.5 * np.eye(1), np.ones((1, q)),
                            0.01 * np.ones((k, 1)), np.zeros((k, q)))
        with pytest.raises(ParameterError):
            apply_lft(c, Y)
        with pytest.raises(ParameterError):
            apply_redheffer(phi, Y)


class TestParameterChecks:
    def test_wrong_shape(self, battery):
        c = battery[0].coeffs
        with pytest.raises(ParameterError):
            check_parameter(c, zeros(c.free_dim + 1, c.q))

    def test_not_a_realization(self, battery):
        with pytest.raises(ParameterError):
            check_parameter(battery[0].coeffs, np.zeros((1, 1)))

    def test_norm_violation(self, battery):
        c = battery[0].coeffs
        Y = constant(1.2 * np.eye(c.free_dim, c.q))
        with pytest.raises(ParameterError):
            check_parameter(c, Y)

    def test_unstable_parameter(self, battery):
        c = battery[0].coeffs
        n = c.free_dim
        Y = Realization(1.5 * np.eye(1), np.ones((1, c.q)),
                        np.ones((n, 1)), np.zeros((n, c.q)))
        with pytest.raises(ParameterError):
            check_parameter(c, Y)

    def test_a_stable_draw_given_an_unstable_a_is_rejected(self):
        # a realization carries no stability claim that could outlive a change
        # of A: every consumer certifies the A it is handed
        c = build_upsilon(solve(random_problem(11)[0]))
        Y = dataclasses.replace(random_contraction(11, c.free_dim, c.q), A=np.diag([1.5, 0.2]))
        with pytest.raises(ParameterError):
            check_parameter(c, Y)
        with pytest.raises(ParameterError):
            apply_lft(c, Y)
        with pytest.raises(StabilityError):
            truncate(dataclasses.replace(random_contraction(11, 2, 3), A=np.diag([1.5, 0.2])), 8)

    def test_unstable_parameter_with_no_inputs_to_x_is_rejected(self):
        # p = m: Y is 0 x q, so its norm is 0, yet its states must be stable
        data = square_numerator_data()
        c = build_upsilon(solve(data))
        assert c.free_dim == 0
        Y = Realization([[1.5]], np.zeros((1, c.q)), np.zeros((0, 1)), np.zeros((0, c.q)))
        with pytest.raises(ParameterError, match="stable"):
            check_parameter(c, Y)
        with pytest.raises(ParameterError):
            apply_lft(c, Y)
        stable = dataclasses.replace(Y, A=np.array([[0.5]]))
        assert check_parameter(c, stable) == 0.0


class TestApply:
    def test_central_is_lft_at_zero(self, battery):
        item = battery[3]
        X0 = central_solution(item.coeffs)
        X1 = apply_lft(item.coeffs, zeros(item.coeffs.free_dim, item.coeffs.q))
        for z in GRID[:8]:
            np.testing.assert_allclose(evaluate(X0, z), evaluate(X1, z), atol=0.0)

    def test_central_matches_quotient(self, battery):
        item = battery[3]
        c = item.coeffs
        X0 = central_solution(c)
        Xq = product(c.U12, inverse(c.U22))
        for z in GRID:
            np.testing.assert_allclose(evaluate(X0, z), evaluate(Xq, z), atol=1e-10)

    def test_interpolation_and_contractivity(self, battery):
        item = battery[4]
        data, c = item.data, item.coeffs
        G, K = g_of(data), k_of(data)
        for pseed in (5, 6):
            Y = random_contraction(pseed, c.free_dim, c.q)
            X = apply_lft(c, Y)
            for z in circle_points(32):
                res = evaluate(G, z) @ evaluate(X, z) - evaluate(K, z)
                assert np.linalg.norm(res, 2) <= 1e-7
            assert hinf_norm_estimate(X) <= 1.0 + 1e-7

    def test_zero_k_solution_is_theta_times_parameter(self, kernel_case):
        c = kernel_case.coeffs
        Y = random_contraction(8, c.free_dim, c.q, constant_only=True)
        X = apply_lft(c, Y)
        ref = product(c.U11, Y)
        for z in GRID[:12]:
            np.testing.assert_allclose(evaluate(X, z), evaluate(ref, z), atol=1e-12)

    def test_zero_k_central_is_zero(self, kernel_case):
        X0 = central_solution(kernel_case.coeffs)
        for z in GRID[:8]:
            np.testing.assert_allclose(
                evaluate(X0, z), np.zeros((kernel_case.coeffs.p,
                                           kernel_case.coeffs.q)), atol=0.0)

    def test_proportional_numerator(self):
        # K = 0.9 G is solvable with plenty of margin
        base, _ = random_problem(60)
        data = LeechData(base.A, base.B1, 0.9 * base.B1, base.C,
                         base.D1, 0.9 * base.D1)
        derived = solve(data)
        c = build_upsilon(derived)
        X0 = central_solution(c)
        G, K = g_of(data), k_of(data)
        for z in circle_points(32):
            res = evaluate(G, z) @ evaluate(X0, z) - evaluate(K, z)
            assert np.linalg.norm(res, 2) <= 1e-8
        assert hinf_norm_estimate(X0) <= 1.0


class TestSolutionReport:
    def test_report_contents(self, battery):
        item = battery[5]
        X0 = central_solution(item.coeffs)
        rep = solution_report(item.derived, item.coeffs, X0)
        assert rep["interpolation_residual"] <= 1e-8
        assert rep["norm_estimate"] <= 1.0 + 1e-7
        assert rep["coefficient_metric_defect"] <= 1e-7
        assert rep["margins"]["gap_min_eig"] > 0.0
        assert rep["norm_grid"] == 512 and rep["circle_points"] == 64

    def test_g_and_k_are_evaluated_together(self, battery, monkeypatch):
        # the residual G X - K reads [G  K] from one circle_values on data.A,
        # and agrees with per-point evaluate
        item = battery[5]
        X0 = central_solution(item.coeffs)
        real = coefficients.circle_values
        state_matrices = []

        def recording(F, L):
            state_matrices.append(F.A)
            return real(F, L)

        monkeypatch.setattr(coefficients, "circle_values", recording)
        rep = solution_report(item.derived, item.coeffs, X0)
        A = item.data.A
        assert sum(M.shape == A.shape and np.array_equal(M, A) for M in state_matrices) == 1
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        G, K = g_of(item.data), k_of(item.data)
        ref = max(spectral_norm(evaluate(G, z) @ evaluate(X0, z) - evaluate(K, z)) for z in zs)
        assert abs(rep["interpolation_residual"] - ref) <= 1e-12

    def test_each_function_is_read_once(self, battery, monkeypatch):
        # X on the norm grid, [G  K] and the coefficients on the report grid;
        # evaluate serves only the norm estimate's four zooms of 17 points
        item = battery[2]
        X0 = central_solution(item.coeffs)
        grids, points = [], []
        real_grid, real_evaluate = coefficients.circle_values, realization.evaluate

        def grid(F, L):
            grids.append((F, L))
            return real_grid(F, L)

        def evaluate_counted(F, z):
            points.append(np.size(z))
            return real_evaluate(F, z)

        monkeypatch.setattr(coefficients, "circle_values", grid)
        monkeypatch.setattr(realization, "evaluate", evaluate_counted)
        solution_report(item.derived, item.coeffs, X0)
        assert [(F is X0, L) for F, L in grids] == [(True, 512), (False, 64), (False, 64)]
        assert grids[2][0] is item.coeffs.joint
        assert points == [17] * 4

    def test_metric_defect_matches_per_point_evaluate(self, battery):
        for item in battery:
            c = item.coeffs
            p, q, k = c.p, c.q, c.free_dim
            J1 = np.diag(np.r_[np.ones(p), -np.ones(q)])
            J2 = np.diag(np.r_[np.ones(k), -np.ones(q)])
            ref = max(spectral_norm(evaluate(c.joint, z).conj().T @ J1 @ evaluate(c.joint, z) - J2)
                      for z in np.exp(2j * np.pi * np.arange(64) / 64))
            assert abs(j_inner_defect(c) - ref) <= 1e-12


class TestSharedState:
    """X and the feedback blocks are formed in closed form on the shared state."""

    def test_central_solution_has_n_states(self, battery):
        for item in battery:
            assert central_solution(item.coeffs).state_dim == item.derived.A0.shape[0]

    def test_solution_has_n_plus_s_states(self, battery):
        for item in battery[:4]:
            c = item.coeffs
            Y = random_contraction(9, c.free_dim, c.q)
            assert Y.state_dim == 2
            assert apply_lft(c, Y).state_dim == item.derived.A0.shape[0] + Y.state_dim

    def test_feedback_blocks_have_n_states(self, battery):
        for item in battery:
            phi = build_redheffer(item.coeffs)
            n = item.derived.A0.shape[0]
            for F in (phi.Phi11, phi.Phi12, phi.Phi21, phi.Phi22):
                assert F.state_dim == n

    def test_u22_with_a_zero_in_the_disc_is_rejected(self):
        # scalar blocks on one state: U22(z) = 1 + 2z vanishes at z = -1/2
        A0 = np.zeros((1, 1))
        B = np.array([[0.3, 2.0]])
        C = np.array([[0.5], [1.0]])
        D = np.array([[0.4, 0.1], [0.0, 1.0]])

        def block(i, j):
            return Realization(A0, B[:, [j]], C[[i]], D[[i]][:, [j]])

        coeffs = CoefficientSet(np.eye(1), np.eye(1), np.eye(1),
                                block(0, 0), block(0, 1), block(1, 0), block(1, 1),
                                Realization(A0, B, C, D))
        assert abs(evaluate(coeffs.U22, -0.5)[0, 0]) < 1e-15
        with pytest.raises(StabilityError):
            apply_lft(coeffs, zeros(1, 1))
        with pytest.raises(StabilityError):
            build_redheffer(coeffs)

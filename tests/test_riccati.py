"""Stein solver and the stabilizing Riccati solution."""

import numpy as np
import pytest

from leechsolve.core import gramians, popov_data
from leechsolve.errors import (
    DefinitenessError,
    DimensionError,
    RiccatiError,
    StabilityError,
)
from leechsolve.generate import random_problem, random_stable_matrix
from leechsolve.linalg import hermitian_posdef_check, is_schur_stable
from leechsolve.riccati import is_observable, solve_stein, stabilizing_riccati
from tests.conftest import fixed_point_riccati, kron_stein


class TestSolveStein:
    def test_zero_coefficient_returns_rhs(self):
        np.testing.assert_allclose(solve_stein(np.zeros((2, 2)), np.eye(2)), np.eye(2))

    def test_scalar_closed_form(self):
        # w / (1 - |a|^2) = 1 / 0.75
        P = solve_stein(np.array([[0.5]]), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_random_gramian_residual(self):
        rng = np.random.default_rng(10)
        A = random_stable_matrix(rng, 4)
        B = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        W = B @ B.conj().T
        P = solve_stein(A, W)
        assert np.linalg.norm(P - A @ P @ A.conj().T - W) <= 1e-11 * (1 + np.linalg.norm(W))
        assert hermitian_posdef_check(P)

    def test_matches_kronecker_reference(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8):
            A = random_stable_matrix(rng, n)
            B = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            W = B @ B.conj().T
            ref = kron_stein(A, W)
            assert np.linalg.norm(solve_stein(A, W) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_slow_non_normal_decay_passes_the_residual_check(self):
        # radius 0.999 with a large coupling: the doubled sum alone misses the
        # residual tolerance by about 3x
        A = np.array([[0.999, 3.0], [0.0, 0.999j]])
        P = solve_stein(A, np.eye(2))
        assert np.linalg.norm(P - A @ P @ A.conj().T - np.eye(2)) <= 1e-11
        ref = kron_stein(A, np.eye(2))
        assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("A", [np.array([[0.999, 3.0], [0.0, 0.999j]]),
                                   np.array([[0.5, 1e4], [0.0, 0.5]])],
                             ids=["radius-0.999", "transient-1e4"])
    def test_stack_matches_single_solves(self, A):
        # one pass over A's squarings solves every slice bit for bit as alone
        W = np.stack([np.eye(2), np.ones((2, 2)), np.zeros((2, 2))])
        P = solve_stein(A, W)
        assert P.shape == (3, 2, 2)
        for Pi, Wi in zip(P, W):
            assert np.array_equal(Pi, solve_stein(A, Wi))
            assert np.linalg.norm(Pi - A @ Pi @ A.conj().T - Wi) <= 1e-11 * (1 + np.linalg.norm(Wi))
        assert np.array_equal(P[2], np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1.0, np.sqrt(0.5)], ids=["unit", "half-variance"])
    def test_large_transient_passes_the_residual_check(self, scale):
        # ||A^j|| peaks near 1e4, so P is 5e8 to 1e9 and its residual 6e-9 to
        # 1.3e-7: roundoff scales with the solution, and the gate with it
        A = np.array([[0.5, 1e4], [0.0, 0.5]])
        rng = np.random.default_rng(12)
        B = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        W = B @ B.conj().T
        P = solve_stein(A, W)
        assert np.linalg.norm(P) > 1e8
        ref = kron_stein(A, W)
        assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)
        assert hermitian_posdef_check(P)

    def test_stack_with_one_indefinite_slice_raises(self):
        W = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(DefinitenessError):
            solve_stein(np.diag([0.5, 0.3]), W)

    def test_empty_stack(self):
        assert solve_stein(np.zeros((0, 0)), np.zeros((2, 0, 0))).shape == (2, 0, 0)

    def test_unstable_coefficient_raises(self):
        with pytest.raises(StabilityError):
            solve_stein(np.array([[1.0]]), np.array([[1.0]]))

    def test_indefinite_rhs_raises(self):
        with pytest.raises(DefinitenessError):
            solve_stein(np.array([[0.5]]), np.array([[-1.0]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            solve_stein(np.zeros((2, 2)), np.eye(3))


class TestObservability:
    def test_observable_pair(self):
        assert is_observable(np.array([[1.0, 0.0]]), np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_unobservable_pair(self):
        # C kills the second state and A is diagonal: no coupling back
        assert not is_observable(np.array([[1.0, 0.0]]), np.diag([0.5, 0.3]))


class TestStabilizingRiccati:
    def test_decoupled_case(self):
        # A = 0 and Gamma = 0 make the equation explicit: Q = C* R0^{-1} C
        C = np.array([[1.0, 2.0], [0.0, 1.0]])
        R0 = np.diag([2.0, 4.0])
        sol = stabilizing_riccati(np.zeros((2, 2)), np.zeros((2, 2)), R0, C)
        np.testing.assert_allclose(sol.Q, C.conj().T @ np.linalg.inv(R0) @ C, atol=1e-12)
        np.testing.assert_allclose(sol.Delta, R0, atol=1e-12)
        np.testing.assert_allclose(sol.A0, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_quadratic_selects_stabilizing_root(self):
        # q^2 - 2.5 q + 1 = 0 has roots 0.5 and 2; only q = 0.5 gives |A0| < 1
        sol = stabilizing_riccati(np.array([[0.0]]), np.array([[1.0]]),
                                  np.array([[2.5]]), np.array([[1.0]]))
        assert sol.Q[0, 0] == pytest.approx(0.5, abs=1e-11)
        assert sol.Delta[0, 0] == pytest.approx(2.0, abs=1e-11)
        assert sol.A0[0, 0] == pytest.approx(-0.5, abs=1e-11)

    def test_postconditions_on_random_instance(self):
        data, _ = random_problem(40)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        sol = stabilizing_riccati(data.A, pop.Gamma, pop.R0, data.C)
        W = data.C - pop.Gamma.conj().T @ sol.Q @ data.A
        recon = (data.A.conj().T @ sol.Q @ data.A
                 + W.conj().T @ np.linalg.solve(sol.Delta, W))
        assert np.linalg.norm(sol.Q - recon) <= 1e-9 * (1 + np.linalg.norm(sol.Q))
        assert hermitian_posdef_check(sol.Delta)
        assert is_schur_stable(sol.A0)

    def test_gain_is_the_final_one(self):
        data, _ = random_problem(40)
        pop = popov_data(data, *gramians(data))
        sol = stabilizing_riccati(data.A, pop.Gamma, pop.R0, data.C)
        W = data.C - pop.Gamma.conj().T @ sol.Q @ data.A
        assert np.linalg.norm(sol.Delta @ sol.gain - W) <= 1e-12 * (1 + np.linalg.norm(W))
        assert np.array_equal(sol.A0, data.A - pop.Gamma @ sol.gain)

    def test_matches_fixed_point_reference(self):
        data, _ = random_problem(41)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        sol = stabilizing_riccati(data.A, pop.Gamma, pop.R0, data.C)
        ref = fixed_point_riccati(data.A, pop.Gamma, pop.R0, data.C)
        assert np.linalg.norm(sol.Q - ref) <= 1e-12 * (1 + np.linalg.norm(ref))

    @pytest.mark.parametrize("seed", [9, 10])
    def test_falling_iterate_is_infeasible(self, seed):
        # the fixed-point Schur complement goes indefinite at step 22, yet
        # the doubled iterates 2^k keep it above 0.78 through k = 19: only
        # the fall from iterate 16 to iterate 32 shows that no solution exists
        data, _ = random_problem(seed, kind="infeasible")
        pop = popov_data(data, *gramians(data))
        with pytest.raises(RiccatiError, match=r"^fixed-point iterate fell between 2\^4 and 2\^5 "):
            stabilizing_riccati(data.A, pop.Gamma, pop.R0, data.C)

    def test_empty_state(self):
        sol = stabilizing_riccati(np.zeros((0, 0)), np.zeros((0, 1)),
                                  np.array([[2.0]]), np.zeros((1, 0)))
        assert sol.Q.shape == (0, 0)
        np.testing.assert_allclose(sol.Delta, [[2.0]])

    def test_unstable_state_matrix_raises(self):
        with pytest.raises(StabilityError):
            stabilizing_riccati(np.eye(2), np.zeros((2, 1)),
                                np.eye(1), np.ones((1, 2)))

    def test_unobservable_pair_solves(self):
        # a stable A makes {C, A} detectable, all a stabilizing solution
        # needs: the unobserved state gives Q = diag(4/3, 0), singular
        A = np.diag([0.5, 0.3])
        sol = stabilizing_riccati(A, np.zeros((2, 1)), np.eye(1), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(sol.Q, np.diag([4.0 / 3.0, 0.0]), atol=1e-12)
        qw = np.linalg.eigvalsh(sol.Q)
        assert abs(qw[0]) <= 1e-12 < qw[1]
        assert is_schur_stable(sol.A0)

    def test_infeasible_data_raises(self):
        # K far past the feasibility boundary: Delta loses definiteness
        data, _ = random_problem(42, kind="infeasible")
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        with pytest.raises(RiccatiError):
            stabilizing_riccati(data.A, pop.Gamma, pop.R0, data.C)

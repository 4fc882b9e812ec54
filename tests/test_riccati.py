"""Stein solver and the stabilizing Riccati solution."""

import numpy as np
import pytest

from leechsolve import riccati
from leechsolve.core import LeechData, gramians, popov_data
from leechsolve.errors import (
    BreakdownError,
    DefinitenessError,
    DimensionError,
    LeechError,
    RiccatiError,
    StabilityError,
)
from leechsolve.generate import random_problem, random_stable_matrix
from leechsolve.linalg import is_schur_stable
from leechsolve.riccati import (
    RiccatiSolutions,
    is_observable,
    solve_stein,
    stabilizing_riccati,
)
from tests.conftest import fixed_point_riccati, kron_stein, singular_riccati_data
from tests.reference import hermitian_posdef_check


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

    def test_refines_only_the_slices_that_miss_the_gate(self, monkeypatch):
        # the doubled sum of the radius-0.999 case misses 1e-11 (1 + ||W||)
        # by about 3x, so that slice alone takes the refinement step; a zero
        # right-hand side and a well-damped A need none
        calls = []
        doubling = riccati.stein_doubling

        def counting(A, W):
            calls.append(len(W))
            return doubling(A, W)

        monkeypatch.setattr(riccati, "stein_doubling", counting)
        radius = np.array([[0.999, 3.0], [0.0, 0.999j]])
        P = solve_stein(radius, np.stack([np.eye(2), np.zeros((2, 2))]))
        assert calls == [2, 1]
        assert np.linalg.norm(P[0] - radius @ P[0] @ radius.conj().T - np.eye(2)) <= 1e-11
        calls.clear()
        solve_stein(np.diag([0.5, 0.3]), np.stack([np.eye(2), np.ones((2, 2))]))
        assert calls == [2]

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
        (sol,) = stabilizing_riccati(np.zeros((2, 2)), np.zeros((1, 2, 2)), R0[None], C)
        np.testing.assert_allclose(sol.Q, C.conj().T @ np.linalg.inv(R0) @ C, atol=1e-12)
        np.testing.assert_allclose(sol.Delta, R0, atol=1e-12)
        np.testing.assert_allclose(sol.A0, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_quadratic_selects_stabilizing_root(self):
        # q^2 - 2.5 q + 1 = 0 has roots 0.5 and 2; only q = 0.5 gives |A0| < 1
        (sol,) = stabilizing_riccati(np.array([[0.0]]), np.array([[[1.0]]]),
                                     np.array([[[2.5]]]), np.array([[1.0]]))
        assert sol.Q[0, 0] == pytest.approx(0.5, abs=1e-11)
        assert sol.Delta[0, 0] == pytest.approx(2.0, abs=1e-11)
        assert sol.A0[0, 0] == pytest.approx(-0.5, abs=1e-11)

    def test_postconditions_on_random_instance(self):
        data, _ = random_problem(40)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        (sol,) = stabilizing_riccati(data.A, pop.Gamma[None], pop.R0[None], data.C)
        W = data.C - pop.Gamma.conj().T @ sol.Q @ data.A
        recon = (data.A.conj().T @ sol.Q @ data.A
                 + W.conj().T @ np.linalg.solve(sol.Delta, W))
        assert np.linalg.norm(sol.Q - recon) <= 1e-9 * (1 + np.linalg.norm(sol.Q))
        assert hermitian_posdef_check(sol.Delta)
        assert is_schur_stable(sol.A0)

    def test_gain_is_the_final_one(self):
        data, _ = random_problem(40)
        pop = popov_data(data, *gramians(data))
        (sol,) = stabilizing_riccati(data.A, pop.Gamma[None], pop.R0[None], data.C)
        W = data.C - pop.Gamma.conj().T @ sol.Q @ data.A
        assert np.linalg.norm(sol.Delta @ sol.gain - W) <= 1e-12 * (1 + np.linalg.norm(W))
        assert np.array_equal(sol.A0, data.A - pop.Gamma @ sol.gain)

    def test_matches_fixed_point_reference(self):
        data, _ = random_problem(41)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        (sol,) = stabilizing_riccati(data.A, pop.Gamma[None], pop.R0[None], data.C)
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
            stabilizing_riccati(data.A, pop.Gamma[None], pop.R0[None], data.C)

    def test_empty_state(self):
        (sol,) = stabilizing_riccati(np.zeros((0, 0)), np.zeros((1, 0, 1)),
                                     np.array([[[2.0]]]), np.zeros((1, 0)))
        assert sol.Q.shape == (0, 0)
        np.testing.assert_allclose(sol.Delta, [[2.0]])

    def test_unstable_state_matrix_raises(self):
        with pytest.raises(StabilityError):
            stabilizing_riccati(np.eye(2), np.zeros((1, 2, 1)),
                                np.ones((1, 1, 1)), np.ones((1, 2)))

    def test_unobservable_pair_solves(self):
        # a stable A makes {C, A} detectable, all a stabilizing solution
        # needs: the unobserved state gives Q = diag(4/3, 0), singular
        A = np.diag([0.5, 0.3])
        (sol,) = stabilizing_riccati(A, np.zeros((1, 2, 1)), np.ones((1, 1, 1)),
                                     np.array([[1.0, 0.0]]))
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
            stabilizing_riccati(data.A, pop.Gamma[None], pop.R0[None], data.C)


def _pair_and_kernel(data):
    """The (Gamma, R0) of the pair and of the kernel equation of the data."""
    pop = popov_data(data, *gramians(data))
    return [pop.Gamma, pop.Gamma0], [pop.R0, pop.R10]


def _stack_matches_single_calls(A, Gammas, R0s, C):
    """Solve the stack and each equation alone, in order, and check that the
    stack gives every field and the first failure bit for bit.  Returns that
    failure, or None when the equations solve."""
    singles = []
    for Gamma, R0 in zip(Gammas, R0s):
        try:
            singles.extend(stabilizing_riccati(A, Gamma[None], R0[None], C))
        except LeechError as exc:
            with pytest.raises(LeechError) as info:
                stabilizing_riccati(A, np.stack(Gammas), np.stack(R0s), C)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            assert info.value.equation == len(singles)
            return exc
    stack = stabilizing_riccati(A, np.stack(Gammas), np.stack(R0s), C)
    assert isinstance(stack, RiccatiSolutions) and len(stack) == len(singles)
    for mine, ref in zip(stack, singles):
        for field in ("Q", "Delta", "A0", "gain"):
            assert np.array_equal(getattr(mine, field), getattr(ref, field)), field
        assert type(mine.iterations) is int
        assert (mine.iterations, mine.residual) == (ref.iterations, ref.residual)
    assert stack.iterations == sum(ref.iterations for ref in singles)
    return None


class TestStack:
    """One doubling loop solves a stack of equations on the same A and C, each
    bit for bit as alone, and fails as the first failing equation alone."""

    def test_pair_and_kernel_match_single_calls(self, battery):
        static = LeechData(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((0, 1)),
                           np.zeros((2, 0)), np.eye(2), np.array([[0.3], [0.1]]))
        # at n = 16 the pair converges at doubling 12 and the kernel at 11, so
        # the kernel rides along converged for one doubling
        wide, _ = random_problem(1000, dims=(16, 2, 3, 2))
        for data in [item.data for item in battery] + [singular_riccati_data(), static, wide]:
            assert _stack_matches_single_calls(data.A, *_pair_and_kernel(data), data.C) is None

    def test_a_failed_stack_solves_its_equations_alone_up_to_the_failure(self, monkeypatch):
        loop, runs = riccati._doubling, []

        def counting(A, Gamma, R0, C):
            runs.append(Gamma)
            return loop(A, Gamma, R0, C)

        monkeypatch.setattr(riccati, "_doubling", counting)
        wide, _ = random_problem(1000, dims=(16, 2, 3, 2))
        Gammas, R0s = _pair_and_kernel(wide)
        pair, kernel = stabilizing_riccati(wide.A, np.stack(Gammas), np.stack(R0s), wide.C)
        assert (pair.iterations, kernel.iterations) == (12, 11)
        assert [len(Gamma) for Gamma in runs] == [2]
        # the pair falls at doubling 5: the stack's loop, then the pair's alone,
        # and never the kernel's
        runs.clear()
        data, _ = random_problem(9, kind="infeasible")
        Gammas, R0s = _pair_and_kernel(data)
        debug = []
        monkeypatch.setattr(riccati.log, "debug", lambda msg, *args: debug.append(msg))
        with pytest.raises(RiccatiError, match=r"^fixed-point iterate fell between 2\^4 and 2\^5 ") as info:
            stabilizing_riccati(data.A, np.stack(Gammas), np.stack(R0s), data.C)
        assert info.value.equation == 0
        assert [len(Gamma) for Gamma in runs] == [2, 1]
        assert np.array_equal(runs[1][0], Gammas[0])
        assert sum("one at a time" in msg for msg in debug) == 1

    @pytest.mark.parametrize("seed", [2, 7, 9, 10])
    def test_boundary_bisection_matches_single_calls(self, seed):
        # both sides of the feasibility boundary, up to the stalled
        # fixed-point iteration on its infeasible side
        data, _ = random_problem(seed)
        lo, hi, last = 1.0, 4.0, None
        for _ in range(40):
            s = 0.5 * (lo + hi)
            scaled = LeechData(data.A, data.B1, s * data.B2, data.C, data.D1, s * data.D2)
            failure = _stack_matches_single_calls(data.A, *_pair_and_kernel(scaled), data.C)
            if failure is None:
                lo = s
            else:
                hi, last = s, failure
        assert hi - lo < 1e-9 * lo
        assert type(last) is RiccatiError

    def test_first_failure_in_stack_order(self):
        # equation 1 fails at Q = 0 and leaves the stack; equation 0 falls
        # at doubling 5, and that is the failure the stack raises
        data, _ = random_problem(9, kind="infeasible")
        (Gamma, _), (R0, _) = _pair_and_kernel(data)
        Gammas, R0s = np.stack([Gamma, Gamma]), np.stack([R0, -R0])
        with pytest.raises(RiccatiError, match=r"^fixed-point iterate fell between 2\^4 and 2\^5 ") as info:
            stabilizing_riccati(data.A, Gammas, R0s, data.C)
        assert info.value.equation == 0
        with pytest.raises(RiccatiError, match=r"^Schur complement lost positive definiteness at Q = 0") as info:
            stabilizing_riccati(data.A, Gammas[::-1], R0s[::-1], data.C)
        assert info.value.equation == 0

    def test_a_later_failure_waits_for_the_earlier_equations(self):
        good, _ = random_problem(40)
        (Gamma, _), (R0, _) = _pair_and_kernel(good)
        with pytest.raises(RiccatiError, match=r"at Q = 0") as info:
            stabilizing_riccati(good.A, np.stack([Gamma, Gamma]), np.stack([R0, -R0]), good.C)
        assert info.value.equation == 1

    def test_a_matrix_is_no_stack(self):
        # one equation is a stack of one
        with pytest.raises(DimensionError, match="^Gamma must be a stack of matrices"):
            stabilizing_riccati(np.zeros((2, 2)), np.zeros((2, 1)), np.ones((1, 1)),
                                np.ones((1, 2)))

    def test_mismatched_stacks_raise(self):
        with pytest.raises(DimensionError):
            stabilizing_riccati(np.zeros((2, 2)), np.zeros((2, 2, 1)), np.ones((3, 1, 1)),
                                np.ones((1, 2)))


def _guard_eigensolves(monkeypatch):
    """Make every eigensolve of stabilizing_riccati assert a finite input."""
    real = riccati._min_eig

    def guarded(M):
        assert np.all(np.isfinite(M)), "a failed equation reached an eigensolve"
        return real(M)

    monkeypatch.setattr(riccati, "_min_eig", guarded)


def _break_first_doubling(monkeypatch, broken, how):
    """Break doubling 1's solve with S = I + G H for the equation whose Gamma
    is `broken`, in every doubling loop that solves it: "singular" zeroes its
    S, "overflow" puts inf in its S^{-1} [A_k  G_k]."""
    loop, solve = riccati._doubling, np.linalg.solve

    def run(A, Gamma, R0, C):
        slots = [i for i, G in enumerate(Gamma) if np.array_equal(G, broken)]
        calls = []

        def breaking(M, B):
            calls.append(M)
            if len(calls) != 2:  # the first solve is R0's, the second doubling 1's
                return solve(M, B)
            if how == "singular":
                M = M.copy()
                M[slots] = 0.0
                return solve(M, B)
            X = solve(M, B)
            X[slots] = np.inf
            return X

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", breaking)
            return loop(A, Gamma, R0, C)

    monkeypatch.setattr(riccati, "_doubling", run)


class TestFailedEquations:
    """A failed equation's NaN or inf reaches no eigensolve: it is a
    LeechError with its index, alone or in a stack, raised once the equations
    before it have solved."""

    @pytest.mark.parametrize("how, message", [
        ("singular", r"^Riccati doubling 1: I \+ G H is singular"),
        ("overflow", r"^Riccati doubling 1 produced a non-finite iterate"),
    ])
    @pytest.mark.parametrize("count, slot", [(1, 0), (2, 0), (2, 1)])
    def test_broken_doubling_is_a_breakdown(self, monkeypatch, how, message, count, slot):
        data, _ = random_problem(40)
        Gammas, R0s = _pair_and_kernel(data)
        _guard_eigensolves(monkeypatch)
        _break_first_doubling(monkeypatch, Gammas[slot], how)
        with pytest.raises(BreakdownError, match=message) as info:
            stabilizing_riccati(data.A, np.stack(Gammas[:count]), np.stack(R0s[:count]), data.C)
        assert info.value.equation == slot

    @pytest.mark.parametrize("slot", [0, 1])
    def test_failed_start_is_a_leech_error(self, monkeypatch, slot):
        # R0 = 0 is not positive definite and singular; Gamma scaled by 1e200
        # overflows G_0 = -Gamma R0^{-1} Gamma*
        data, _ = random_problem(40)
        (Gamma, _), (R0, _) = _pair_and_kernel(data)
        _guard_eigensolves(monkeypatch)
        for bad, error, message in (
                ((Gamma, 0 * R0), RiccatiError, "^Schur complement lost positive definiteness at Q = 0"),
                ((1e200 * Gamma, R0), BreakdownError, "^Riccati doubling 0 produced a non-finite iterate")):
            Gammas, R0s = [Gamma, Gamma], [R0, R0]
            Gammas[slot], R0s[slot] = bad
            with pytest.raises(error, match=message) as info:
                stabilizing_riccati(data.A, np.stack(Gammas), np.stack(R0s), data.C)
            assert info.value.equation == slot
            # a failed start leaves the stack alone
            with pytest.raises(error, match=message):
                stabilizing_riccati(data.A, bad[0][None], bad[1][None], data.C)

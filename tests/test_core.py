"""Problem data, validation, Popov data, and the full solve pipeline."""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from leechsolve import core, linalg
from leechsolve.coefficients import build_upsilon, central_solution, solution_report
from leechsolve.core import (
    DerivedMatrices,
    LeechData,
    delta_matrices,
    gramians,
    popov_data,
    solve,
    theta0,
    validate,
)
from leechsolve.errors import (
    BreakdownError,
    DefinitenessError,
    InfeasibleError,
    NotInvertibleError,
    RankDefectError,
    RiccatiError,
    StabilityError,
    ValidationError,
)
from leechsolve.files import read_problem
from leechsolve.generate import random_problem
from leechsolve.linalg import herm, sqrtm_posdef
from leechsolve.realization import evaluate
from leechsolve.riccati import is_observable, solve_stein, stabilizing_riccati
from leechsolve.toeplitz import truncate
from tests.conftest import (
    builds_of,
    circle_points,
    interior_points,
    rank_deficient_defect,
    singular_riccati_data,
    squaring_builds,
    with_unobservable_states,
)
from tests.reference import g_of, hermitian_posdef_check, omega_of, theta0_defect

N32 = Path(__file__).resolve().parents[1] / "leechbench" / "fixed" / "n32-s1000.json"


def _scalar_data():
    return LeechData(A=np.array([[0.5]]), B1=np.array([[1.0]]),
                     B2=np.array([[0.3]]), C=np.array([[1.0]]),
                     D1=np.array([[1.0]]), D2=np.array([[0.2]]))


def _static_kernel_row():
    """G = [1 0] with no state; K = 0. Wide static row used for the
    kernel-function checks (the data fails the p <= n + m validation on
    purpose, so only the defect/factor routines accept it)."""
    return LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)),
                     B2=np.zeros((0, 1)), C=np.zeros((1, 0)),
                     D1=np.array([[1.0, 0.0]]), D2=np.zeros((1, 1)))


class TestValidate:
    def test_scalar_data_passes(self):
        report = validate(_scalar_data())
        assert report.ok
        assert all(c.passed for c in report.checks)

    def test_kernel_condition_failure(self):
        data = LeechData(A=np.array([[0.5]]), B1=np.array([[1.0, 0.0]]),
                         B2=np.array([[0.3]]), C=np.array([[1.0]]),
                         D1=np.array([[1.0, 0.0]]), D2=np.array([[0.2]]))
        report = validate(data)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"kernel"}
        assert "kernel" in report.summary()

    def test_unstable_state_matrix_fails(self):
        data = _scalar_data()
        bad = LeechData(np.array([[1.0]]), data.B1, data.B2, data.C, data.D1, data.D2)
        report = validate(bad)
        assert not report.ok
        assert any(c.name == "stability" and not c.passed for c in report.checks)

    def test_dimension_rule(self):
        # p = 2 > n + m = 1 cannot satisfy the kernel condition
        report = validate(_static_kernel_row())
        assert any(c.name == "dimensions" and not c.passed for c in report.checks)

    def test_solve_rejects_invalid_data(self):
        with pytest.raises(ValidationError):
            solve(_static_kernel_row())


class TestGramiansAndPopov:
    def test_gramians_satisfy_stein_equations(self):
        data, _ = random_problem(50)
        P1, P2 = gramians(data)
        A = data.A
        for P, B in ((P1, data.B1), (P2, data.B2)):
            res = P - A @ P @ A.conj().T - B @ B.conj().T
            assert np.linalg.norm(res) <= 1e-11 * (1 + np.linalg.norm(P))

    def test_formulas_recomputed_directly(self):
        data, _ = random_problem(51)
        P1, P2 = gramians(data)
        pop = popov_data(data, P1, P2)
        A, B1, B2, C, D1, D2 = data.A, data.B1, data.B2, data.C, data.D1, data.D2
        dP = P1 - P2
        np.testing.assert_allclose(
            pop.R0, herm(D1 @ D1.conj().T - D2 @ D2.conj().T + C @ dP @ C.conj().T))
        np.testing.assert_allclose(
            pop.Gamma, B1 @ D1.conj().T - B2 @ D2.conj().T + A @ dP @ C.conj().T)

    def test_zero_k_collapses_to_kernel_data(self, kernel_case):
        data = kernel_case.data
        P1, P2 = gramians(data)
        assert np.array_equal(P2, np.zeros_like(P2))
        pop = popov_data(data, P1, P2)
        np.testing.assert_allclose(pop.R0, pop.R10, rtol=0.0, atol=0.0)
        np.testing.assert_allclose(pop.Gamma, pop.Gamma0, rtol=0.0, atol=0.0)

    def test_static_identity_numerator(self):
        data = LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)),
                         B2=np.zeros((0, 1)), C=np.zeros((2, 0)),
                         D1=np.eye(2), D2=np.zeros((2, 1)))
        pop = popov_data(data, *gramians(data))
        np.testing.assert_allclose(pop.R0, np.eye(2))
        np.testing.assert_allclose(pop.R10, np.eye(2))


class TestCertificate:
    """linalg keeps A's certificate, keyed on A's bits: the Gramians and the
    Riccati solves read it, and no other matrix can."""

    def test_no_k_columns_give_a_zero_p2(self):
        data, _ = random_problem(50)
        empty = dataclasses.replace(data, B2=np.zeros((data.n, 0)), D2=np.zeros((data.m, 0)))
        P1, P2 = gramians(empty)
        assert np.array_equal(P2, np.zeros((data.n, data.n)))
        assert np.array_equal(P1, gramians(data)[0])

    def test_kept_certificate_is_keyed_on_the_bits_of_a(self, monkeypatch):
        data, _ = random_problem(50)
        A = data.A.copy()
        built = squaring_builds(monkeypatch)
        kept = linalg.schur_squarings(A)
        assert kept is not None and builds_of(built, A) == 1
        assert linalg.schur_squarings(A.copy()) is kept
        assert builds_of(built, A) == 1
        # one entry moved by one ulp is another matrix: built afresh
        ulp = A.copy()
        ulp[0, 0] = complex(np.nextafter(ulp[0, 0].real, np.inf), ulp[0, 0].imag)
        assert linalg.schur_squarings(ulp) is not kept
        assert builds_of(built, ulp) == 1
        # so is -0.0 for 0.0, though both have the same (empty) certificate
        zero = np.zeros((3, 3))
        assert linalg.schur_squarings(zero) == linalg.schur_squarings(-zero) == ()
        assert len(built) == 4
        # A changed in place is certified afresh
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        moved = A.copy()
        assert linalg.is_schur_stable(moved)
        moved *= 1.3 / rho
        assert not linalg.is_schur_stable(moved)
        assert builds_of(built, moved) == 1 and len(built) == 6
        # an unstable matrix of the same shape reads False, and every
        # consumer refuses it right after A's certificate
        unstable = A * (1.2 / rho)
        assert validate(data).ok
        assert not linalg.is_schur_stable(unstable)
        pop = popov_data(data, *gramians(data))
        with pytest.raises(StabilityError, match="^Riccati data requires a Schur stable A"):
            stabilizing_riccati(unstable, pop.Gamma[None], pop.R0[None], data.C)
        validate(data)
        with pytest.raises(StabilityError, match="^truncation requires a stable function"):
            truncate(g_of(dataclasses.replace(data, A=unstable)), 4)
        validate(data)
        with pytest.raises(StabilityError, match="^Stein equation requires a Schur stable A"):
            solve_stein(unstable, np.eye(data.n))
        validate(data)
        with pytest.raises(ValidationError, match="stability: FAIL"):
            solve(dataclasses.replace(data, A=unstable))
        # the kept squarings cannot be written through
        with pytest.raises(ValueError):
            kept[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            kept[-1][0, 0] = 0.0


class TestSolve:
    def test_zero_k_specializations(self, kernel_case):
        d = kernel_case.derived
        q, pm = d.data.q, d.data.p - d.data.m
        np.testing.assert_allclose(d.Q, d.Q0, rtol=0.0, atol=0.0)
        np.testing.assert_allclose(d.Delta0, np.eye(q), atol=1e-12)
        np.testing.assert_allclose(d.Delta1, np.eye(pm), atol=1e-12)
        np.testing.assert_allclose(d.C2, np.zeros_like(d.C2), atol=0.0)
        np.testing.assert_allclose(d.B0, np.zeros_like(d.B0), atol=0.0)

    def test_corona_specializations(self, corona_case):
        d = corona_case.derived
        np.testing.assert_allclose(d.C2, d.C0, atol=1e-10)
        expected_B0 = (d.A0 @ omega_of(d) @ d.C0.conj().T
                       - d.Gamma @ np.linalg.inv(d.Delta))
        np.testing.assert_allclose(d.B0, expected_B0, atol=1e-10)

    def test_corona_excess_is_strictly_positive(self, corona_case):
        d = corona_case.derived
        excess = d.Delta1 @ d.Delta1 - np.eye(d.data.p - d.data.m)
        assert float(np.linalg.eigvalsh(herm(excess))[0]) > 0.0

    def test_scaled_numerator_is_infeasible(self):
        data, _ = random_problem(52)
        bad = LeechData(data.A, data.B1, 1.5 * data.B1, data.C, data.D1, 1.5 * data.D1)
        with pytest.raises(InfeasibleError):
            solve(bad)

    def test_infeasible_riccati_is_a_verdict(self):
        data, _ = random_problem(42, kind="infeasible")
        with pytest.raises(RiccatiError, match="^pair Riccati equation: .*no stabilizing solution exists"):
            solve(data)

    def test_verdict_does_not_depend_on_the_realization(self):
        # G = 1 and K = sqrt(1 - 5e-10) are strictly suboptimal with R0 = 5e-10;
        # the static realization and a 1-state one of the same pair both solve
        k = np.sqrt(1.0 - 5e-10)
        z = np.zeros
        static = LeechData(z((0, 0)), z((0, 1)), z((0, 1)), z((1, 0)), [[1.0]], [[k]])
        one_state = LeechData(z((1, 1)), z((1, 1)), z((1, 1)), [[1.0]], [[1.0]], [[k]])
        for data in (static, one_state):
            np.testing.assert_allclose(solve(data).Delta, [[5e-10]], rtol=1e-6)

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    @pytest.mark.parametrize("kind, seed", [("feasible", 6), ("feasible", 10), ("infeasible", 9)])
    def test_verdict_is_invariant_under_input_scaling(self, kind, seed, c):
        # scaling B1, B2, D1 and D2 by c keeps the data's verdict, but scales
        # Gamma and R0 by c^2 and Q by 1/c^2: the Riccati exits must follow
        data, _ = random_problem(seed, kind=kind)
        scaled = LeechData(data.A, c * data.B1, c * data.B2, data.C, c * data.D1, c * data.D2)
        if kind == "feasible":
            solve(scaled)
        else:
            with pytest.raises(RiccatiError, match="^pair Riccati equation: fixed-point iterate fell"):
                solve(scaled)

    def test_singular_riccati_solution_is_feasible(self, oracle_cache):
        # a numerically singular Q is no breakdown: the gaps are decided
        # without inverting it, and agree with the positive Gram margin
        data = singular_riccati_data()
        d = solve(data)
        w = np.linalg.eigvalsh(d.Q)
        assert w[0] <= 1e-12 * w[-1]
        assert d.margins["gap_min_eig"] > 0.3
        assert d.margins["gap0_min_eig"] > 0.3
        assert oracle_cache(data, 60).margin > 0.1

    def test_programming_errors_are_not_verdicts(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a verdict")

        monkeypatch.setattr(core, "stabilizing_riccati", broken)
        with pytest.raises(TypeError, match="not a verdict"):
            solve(_scalar_data())

    def test_one_riccati_call_solves_both_equations(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return stabilizing_riccati(*args)

        monkeypatch.setattr(core, "stabilizing_riccati", counting)
        d = solve(random_problem(40)[0])
        assert len(calls) == 1
        # each equation keeps its own doubling count
        pair, kernel = stabilizing_riccati(*calls[0])
        assert d.margins["riccati_iterations"] == pair.iterations
        assert d.margins["kernel_riccati_iterations"] == kernel.iterations

    def test_kernel_failure_names_the_kernel(self, monkeypatch):
        # the kernel equation fails at Q = 0 while the pair solves: the
        # failure keeps its class, and its message names the kernel
        def kernel_fails(A, Gamma, R0, C):
            return stabilizing_riccati(A, Gamma, np.stack([R0[0], -R0[1]]), C)

        monkeypatch.setattr(core, "stabilizing_riccati", kernel_fails)
        with pytest.raises(RiccatiError, match="^kernel Riccati equation: Schur complement lost "
                                               "positive definiteness at Q = 0"):
            solve(random_problem(40)[0])

    def test_a0_is_the_riccati_closed_loop(self, battery):
        for item in battery:
            d = item.derived
            (sol,) = stabilizing_riccati(d.data.A, d.Gamma[None], d.R0[None], d.data.C)
            assert np.array_equal(d.A0, sol.A0)

    def test_margins_are_reported(self, battery):
        m = battery[0].derived.margins
        for key in ("gap_min_eig", "gap0_min_eig", "riccati_residual",
                    "riccati_iterations", "kernel_riccati_residual",
                    "kernel_riccati_iterations"):
            assert key in m
        assert m["gap_min_eig"] > 0.0
        assert m["riccati_residual"] <= 1e-9


class TestUnobservableStates:
    """Observability is no assumption: states that never reach the output
    change neither G and K nor the verdict and the solutions."""

    @staticmethod
    def _verdict(data):
        try:
            return solve(data)
        except (InfeasibleError, BreakdownError) as exc:
            return type(exc)

    @pytest.mark.parametrize("kind", ["feasible", "infeasible"])
    @pytest.mark.parametrize("seed", range(20))
    def test_same_verdict_and_central_solution(self, seed, kind):
        data, _ = random_problem(seed, kind=kind)
        aug = with_unobservable_states(data, seed)
        assert not is_observable(aug.C, aug.A)
        mine, ref = self._verdict(aug), self._verdict(data)
        if kind == "infeasible":
            assert isinstance(ref, type) and issubclass(ref, InfeasibleError)
            assert mine is ref
            return
        assert isinstance(mine, DerivedMatrices) and isinstance(ref, DerivedMatrices)
        assert abs(mine.margins["gap_min_eig"] - ref.margins["gap_min_eig"]) <= 1e-12
        pts = np.concatenate([[0j], interior_points(8), circle_points(8)])
        X, Xref = (evaluate(central_solution(build_upsilon(d)), pts) for d in (mine, ref))
        assert np.max(np.abs(X - Xref)) <= 1e-12

    @pytest.mark.parametrize("coordinates", ["kalman", "transformed"])
    def test_inverse_gaps_of_a_singular_q_are_not_invertible(self, coordinates):
        # the unobserved states give singular Q and Q0: the gap properties
        # raise a breakdown that points to the margins, which solve decided.
        # In Kalman form Q has exact zero rows; after a similarity it is
        # singular only to roundoff
        data = with_unobservable_states(random_problem(0)[0])
        if coordinates == "transformed":
            rng = np.random.default_rng(5)
            n = data.n
            T = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            Ti = np.linalg.inv(T)
            data = LeechData(A=T @ data.A @ Ti, B1=T @ data.B1, B2=T @ data.B2, C=data.C @ Ti,
                             D1=data.D1, D2=data.D2)
        d = solve(data)
        for name, symbol, margin in (("gap", "Q", "gap_min_eig"), ("gap0", "Q0", "gap0_min_eig")):
            with pytest.raises(NotInvertibleError, match=f"^{symbol} is singular") as info:
                getattr(d, name)
            assert f'margins["{margin}"]' in str(info.value)
            assert d.margins[margin] > 0.0


class TestTheta0:
    def test_square_case_has_empty_factor(self, corona_square_case):
        Theta0 = corona_square_case.derived.Theta0
        assert Theta0.shape == (corona_square_case.data.p, 0)

    def test_static_row_defect_and_factor(self):
        data = _static_kernel_row()
        empty = np.zeros((0, 0))
        pop = popov_data(data, empty, empty)
        M, _ = core._kernel_defect(data, empty, pop.Gamma0, empty, pop.R10,
                                   np.zeros((data.m, 0)), empty)
        np.testing.assert_allclose(M, np.diag([0.0, 1.0]), atol=1e-14)
        F, _, _ = theta0(M, data.p - data.m)
        np.testing.assert_allclose(F, np.array([[0.0], [1.0]]), atol=1e-14)

    def test_rank_mismatch_raises(self, monkeypatch):
        # a defect that lost a kept direction has its (p - m)-th eigenvalue
        # at roundoff, inside the bound
        data, _ = random_problem(55)
        assert data.p > data.m
        rank_deficient_defect(monkeypatch)
        with pytest.raises(RankDefectError, match="^kernel defect has rank") as info:
            solve(data)
        frames, tb = [], info.value.__traceback__
        while tb is not None:
            frames.append((tb.tb_frame.f_code.co_name, tb.tb_frame.f_code.co_filename))
            tb = tb.tb_next
        assert any(name == "theta0" and path.endswith("core.py") for name, path in frames)

    @pytest.mark.parametrize("seed, dims", [(1175, None), (1001, (24, 2, 3, 2))])
    def test_small_defect_keeps_its_rank(self, seed, dims):
        # ||M|| is about 1e-2 on these draws: a cut relative to ||M|| fell
        # below the roundoff in M and rejected them as indefinite or rank deficient
        data, _ = random_problem(seed, dims=dims)
        d = solve(data)
        assert d.Theta0.shape == (data.p, data.p - data.m)
        assert d.margins["theta0_kept_min_eig"] > 1e-3
        assert d.margins["theta0_dropped_max_eig"] < 1e-8

    def test_separated_defect_gives_the_cut_factor(self, battery):
        # on a defect whose kept and dropped eigenvalues are far apart, the
        # top p - m eigenpairs are bit for bit the factor of an absolute cut
        # at 1e-8 (the eigenvalues above it, by decreasing eigenvalue)
        for item in battery:
            M, k = item.derived.M, item.data.p - item.data.m
            w, V = np.linalg.eigh(herm(M))
            keep = w > 1e-8
            idx = np.argsort(w[keep])[::-1]
            cut = V[:, keep][:, idx] * np.sqrt(w[keep][idx])
            F, kept_min, dropped_max = theta0(M, k)
            assert cut.shape[1] == k
            assert np.array_equal(F, cut) and np.array_equal(item.derived.Theta0, cut)
            assert kept_min == np.min(w[keep], initial=np.inf)
            assert dropped_max == np.max(np.abs(w[~keep]), initial=0.0)

    @staticmethod
    def _bound():
        # the bound on diag(..., 0.5, 1), whose norm is 1
        return float(np.sqrt(np.finfo(float).eps))

    def test_kept_eigenvalue_inside_the_bound_raises(self):
        tau = self._bound()
        F, kept_min, dropped_max = theta0(np.diag([0.0, 1.01 * tau, 1.0]), 2)
        assert F.shape == (3, 2) and kept_min == 1.01 * tau and dropped_max == 0.0
        with pytest.raises(RankDefectError, match=(
                r"^kernel defect has rank other than p - m = 2: smallest kept eigenvalue "
                r"1\.490e-08, largest dropped 0\.000e\+00, bound 1\.490e-08")):
            theta0(np.diag([0.0, tau, 1.0]), 2)

    def test_dropped_eigenvalue_above_the_bound_raises(self):
        tau = self._bound()
        theta0(np.diag([tau, 0.5, 1.0]), 2)
        with pytest.raises(RankDefectError, match="largest dropped 1.505e-08"):
            theta0(np.diag([1.01 * tau, 0.5, 1.0]), 2)

    def test_eigenvalue_below_minus_the_bound_raises(self):
        tau = self._bound()
        theta0(np.diag([-tau, 0.5, 1.0]), 2)
        with pytest.raises(DefinitenessError, match=(
                r"^kernel defect is not positive semidefinite: min eigenvalue -1\.505e-08")):
            theta0(np.diag([-1.01 * tau, 0.5, 1.0]), 2)

    def test_square_numerator_gives_an_empty_factor(self):
        # p = m: nothing is kept, so roundoff of either sign passes
        F, kept_min, dropped_max = theta0(np.diag([-1e-3, 1e-3]), 0)
        assert F.shape == (2, 0)
        assert kept_min == np.inf and dropped_max == 1e-3

    def test_solve_factors_the_defect_it_keeps(self, battery, monkeypatch):
        # solve forms M once, factors it with theta0 and keeps it, bit for bit
        seen = []

        def recording(M, k):
            seen.append(M.copy())
            return theta0(M, k)

        monkeypatch.setattr(core, "theta0", recording)
        for item in battery:
            seen.clear()
            d = solve(item.data)
            assert d.M.shape == (d.data.p, d.data.p)
            assert len(seen) == 1 and np.array_equal(seen[0], d.M)
            assert np.array_equal(d.Theta0, theta0(d.M, d.data.p - d.data.m)[0])

    def test_solve_defect_is_the_public_form(self, battery, monkeypatch):
        # solve builds the defect from the kernel Riccati solution's Delta,
        # gain and A0; theta0_defect rebuilds them from Q0 and P1
        seen = []

        def recording(M, k):
            seen.append(M)
            return theta0(M, k)

        monkeypatch.setattr(core, "theta0", recording)
        for item in battery:
            seen.clear()
            d = solve(item.data)
            np.testing.assert_allclose(seen[0], theta0_defect(d.data, d.Q0, d.P1),
                                       rtol=0.0, atol=1e-12)

    def test_kept_defect_is_the_public_form(self, battery):
        # solve keeps the defect it factors, bit for bit theta0_defect's
        for item in battery:
            d = item.derived
            assert d.M.shape == (d.data.p, d.data.p)
            assert np.array_equal(d.M, theta0_defect(d.data, d.Q0, d.P1))

    def test_one_eigendecomposition_of_the_defect(self, battery, monkeypatch):
        # theta0's factor and both theta0_ margins read one eigen-solve of M
        seen = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def recording(a, *args, real=real, **kwargs):
                seen.append(np.array(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        for item in battery[:3]:
            seen.clear()
            d = solve(item.data)
            assert sum(np.array_equal(a, d.M) for a in seen) == 1

    def test_defect_is_psd(self, battery):
        M = battery[1].derived.M
        assert float(np.linalg.eigvalsh(M)[0]) >= -1e-10


class TestDeltaMatrices:
    def test_recomputation_matches_solve(self, battery):
        d = battery[2].derived
        D0, D1 = delta_matrices(d)
        np.testing.assert_allclose(D0, d.Delta0, atol=1e-12)
        np.testing.assert_allclose(D1, d.Delta1, atol=1e-12)

    def test_normalizations_are_positive(self, battery):
        for item in battery:
            d = item.derived
            assert hermitian_posdef_check(herm(d.Delta0))
            excess = herm(d.Delta1 @ d.Delta1 - np.eye(d.data.p - d.data.m))
            if excess.size:
                assert float(np.linalg.eigvalsh(excess)[0]) >= -1e-9

    def test_one_eigendecomposition_per_normalization(self, battery, monkeypatch):
        # each normalization's definiteness test, Delta1^2 - I's bound and its
        # root read one eigh: two eigendecompositions where there were five
        d = battery[2].derived
        assert d.data.p > d.data.m and d.data.q > 0
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        Delta0, Delta1 = delta_matrices(d)
        assert calls == ["eigh", "eigh"]
        assert np.array_equal(Delta0, d.Delta0) and np.array_equal(Delta1, d.Delta1)

    def test_indefinite_normalization_is_a_breakdown(self, battery):
        # solve has already found the data suboptimal, so an indefinite
        # Delta0^2 = I + E0[p:] is a numerical breakdown, not a verdict
        d = battery[0].derived
        p, q = d.data.p, d.data.q
        E0 = d.E0.copy()
        E0[p:] = -2.0 * np.eye(q)
        with pytest.raises(DefinitenessError, match="Delta0"):
            delta_matrices(dataclasses.replace(d, E0=E0))


class TestGapOwner:
    """solve decides the gaps and forms Omega without inverting Q or Q0; the
    coefficients read only the thin products it stored."""

    def test_inverse_count(self, monkeypatch):
        data, _ = read_problem(str(N32))
        assert data.n == 32
        inv = np.linalg.inv
        calls = []

        def counting(M):
            if np.shape(M)[-1] == data.n:
                calls.append(stage)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", counting)
        stage = "solve"
        d = solve(data)
        stage = "build_upsilon"
        build_upsilon(d)
        # the gaps, Omega, Omega0 and F1 are solves, never inverses
        assert calls.count("solve") == 0
        assert calls.count("build_upsilon") == 0

    def test_pair_gap_matrix_is_solved_once(self, monkeypatch):
        # one solve with I + (P2 - P1) Q gives both Omega and F1
        data, _ = read_problem(str(N32))
        real = np.linalg.solve
        matrices = []

        def recording(M, B):
            matrices.append(np.array(M))
            return real(M, B)

        monkeypatch.setattr(np.linalg, "solve", recording)
        d = solve(data)
        gap = np.eye(data.n) + (d.P2 - d.P1) @ d.Q
        assert sum(M.shape == gap.shape and np.array_equal(M, gap) for M in matrices) == 1
        monkeypatch.setattr(np.linalg, "solve", real)
        Omega = herm(real(gap, d.P1 - d.P2))
        np.testing.assert_allclose(omega_of(d), Omega, rtol=0, atol=1e-12 * np.linalg.norm(Omega))
        np.testing.assert_allclose(d.F1, real(gap, d.data.B1 @ d.Theta0), rtol=1e-12)

    def test_kernel_gap_matrix_is_solved_once(self, monkeypatch):
        # theta0's defect solves with I - P1 Q0 once, and E1 reuses that solve
        data, _ = read_problem(str(N32))
        real = np.linalg.solve
        matrices = []

        def recording(M, B):
            matrices.append(np.array(M))
            return real(M, B)

        monkeypatch.setattr(np.linalg, "solve", recording)
        d = solve(data)
        gap0 = np.eye(data.n, dtype=complex) - d.P1 @ d.Q0
        assert sum(M.shape == gap0.shape and np.array_equal(M, gap0) for M in matrices) == 1

    def test_riccati_solutions_are_eigen_decomposed_once(self, monkeypatch):
        # the PSD check of each Riccati solution is its one eigendecomposition,
        # and the gap verdicts read it
        data, _ = read_problem(str(N32))
        calls = []

        def recording(real):
            def wrapper(M, *args, **kwargs):
                calls.append((np.array(M), sys._getframe(1).f_code.co_name))
                return real(M, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        d = solve(data)
        for Q in (d.Q, d.Q0):
            callers = [name for M, name in calls if M.shape == Q.shape and np.array_equal(M, Q)]
            assert callers == ["_finish"]

    def test_certificate_count(self, monkeypatch):
        # validate builds A's squaring sequence once, and both Gramians and
        # both Riccati solves read it; each closed loop A0 is certified alone
        data, _ = read_problem(str(N32))
        built = squaring_builds(monkeypatch)
        solve(data)
        assert builds_of(built, data.A) == 1
        assert len(built) == 3

    def test_solution_certificate_count(self, monkeypatch):
        # apply_lft certifies X's state matrix, and solution_report's norm
        # estimate reads that certificate
        data, _ = read_problem(str(N32))
        built = squaring_builds(monkeypatch)
        d = solve(data)
        coeffs = build_upsilon(d)
        X = central_solution(coeffs)
        solution_report(d, coeffs, X)
        assert builds_of(built, X.A) == 1

    def test_gaps_and_margins_match_their_definitions(self, battery):
        for item in battery:
            d = item.derived
            gap = herm(np.linalg.inv(d.Q) + d.P2 - d.P1)
            gap0 = herm(np.linalg.inv(d.Q0) - d.P1)
            assert np.array_equal(d.gap, gap)
            assert np.array_equal(d.gap0, gap0)
            # the margins are the gaps under congruence with the roots of Q, Q0
            for key, Q, H, G in (("gap_min_eig", d.Q, d.P2 - d.P1, gap),
                                 ("gap0_min_eig", d.Q0, -d.P1, gap0)):
                root = sqrtm_posdef(Q)
                ref = np.linalg.eigvalsh(herm(np.eye(len(Q)) + root @ H @ root))[0]
                assert abs(d.margins[key] - ref) <= 1e-12
                assert np.linalg.norm(root @ G @ root - np.eye(len(Q)) - root @ H @ root) <= 1e-9
            Omega = omega_of(d)
            assert np.array_equal(Omega, Omega.conj().T)
            ref = (d.P1 - d.P2) @ np.linalg.inv(gap) @ np.linalg.inv(d.Q)
            assert np.linalg.norm(Omega - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_thin_products_match_their_definitions(self, battery, corona_square_case):
        for item in battery + [corona_square_case]:
            d, data = item.derived, item.data
            Gh, Q, Delta = d.Gamma.conj().T, d.Q, d.Delta
            B, D = np.hstack([data.B1, data.B2]), np.hstack([data.D1, data.D2])
            DQB = D - Gh @ Q @ B
            E0 = (DQB.conj().T @ np.linalg.solve(Delta, DQB[:, data.p:])
                  + B.conj().T @ Q @ data.B2
                  + np.vstack([d.C1, d.C2]) @ omega_of(d) @ d.C2.conj().T)
            X = data.B1 @ d.Theta0
            E1 = X.conj().T @ (np.linalg.solve(d.gap, X) - np.linalg.solve(d.gap0, X))
            F1 = np.linalg.inv(Q) @ np.linalg.solve(d.gap, X)
            for mine, ref in ((d.E0, E0), (d.E1, E1), (d.F1, F1)):
                assert mine.shape == ref.shape
                assert np.linalg.norm(mine - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
            k, q = data.p - data.m, data.q
            np.testing.assert_allclose(d.Delta0 @ d.Delta0, np.eye(q) + d.E0[data.p:],
                                       atol=1e-10)
            np.testing.assert_allclose(d.Delta1 @ d.Delta1, np.eye(k) + d.E1, atol=1e-10)

    def test_no_square_state_field_beyond_the_riccati_data(self):
        d = solve(read_problem(str(N32))[0])
        n = d.data.n
        square = {f.name for f in dataclasses.fields(DerivedMatrices)
                  if getattr(getattr(d, f.name), "shape", None) == (n, n)}
        assert square == {"P1", "P2", "Q", "Q0"}

    def test_c0_is_the_pair_gain(self, battery):
        d = battery[3].derived
        data = d.data
        (sol,) = stabilizing_riccati(data.A, d.Gamma[None], d.R0[None], data.C)
        assert np.array_equal(d.C0, sol.gain)


class TestFeasibilityBoundary:
    """Bisection of the scale s of K over [1, 4].  Near the boundary the
    infeasible side of seeds 2, 7, 9 and 10 is a stalled fixed-point
    iteration, which the doubling's falling-iterate exit certifies; seed 0
    and the n = 16 draw are controls whose boundary is the pair gap."""

    @pytest.mark.parametrize("seed, dims, boundary_error", [
        (0, None, InfeasibleError),
        (2, None, RiccatiError),
        (7, None, RiccatiError),
        (9, None, RiccatiError),
        (10, None, RiccatiError),
        (1000, (16, 2, 3, 2), InfeasibleError),
    ])
    def test_bisection_brackets_without_breakdown(self, seed, dims, boundary_error):
        data, _ = random_problem(seed, dims=dims)
        lo, hi, last = 1.0, 4.0, None
        start = time.perf_counter()
        for _ in range(40):
            s = 0.5 * (lo + hi)
            try:
                solve(LeechData(data.A, data.B1, s * data.B2, data.C, data.D1, s * data.D2))
                lo = s
            except InfeasibleError as exc:  # a BreakdownError fails the test
                hi, last = s, exc
        elapsed = time.perf_counter() - start
        assert hi - lo < 1e-9 * lo
        assert type(last) is boundary_error
        assert elapsed < 2.0

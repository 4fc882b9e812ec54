"""Problem data, validation, Popov data, and the full solve pipeline."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from leechsolve.coefficients import build_upsilon
from leechsolve.core import (
    DerivedMatrices,
    LeechData,
    delta_matrices,
    gramians,
    popov_data,
    solve,
    theta0,
    theta0_defect,
    validate,
)
from leechsolve.errors import (
    DefinitenessError,
    InfeasibleError,
    RankDefectError,
    ValidationError,
)
from leechsolve.files import read_problem
from leechsolve.generate import random_problem
from leechsolve.linalg import herm, hermitian_posdef_check
from leechsolve.riccati import stabilizing_riccati

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
        expected_B0 = (d.A0 @ d.Omega @ d.C0.conj().T
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

    def test_margins_are_reported(self, battery):
        m = battery[0].derived.margins
        for key in ("gap_min_eig", "gap0_min_eig", "riccati_residual",
                    "riccati_iterations", "kernel_riccati_residual",
                    "kernel_riccati_iterations"):
            assert key in m
        assert m["gap_min_eig"] > 0.0
        assert m["riccati_residual"] <= 1e-9


class TestTheta0:
    def test_square_case_has_empty_factor(self, corona_square_case):
        Theta0 = corona_square_case.derived.Theta0
        assert Theta0.shape == (corona_square_case.data.p, 0)

    def test_static_row_defect_and_factor(self):
        data = _static_kernel_row()
        empty = np.zeros((0, 0))
        M = theta0_defect(data, empty, empty)
        np.testing.assert_allclose(M, np.diag([0.0, 1.0]), atol=1e-14)
        F = theta0(M, data.p - data.m)
        np.testing.assert_allclose(F, np.array([[0.0], [1.0]]), atol=1e-14)

    def test_rank_mismatch_raises(self):
        data, _ = random_problem(55)
        derived = solve(data)
        assert data.p > data.m
        # a tolerance above the natural scale of the defect swallows every
        # eigenvalue, so the factor comes back empty and the rank check trips
        with pytest.raises(RankDefectError):
            theta0(theta0_defect(data, derived.Q0, derived.P1), data.p - data.m, rank_tol=1.5)

    @pytest.mark.parametrize("seed, dims", [(1175, None), (1001, (24, 2, 3, 2))])
    def test_small_defect_keeps_its_rank(self, seed, dims):
        # ||M|| is about 1e-2 on these draws: a cut relative to ||M|| fell
        # below the roundoff in M and rejected them as indefinite or rank deficient
        data, _ = random_problem(seed, dims=dims)
        d = solve(data)
        assert d.Theta0.shape == (data.p, data.p - data.m)
        assert d.margins["theta0_kept_min_eig"] > 1e-3
        assert d.margins["theta0_dropped_max_eig"] < 1e-8

    def test_defect_is_psd(self, battery):
        d = battery[1].derived
        M = theta0_defect(d.data, d.Q0, d.P1)
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
            assert hermitian_posdef_check(herm(d.Delta0), tol=0.0)
            excess = herm(d.Delta1 @ d.Delta1 - np.eye(d.data.p - d.data.m))
            if excess.size:
                assert float(np.linalg.eigvalsh(excess)[0]) >= -1e-9

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
    """solve forms Q^{-1}, the gaps and Omega once; the coefficients read
    only the thin products it stored."""

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
        # Q and Q0 for the gaps, Q0 once more in the one theta0_defect call
        assert calls.count("solve") <= 3
        assert calls.count("build_upsilon") == 0

    def test_gaps_and_margins_match_their_definitions(self, battery):
        for item in battery:
            d = item.derived
            gap = herm(np.linalg.inv(d.Q) + d.P2 - d.P1)
            gap0 = herm(np.linalg.inv(d.Q0) - d.P1)
            assert np.array_equal(d.gap, gap)
            assert np.array_equal(d.gap0, gap0)
            assert d.margins["gap_min_eig"] == np.linalg.eigvalsh(d.gap)[0]
            assert d.margins["gap0_min_eig"] == np.linalg.eigvalsh(d.gap0)[0]
            Omega = d.Omega
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
                  + np.vstack([d.C1, d.C2]) @ d.Omega @ d.C2.conj().T)
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
        assert square == {"P1", "P2", "Q", "A0", "Q0"}

    def test_c0_is_the_pair_gain(self, battery):
        d = battery[3].derived
        data = d.data
        sol = stabilizing_riccati(data.A, d.Gamma, d.R0, data.C)
        assert np.array_equal(d.C0, sol.gain)

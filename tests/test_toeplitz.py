"""Truncated-operator oracle: truncations, margins, kernel function, identities."""

import numpy as np
import pytest

from leechsolve import generate, toeplitz
from leechsolve.cli import main
from leechsolve.core import LeechData, solve
from leechsolve.errors import DimensionError, InfeasibleError, StabilityError
from leechsolve.generate import random_problem
from leechsolve.linalg import spectral_norm
from leechsolve.realization import Realization, evaluate
from leechsolve.toeplitz import (
    OracleContext,
    ThetaOracle,
    bnabla_defect,
    delta1_appendix_defect,
    gram_riccati_defect,
    identity_gram_inverse,
    identity_kernel_resolvent,
    identity_lambda_gram,
    identity_resolvent_compression,
    identity_resolvent_shift,
    identity_shift_compression,
    identity_theta_resolvent,
    lower_block_toeplitz,
    oracle_appendix_phi,
    oracle_deltas,
    oracle_theta,
    oracle_upsilon,
    theta0_defect_oracle,
    toeplitz_gram,
    truncate,
    w_obs,
    woodbury_defect,
)
from leechsolve.coefficients import build_redheffer
from tests.conftest import (
    block_toeplitz_loop,
    circle_points,
    dense_core,
    dense_gram,
    interior_points,
    upsilon_per_point,
)


def _static_row_data():
    """G = [1 0] static, K = 0."""
    return LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)),
                     B2=np.zeros((0, 1)), C=np.zeros((1, 0)),
                     D1=np.array([[1.0, 0.0]]), D2=np.zeros((1, 1)))


def _proportional_data(seed, factor=0.5):
    base, _ = random_problem(seed)
    return LeechData(base.A, base.B1, factor * base.B1, base.C,
                     base.D1, factor * base.D1)


class TestTruncate:
    def test_scalar_blocks(self):
        F = Realization(np.array([[0.5]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        column = truncate(F, 3)
        np.testing.assert_allclose(column[:, 0], [0.0, 1.0, 0.5])
        expected = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
        np.testing.assert_allclose(lower_block_toeplitz(column, 1), expected)

    def test_matrix_is_block_toeplitz(self):
        data, _ = random_problem(70)
        column = truncate(data.g(), 5)
        m, p = data.m, data.p
        assert column.shape == (5 * m, p)
        T = lower_block_toeplitz(column, m)
        for i in range(5):
            for j in range(5):
                blk = T[i * m:(i + 1) * m, j * p:(j + 1) * p]
                if i >= j:
                    np.testing.assert_allclose(blk, column[(i - j) * m:(i - j + 1) * m], atol=0.0)
                else:
                    np.testing.assert_allclose(blk, np.zeros((m, p)), atol=0.0)

    def test_bad_inputs(self):
        data, _ = random_problem(72)
        with pytest.raises(DimensionError):
            truncate(data.g(), 0)
        F = Realization(np.array([[1.1]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(StabilityError):
            truncate(F, 4)


def _rel_diff(a, b):
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


class TestStructuredPaths:
    """The structured Toeplitz paths against their dense references, on the
    battery (m = 1 and m = 2) and at N = 1, where the recursions are empty."""

    WINDOWS = (1, 2, 37)

    def test_block_toeplitz_matches_block_loop(self, battery):
        for item in battery:
            for N in self.WINDOWS:
                for F in (item.data.g(), item.data.k()):
                    column = truncate(F, N)
                    np.testing.assert_array_equal(lower_block_toeplitz(column, item.data.m),
                                                  block_toeplitz_loop(np.split(column, N)))

    def test_gram_and_core_match_dense_products(self, battery):
        assert {item.data.m for item in battery} == {1, 2}
        for item in battery:
            for N in self.WINDOWS:
                ctx = OracleContext(item.data, N)
                assert _rel_diff(ctx.gram, dense_gram(ctx)) <= 1e-12
                assert _rel_diff(ctx.core, dense_core(ctx)) <= 1e-12
                dense = np.linalg.eigvalsh(dense_core(ctx))[0]
                assert abs(ctx.margin - dense) <= 1e-12 * max(1.0, abs(dense))

    def test_toeplitz_gram_of_an_empty_recursion(self):
        column = np.array([[1.0 + 2.0j, 0.5], [0.0, 1.0j]])
        np.testing.assert_allclose(toeplitz_gram(column, 2), column @ column.conj().T,
                                   rtol=0.0, atol=1e-15)

    def test_upsilon_matches_per_point_reference(self, battery, oracle_cache):
        zs = list(interior_points(16))
        for item in battery:
            for N in (1, 60):
                ctx = oracle_cache(item.data, N)
                if ctx.margin <= 0.0:
                    continue
                out = oracle_upsilon(ctx, item.derived.Theta0, zs)
                ref = upsilon_per_point(ctx, item.derived.Theta0, zs)
                for key in ("U11", "U12", "U21", "U22"):
                    assert out[key].shape == (len(zs),) + ref[key][0].shape
                    assert max(_rel_diff(a, b) for a, b in zip(out[key], ref[key])) <= 1e-12
                for key in ("Delta0", "Delta1"):
                    assert _rel_diff(out[key], ref[key]) <= 1e-12

    def test_theta0_defect_matches_dense_inverse(self, battery, oracle_cache):
        for item in battery:
            ctx = oracle_cache(item.data, 60)
            E = ctx.TgEp
            ref = np.eye(ctx.p) - E.conj().T @ np.linalg.inv(dense_gram(ctx)) @ E
            assert _rel_diff(theta0_defect_oracle(ctx), ref) <= 1e-12

    def test_gram_guard_raises_before_any_solve(self):
        data = LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)),
                         B2=np.zeros((0, 1)), C=np.zeros((1, 0)),
                         D1=np.zeros((1, 2)), D2=np.zeros((1, 1)))
        ctx = OracleContext(data, 5)
        assert ctx.gram_margin <= 0.0
        Theta0 = np.array([[0.0], [1.0]])
        with pytest.raises(InfeasibleError, match="Gram matrix of G"):
            theta0_defect_oracle(ctx)
        with pytest.raises(InfeasibleError, match="Gram matrix of G"):
            ThetaOracle(ctx, Theta0)
        with pytest.raises(InfeasibleError):
            oracle_theta(ctx, Theta0)
        assert "gram_solved" not in vars(ctx) and "core_solved" not in vars(ctx)


class TestNoAssembly:
    """The oracle and the generator's Gram probe work on first block columns
    alone: neither assembles a block Toeplitz matrix."""

    @pytest.fixture
    def assemblies(self, monkeypatch):
        calls = []

        def counting(column, r):
            calls.append(column.shape)
            return lower_block_toeplitz(column, r)

        for module in (toeplitz, generate):
            monkeypatch.setattr(module, "lower_block_toeplitz", counting)
        return calls

    def test_oracle_command(self, assemblies, tmp_path):
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        for seed in (3, 7):
            assert main(["generate", "--seed", str(seed), "--out", problem]) == 0
            assemblies.clear()
            assert main(["oracle", problem, "--out", report]) == 0
            assert assemblies == []

    def test_generator_gram_probe(self, assemblies):
        for kind in ("kernel", "corona"):
            random_problem(5, kind=kind)
            assert assemblies == []
        # a feasible draw assembles only T_K, once per attempt, for its lambda_max solve
        _, meta = random_problem(5)
        assert 1 <= len(assemblies) <= meta["attempt"]
        assert all(shape[1] == meta["dims"]["q"] for shape in assemblies)


class TestWindows:
    """A window of a larger context against a context built at its own N,
    and the Gram guard that a positive core margin settles."""

    def test_window_matches_own_context(self, battery):
        zs = list(interior_points(8))
        for item in battery:
            widest = OracleContext(item.data, 120)
            for N in (1, 37, 60):
                win, own = widest.window(N), OracleContext(item.data, N)
                rows = N * item.data.m
                for column in ("TgEp", "TkEq"):
                    wide = getattr(widest, column)
                    np.testing.assert_array_equal(getattr(win, column), wide[:rows])
                    assert np.shares_memory(getattr(win, column), wide)
                np.testing.assert_array_equal(win.Tg, own.Tg)
                np.testing.assert_array_equal(win.Tk, own.Tk)
                assert abs(win.margin - own.margin) <= 1e-12 * max(1.0, abs(own.margin))
                assert own.margin > 0.0
                assert _rel_diff(win.gram_solved, own.gram_solved) <= 1e-12
                assert _rel_diff(win.core_solved, own.core_solved) <= 1e-12
                assert _rel_diff(theta0_defect_oracle(win), theta0_defect_oracle(own)) <= 1e-12
                out = oracle_upsilon(win, item.derived.Theta0, zs)
                ref = oracle_upsilon(own, item.derived.Theta0, zs)
                for key in ("U11", "U12", "U21", "U22"):
                    assert max(_rel_diff(a, b) for a, b in zip(out[key], ref[key])) <= 1e-12
                for key in ("Delta0", "Delta1"):
                    assert _rel_diff(out[key], ref[key]) <= 1e-12

    def test_window_bounds(self, battery):
        ctx = OracleContext(battery[0].data, 12)
        assert ctx.window(12) is ctx
        for N in (0, 13):
            with pytest.raises(DimensionError):
                ctx.window(N)

    def test_gram_solve_on_infeasible_data(self, verdict_battery):
        contexts = (OracleContext(item.data, 60) for item in verdict_battery if not item.feasible)
        ctx = next(ctx for ctx in contexts if ctx.gram_margin > 0.0)
        assert ctx.margin <= 0.0
        E = ctx.TgEp
        ref = np.eye(ctx.p) - E.conj().T @ np.linalg.inv(dense_gram(ctx)) @ E
        assert _rel_diff(theta0_defect_oracle(ctx), ref) <= 1e-12
        with pytest.raises(InfeasibleError):
            ctx.require_definite()

    def test_feasible_oracle_skips_gram_margin(self, battery):
        item = battery[0]
        widest = OracleContext(item.data, 60)
        for ctx in (widest.window(30), widest):
            theta0_defect_oracle(ctx)
            oracle_upsilon(ctx, item.derived.Theta0, list(interior_points(4)))
            assert "gram_margin" not in vars(ctx)


class TestMargins:
    def test_static_row_margin_is_one(self):
        data = _static_row_data()
        for N in (1, 4, 9):
            assert OracleContext(data, N).margin == pytest.approx(1.0, abs=1e-12)

    def test_equal_numerator_margin_is_zero(self):
        data = _proportional_data(73, factor=1.0)
        assert OracleContext(data, 12).margin == pytest.approx(0.0, abs=1e-12)

    def test_margin_monotone_in_truncation(self, battery, oracle_cache):
        data = battery[0].data
        m30 = oracle_cache(data, 30).margin
        m60 = oracle_cache(data, 60).margin
        assert m60 <= m30 + 1e-12
        assert m60 > 0.0

    def test_require_definite_raises_when_infeasible(self, verdict_battery):
        bad = next(item for item in verdict_battery if not item.feasible)
        ctx = OracleContext(bad.data, 60)
        assert ctx.margin < 0.0
        with pytest.raises(InfeasibleError):
            ctx.require_definite()


class TestLambda:
    def test_zero_numerator(self, kernel_case):
        ctx = OracleContext(kernel_case.data, 10)
        np.testing.assert_allclose(ctx.lam, 0.0, atol=0.0)

    def test_half_numerator_has_norm_half(self):
        ctx = OracleContext(_proportional_data(74, factor=0.5), 12)
        lam = ctx.lam
        assert spectral_norm(lam) == pytest.approx(0.5, abs=1e-10)


class TestThetaOracle:
    def test_static_row_defect_and_samples(self):
        ctx = OracleContext(_static_row_data(), 8)
        M = theta0_defect_oracle(ctx)
        np.testing.assert_allclose(M, np.diag([0.0, 1.0]), atol=1e-13)
        theta = oracle_theta(ctx, np.array([[0.0], [1.0]]))
        for z in interior_points(6):
            np.testing.assert_allclose(theta.sample(z), [[0.0], [1.0]], atol=1e-13)

    def test_defect_matches_state_space(self, battery, oracle_cache):
        from leechsolve.core import theta0_defect
        item = battery[0]
        M_ss = theta0_defect(item.data, item.derived.Q0, item.derived.P1)
        M_or = theta0_defect_oracle(oracle_cache(item.data, 200))
        assert np.linalg.norm(M_ss - M_or) <= 1e-6

    def test_square_case_is_empty(self, corona_square_case, oracle_cache):
        ctx = oracle_cache(corona_square_case.data, 40)
        theta = oracle_theta(ctx, corona_square_case.derived.Theta0)
        assert theta.sample(0.5).shape == (corona_square_case.data.p, 0)
        D0, D1 = oracle_deltas(ctx, theta)
        assert D1.shape == (0, 0)

    def test_inner_on_circle(self, battery, oracle_cache):
        item = battery[0]
        ctx = oracle_cache(item.data, 200)
        theta = oracle_theta(ctx, item.derived.Theta0)
        k = item.data.p - item.data.m
        worst = max(
            np.linalg.norm(theta.sample(z).conj().T @ theta.sample(z) - np.eye(k))
            for z in circle_points(16))
        assert worst <= 1e-5

    def test_theta0_shape_guard(self, battery):
        ctx = OracleContext(battery[0].data, 10)
        with pytest.raises(DimensionError):
            ThetaOracle(ctx, np.zeros((1, 1)))


class TestOracleUpsilon:
    def test_zero_numerator_collapses(self, kernel_case, oracle_cache):
        ctx = oracle_cache(kernel_case.data, 60)
        zs = list(interior_points(4))
        out = oracle_upsilon(ctx, kernel_case.derived.Theta0, zs)
        q = kernel_case.data.q
        theta = oracle_theta(ctx, kernel_case.derived.Theta0)
        np.testing.assert_allclose(out["Delta0"], np.eye(q), atol=1e-12)
        for j, z in enumerate(zs):
            np.testing.assert_allclose(out["U12"][j], 0.0, atol=1e-13)
            np.testing.assert_allclose(out["U21"][j], 0.0, atol=1e-13)
            np.testing.assert_allclose(out["U22"][j], np.eye(q), atol=1e-12)
            np.testing.assert_allclose(out["U11"][j], theta.sample(z), atol=1e-12)

    def test_value_at_origin_is_delta0(self, battery, oracle_cache):
        item = battery[1]
        ctx = oracle_cache(item.data, 100)
        out = oracle_upsilon(ctx, item.derived.Theta0, [0.0])
        np.testing.assert_allclose(out["U22"][0], out["Delta0"], atol=1e-12)
        np.testing.assert_allclose(out["U21"][0], 0.0, atol=0.0)

    def test_matches_state_space(self, battery, oracle_cache):
        item = battery[0]
        ctx = oracle_cache(item.data, 200)
        zs = list(interior_points(4))
        out = oracle_upsilon(ctx, item.derived.Theta0, zs)
        c = item.coeffs
        for j, z in enumerate(zs):
            for key, F in (("U11", c.U11), ("U12", c.U12),
                           ("U21", c.U21), ("U22", c.U22)):
                assert np.linalg.norm(out[key][j] - evaluate(F, z)) <= 1e-6


class TestOracleDeltas:
    def test_match_state_space(self, battery, oracle_cache):
        for item in battery[:3]:
            ctx = oracle_cache(item.data, 200)
            theta = oracle_theta(ctx, item.derived.Theta0)
            D0, D1 = oracle_deltas(ctx, theta)
            assert np.linalg.norm(D0 - item.derived.Delta0) <= 1e-6
            assert np.linalg.norm(D1 - item.derived.Delta1) <= 1e-6


class TestAppendixPhi:
    def test_matches_feedback_form(self, battery, oracle_cache):
        item = battery[2]
        ctx = oracle_cache(item.data, 200)
        theta = oracle_theta(ctx, item.derived.Theta0)
        zs = list(interior_points(3))
        out = oracle_appendix_phi(ctx, theta, zs)
        phi = build_redheffer(item.coeffs)
        for j, z in enumerate(zs):
            for key, F in (("Phi11", phi.Phi11), ("Phi12", phi.Phi12),
                           ("Phi21", phi.Phi21), ("Phi22", phi.Phi22)):
                assert np.linalg.norm(out[key][j] - evaluate(F, z)) <= 1e-5

    def test_zero_numerator_feedback(self, kernel_case, oracle_cache):
        ctx = oracle_cache(kernel_case.data, 60)
        theta = oracle_theta(ctx, kernel_case.derived.Theta0)
        zs = list(interior_points(3))
        out = oracle_appendix_phi(ctx, theta, zs)
        for j in range(len(zs)):
            np.testing.assert_allclose(out["Phi11"][j], 0.0, atol=1e-12)
            np.testing.assert_allclose(out["Phi22"][j], 0.0, atol=1e-12)
            np.testing.assert_allclose(out["U"][j], 0.0, atol=1e-12)
            assert out["detV"][j] == pytest.approx(1.0, abs=1e-12)

    def test_outer_fraction_data(self, battery, oracle_cache):
        # det V is zero-free in the closed disc for feasible data; sample a few
        # interior and boundary points and require it stays well away from 0
        item = battery[3]
        ctx = oracle_cache(item.data, 100)
        theta = oracle_theta(ctx, item.derived.Theta0)
        zs = list(interior_points(4)) + list(circle_points(4))
        out = oracle_appendix_phi(ctx, theta, zs)
        assert min(abs(d) for d in out["detV"]) > 1e-3

    def test_lifting_defects(self, battery, oracle_cache):
        item = battery[4]
        ctx = oracle_cache(item.data, 200)
        theta = oracle_theta(ctx, item.derived.Theta0)
        assert bnabla_defect(ctx, theta) <= 1e-8
        assert delta1_appendix_defect(ctx, theta) <= 1e-8


class TestOperatorIdentities:
    def test_gram_inverse_identity(self, battery, oracle_cache):
        assert identity_gram_inverse(oracle_cache(battery[0].data, 60)) <= 1e-12

    def test_lambda_gram_identity(self, battery, oracle_cache):
        assert identity_lambda_gram(oracle_cache(battery[0].data, 60)) <= 1e-12

    def test_shift_compressions(self, battery, oracle_cache):
        ctx = oracle_cache(battery[1].data, 60)
        assert identity_shift_compression(ctx, which="g") <= 1e-12
        assert identity_shift_compression(ctx, which="k") <= 1e-12

    def test_resolvent_shift(self, battery, oracle_cache):
        ctx = oracle_cache(battery[1].data, 60)
        for z in (0.5, -0.3 + 0.4j):
            assert identity_resolvent_shift(ctx, z) <= 1e-12

    def test_resolvent_compression_square_argument(self, battery, oracle_cache):
        ctx = oracle_cache(battery[2].data, 60)
        rng = np.random.default_rng(3)
        Nm = ctx.N * ctx.m
        X = rng.standard_normal((Nm, Nm)) + 1j * rng.standard_normal((Nm, Nm))
        for z in (0.4, 0.2 - 0.5j):
            assert identity_resolvent_compression(ctx, ctx.gram, z) <= 1e-12
            assert identity_resolvent_compression(ctx, X, z) <= 1e-12

    def test_kernel_resolvent_identity(self, battery, oracle_cache):
        item = battery[0]
        ctx = oracle_cache(item.data, 200)
        G, K = item.data.g(), item.data.k()
        for z in (0.3, 0.1 + 0.4j):
            assert identity_kernel_resolvent(
                ctx, z, evaluate(G, z), evaluate(K, z)) <= 1e-8

    def test_theta_resolvent_identity(self, battery, oracle_cache):
        item = battery[0]
        ctx = oracle_cache(item.data, 200)
        theta = oracle_theta(ctx, item.derived.Theta0)
        for z in (0.25, -0.2 + 0.3j):
            assert identity_theta_resolvent(ctx, theta, z) <= 1e-8

    def test_riccati_from_operator(self, battery, oracle_cache):
        item = battery[0]
        d = item.derived
        ctx = oracle_cache(item.data, 200)
        assert gram_riccati_defect(ctx, d.R0, d.Gamma, d.Q) <= 1e-8

    def test_woodbury_inverse(self, battery, oracle_cache):
        item = battery[0]
        d = item.derived
        ctx = oracle_cache(item.data, 200)
        assert woodbury_defect(ctx, d.R0, d.Gamma, d.Omega) <= 1e-8

    def test_observability_factorization(self, battery):
        # Q equals W_obs* W0 with W0 = T_R^{-1} W_obs; cross-check the raw
        # builders on a short window against the long-window defect above
        item = battery[1]
        W = w_obs(item.data, 6)
        assert W.shape == (6 * item.data.m, item.data.n)
        np.testing.assert_allclose(W[:item.data.m], item.data.C, atol=0.0)

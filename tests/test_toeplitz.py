"""Truncated-operator oracle: truncations, margins, kernel function, identities."""

import functools

import numpy as np
import pytest

from leechsolve import generate, realization, toeplitz
from leechsolve.cli import main
from leechsolve.core import LeechData, solve
from leechsolve.errors import DimensionError, InfeasibleError, StabilityError
from leechsolve.files import load, read_problem, write_problem
from leechsolve.generate import random_problem
from leechsolve.linalg import spectral_norm
from leechsolve.realization import (
    Realization,
    evaluate,
    observability_blocks,
    observability_matrix,
)
from leechsolve.toeplitz import (
    OracleContext,
    ThetaOracle,
    lower_block_toeplitz,
    resolvent_down,
    resolvent_up,
    oracle_deltas,
    oracle_theta,
    oracle_upsilon,
    theta0_defect_oracle,
    toeplitz_gram,
    truncate,
)
from leechsolve.coefficients import build_redheffer
from tests.reference import (
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
    oracle_appendix_phi,
    woodbury_defect,
)
from tests.conftest import (
    block_toeplitz_loop,
    circle_points,
    dense_core,
    dense_gram,
    interior_points,
    lifted_loop,
    power_loop,
    resolvent_loop,
    unstable_data,
    upsilon_per_point,
)


def _static_row_data():
    """G = [1 0] static, K = 0."""
    return LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)),
                     B2=np.zeros((0, 1)), C=np.zeros((1, 0)),
                     D1=np.array([[1.0, 0.0]]), D2=np.zeros((1, 1)))


def _static_pair_data():
    """Static G (2 x 3) and K (2 x 1), n = 0: a window is copies of one block."""
    rng = np.random.default_rng(21)
    D1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    D2 = 0.3 * (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))
    return LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 3)), B2=np.zeros((0, 1)),
                     C=np.zeros((2, 0)), D1=D1, D2=D2)


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

    def test_one_truncation_of_g_and_k(self, monkeypatch):
        # a context truncates [G  K] once, one C A^k recurrence for both columns
        data, _ = random_problem(70)
        real = realization.observability_blocks
        calls = []

        def counting(C, A, count):
            calls.append(count)
            return real(C, A, count)

        monkeypatch.setattr(realization, "observability_blocks", counting)
        ctx = OracleContext(data, 40)
        assert calls == [39]
        monkeypatch.setattr(realization, "observability_blocks", real)
        for column, F in ((ctx.TgEp, data.g()), (ctx.TkEq, data.k())):
            ref = truncate(F, 40)
            assert column.shape == ref.shape
            assert np.linalg.norm(column - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_bad_inputs(self):
        data, _ = random_problem(72)
        with pytest.raises(DimensionError):
            truncate(data.g(), 0)
        F = Realization(np.array([[1.1]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(StabilityError):
            truncate(F, 4)


def _non_normal_realization():
    """A = [[0.5, 1e4], [0, 0.5]]: |A^k| peaks near 7e6 before it decays, with
    three input columns (two of G, one of K) and two output rows."""
    rng = np.random.default_rng(5)
    B, C, D = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for shape in ((2, 3), (2, 2), (2, 3)))
    return Realization(np.array([[0.5, 1e4], [0.0, 0.5]]), B, C, D), 2


class TestLogDepthRecurrences:
    """Each doubling recurrence against its sequential reference (tests.conftest),
    on a draw's [G  K] and on a non-normal A, at lengths around the powers of
    two.  The stated bound: both orders of evaluation carry a componentwise
    error of at most about k d eps times the same recurrence run on absolute
    values (Higham, Accuracy and Stability of Numerical Algorithms, 3.5), k the
    length and d the inner dimension, so they agree within 8 (k + 1) (d + 1)
    eps of that majorant."""

    LENGTHS = (1, 2, 3, 5, 63, 64, 65, 99, 200)

    @pytest.fixture(params=["draw", "non-normal"])
    def realization(self, request):
        """A realization of [G  K] and the number p of G's columns."""
        if request.param == "non-normal":
            return _non_normal_realization()
        data, _ = random_problem(7)
        return data.joint(), data.p

    @staticmethod
    def _within(fast, ref, majorant, k, d):
        assert fast.shape == ref.shape
        bound = 8 * (k + 1) * (d + 1) * toeplitz.EPS * majorant
        assert np.all(np.abs(fast - ref) <= bound)

    def test_observability_blocks(self, realization):
        F, _ = realization
        for k in self.LENGTHS:
            fast = observability_blocks(F.C, F.A, k)
            assert fast.shape == (k, F.out_dim, F.state_dim)
            majorant = power_loop(np.abs(F.C), np.abs(F.A), k)
            self._within(fast, power_loop(F.C, F.A, k), majorant, k, F.state_dim)

    def test_lifted_powers(self, realization):
        F, p = realization
        G = Realization(F.A, F.B[:, :p], F.C, F.D[:, :p])
        absolute = Realization(*(np.abs(M) for M in (F.A, F.B, F.C, F.D)))
        signature = np.repeat([1.0, -1.0], [p, F.in_dim - p])
        d = F.state_dim + F.in_dim
        for b in self.LENGTHS:
            lead = truncate(F, b)
            lift = toeplitz._lifted(F, lead, b, p)
            majorants = lifted_loop(absolute, np.abs(lead), b)
            for name, refs in (("gram", lifted_loop(G, lead[:, :p], b)),
                               ("core", lifted_loop(F, lead, b, signature))):
                for fast, ref, majorant in zip(lift[name], refs, majorants):
                    self._within(fast, ref, majorant, b, d)

    def test_resolvents_over_an_array_of_points(self, realization):
        F, _ = realization
        z = np.concatenate([[0.0], interior_points(7), circle_points(4)])
        r = F.out_dim
        for N in self.LENGTHS:
            X = truncate(F, N)
            for up, scan in ((True, resolvent_up), (False, resolvent_down)):
                fast = scan(X, z, r)
                assert fast.shape == z.shape + X.shape
                for point, Y in zip(z, fast):
                    ref = resolvent_loop(X, point, r, up)
                    majorant = resolvent_loop(np.abs(X), abs(point), r, up)
                    self._within(Y, ref, majorant, N, 1)
                    self._within(scan(X, point, r), ref, majorant, N, 1)

    def test_lower_block_toeplitz_is_the_block_loop(self, realization):
        # a gather: no arithmetic, so bit for bit
        F, _ = realization
        for N in self.LENGTHS:
            column = truncate(F, N)
            blocks = list(column.reshape(N, F.out_dim, F.in_dim))
            np.testing.assert_array_equal(lower_block_toeplitz(column, F.out_dim),
                                          block_toeplitz_loop(blocks))


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

    def test_unstable_data_raises(self):
        # LeechData.g() and .k() do not assert stability, so truncate tests A
        with pytest.raises(StabilityError):
            OracleContext(unstable_data(), 5)

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


def _ladder(data, ladder):
    """The contexts of a ladder as `oracle` cuts them: the rungs of
    OracleContext.ladder() at the widest window, the smallest first, which
    must be `ladder`."""
    contexts = OracleContext(data, ladder[-1]).ladder()
    assert [ctx.N for ctx in contexts] == list(ladder)
    return contexts


def _dense_margin(ctx):
    return float(np.linalg.eigvalsh(ctx.core)[0])


@pytest.fixture
def updates(monkeypatch):
    """The answers of toeplitz.ladder_margin, one per updated rung."""
    answers = []
    update = toeplitz.ladder_margin

    def recording(*args):
        answers.append(update(*args))
        return answers[-1]

    monkeypatch.setattr(toeplitz, "ladder_margin", recording)
    return answers


@pytest.fixture
def every_update(monkeypatch):
    """Every whole multiple of a ladder's first rung updates its margin,
    whatever toeplitz.update_pays says, so a test of the update's accuracy
    covers every such rung."""
    monkeypatch.setattr(toeplitz, "update_pays", lambda k, size: True)


@pytest.fixture
def factors(monkeypatch):
    """The factors (Q, s) of E = Q diag(s) Q* that toeplitz.ladder_margin
    hands to _updated_margin."""
    calls = []
    updated = toeplitz._updated_margin

    def recording(w, U, Q, s, scale):
        calls.append((Q, s))
        return updated(w, U, Q, s, scale)

    monkeypatch.setattr(toeplitz, "_updated_margin", recording)
    return calls


class TestLadderMargins:
    """Rungs that are whole multiples of a ladder's first rung take their
    margins from its eigendecomposition (ladder_margin); the dense eigvalsh
    of each rung's core is the reference."""

    @staticmethod
    def _check_ladder(data, ladder):
        contexts = _ladder(data, ladder)
        margins = [ctx.margin for ctx in contexts]
        for ctx, margin in zip(contexts, margins):
            scale = max(1.0, float(np.linalg.norm(ctx.core, 2)))
            assert abs(margin - _dense_margin(ctx)) <= 1e-12 * scale
        assert all(b <= a for a, b in zip(margins, margins[1:]))

    def test_updates_match_dense_on_draws(self, draws, updates, every_update):
        assert {data.m for data in draws} == {1, 2}
        for data in draws:
            for ladder in ((50, 100, 200), (30, 60, 120)):
                self._check_ladder(data, ladder)
        assert len(updates) == 160 and None not in updates

    def test_updates_match_dense_on_battery(self, battery, updates, every_update):
        for item in battery:
            for ladder in ((50, 100, 200), (30, 60, 120)):
                self._check_ladder(item.data, ladder)
        assert len(updates) == 4 * len(battery) and None not in updates

    @staticmethod
    def _check_factors(data, factors):
        """Each update's Q diag(s) Q* is E = core - blockdiag(core_b, ...)."""
        for ladder in ((50, 100, 200), (30, 60, 120)):
            first, *rungs = _ladder(data, ladder)
            first.margin  # the first rung's own eigendecomposition: no update
            assert factors == []
            # widest first: a rung's margin reads the updated rung above it
            for ctx in rungs[::-1]:
                ctx.margin
                ((Q, s),) = factors
                factors.clear()
                core = ctx.core
                E = core - np.kron(np.eye(ctx.N // first.N), first.core)
                scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(core)))))
                assert np.linalg.norm((Q * s) @ Q.conj().T - E) <= 1e-13 * scale

    def test_update_factor_is_exact_on_draws(self, draws, factors, every_update):
        for data in draws:
            self._check_factors(data, factors)

    def test_update_factor_is_exact_on_battery(self, battery, factors, every_update):
        for item in battery:
            self._check_factors(item.data, factors)

    def test_report_reads_the_window_margins(self, tmp_path):
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        for seed in (3, 7):
            assert main(["generate", "--seed", str(seed), "--out", problem]) == 0
            assert main(["oracle", problem, "--out", report]) == 0
            margins = load(report)["margins"]
            data = read_problem(problem)[0]
            contexts = _ladder(data, (50, 100, 200))
            assert margins == {str(ctx.N): ctx.margin for ctx in contexts}

    def test_non_multiple_ladder_is_dense(self, tmp_path, updates):
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        assert main(["generate", "--seed", "3", "--out", problem]) == 0
        assert main(["oracle", problem, "--truncation", "150", "--out", report]) == 0
        doc = load(report)
        assert doc["truncations"] == [37, 75, 150] and updates == []
        data = read_problem(problem)[0]
        contexts = _ladder(data, (37, 75, 150))
        assert doc["margins"] == {str(ctx.N): _dense_margin(ctx) for ctx in contexts}

    # update_pays(k, rows) at m = 1 on the ladder 50, 100, 200: the rung of
    # 100 rows updates with rank k = 2 n, that of 200 rows with k = 6 n, so
    # n = 9 | 10 straddles the rule at 100 rows and n = 8 | 9 at 200 rows
    RULE_LADDER = (50, 100, 200)
    RULE_CASES = {8: (100, 200), 9: (100,), 10: ()}

    def test_update_rule_picks_each_path(self, monkeypatch, updates):
        assert toeplitz.update_pays(18, 100) and not toeplitz.update_pays(20, 100)
        assert toeplitz.update_pays(48, 200) and not toeplitz.update_pays(54, 200)
        eigvalsh, dense = np.linalg.eigvalsh, []

        def counting(M, *args, **kwargs):
            dense.append(len(M))
            return eigvalsh(M, *args, **kwargs)

        for n, updated in self.RULE_CASES.items():
            data, _ = random_problem(1000, dims=(n, 1, 2, 2))
            contexts = _ladder(data, self.RULE_LADDER)
            updates.clear()
            dense.clear()
            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            margins = [ctx.margin for ctx in contexts]
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            # the first rung eigen-solves with its vectors only when a rung
            # above it updates; every other rung is dense
            first = self.RULE_LADDER[0]
            assert len(updates) == len(updated), n
            assert dense == [N for N in self.RULE_LADDER
                             if N not in updated and not (N == first and updated)], n
            for ctx, margin in zip(contexts, margins):
                scale = max(1.0, float(np.linalg.norm(ctx.core, 2)))
                assert abs(margin - _dense_margin(ctx)) <= 1e-12 * scale

    def test_both_paths_agree(self, monkeypatch):
        # each rung of RULE_CASES, updated and dense, the two margins within
        # roundoff of |core|; the updated ladder stays monotone
        for n in self.RULE_CASES:
            data, _ = random_problem(1000, dims=(n, 1, 2, 2))
            paths = []
            for forced in (True, False):
                monkeypatch.setattr(toeplitz, "update_pays", lambda k, size: forced)
                paths.append([ctx.margin for ctx in _ladder(data, self.RULE_LADDER)])
            updated, dense = paths
            assert all(b <= a for a, b in zip(updated, updated[1:]))
            for ctx, a, b in zip(_ladder(data, self.RULE_LADDER), updated, dense):
                scale = max(1.0, float(np.linalg.norm(ctx.core, 2)))
                assert abs(a - b) <= 1e-11 * scale

    def test_widest_rung_reads_alone(self, updates):
        # n = 8: both rungs above the first update; the widest margin, read
        # first, is one update and reads no other rung, and the middle one,
        # read next, is one more, reported between the two
        data, _ = random_problem(1000, dims=(8, 1, 2, 2))
        first, middle, widest = _ladder(data, self.RULE_LADDER)
        widest.margin
        assert len(updates) == 1 and list(widest._margins) == [200]
        assert widest.margin <= middle.margin <= first.margin
        assert len(updates) == 2
        for ctx in (middle, widest):
            scale = max(1.0, float(np.linalg.norm(ctx.core, 2)))
            assert abs(ctx.margin - _dense_margin(ctx)) <= 1e-12 * scale

    def test_static_data_has_no_update(self, updates, every_update):
        # n = 0: the window is c copies of the first rung, E = 0
        data = _static_pair_data()
        D1, D2 = data.D1, data.D2
        expected = float(np.linalg.eigvalsh(D1 @ D1.conj().T - D2 @ D2.conj().T)[0])
        for ctx in _ladder(data, (10, 20, 40)):
            assert ctx.margin == pytest.approx(expected, abs=1e-13)
        assert len(updates) == 2 and None not in updates

    def test_infeasible_report_names_its_first_nonpositive_rung(self, tmp_path):
        # K of draw 2 scaled by t: the margin turns nonpositive at N = 200,
        # 100 and 50 in turn
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        base, _ = random_problem(2)
        for t, first in ((1.8, 200), (1.85, 100), (2.0, 50)):
            data = LeechData(base.A, base.B1, t * base.B2, base.C, base.D1, t * base.D2)
            contexts = _ladder(data, (50, 100, 200))
            dense = {ctx.N: _dense_margin(ctx) for ctx in contexts}
            assert next(N for N, m in dense.items() if m <= 0.0) == first
            write_problem(data, problem)
            assert main(["oracle", problem, "--out", report]) == InfeasibleError.exit_code
            doc = load(report)
            for ctx in contexts:
                scale = max(1.0, float(np.linalg.norm(ctx.core, 2)))
                assert abs(doc["margins"][str(ctx.N)] - dense[ctx.N]) <= 1e-12 * scale
            assert f"at N={first})" in doc["verdict"]

    def test_traced_names_stay_cached_properties(self):
        for name in ("gram", "core", "margin", "gram_margin", "core_inv", "gram_inv",
                     "lam", "ill_inv"):
            assert isinstance(OracleContext.__dict__[name], functools.cached_property)


@pytest.fixture
def sweeps(monkeypatch):
    """The matrix ("gram" or "core") and the (window, chunk) sizes in blocks
    of each forward sweep of toeplitz.ldl_sweep: a gram sweep solves with
    the T_G E_p it shifts (Y is Z), a core sweep with T_K E_q."""
    calls = []
    sweep = toeplitz.ldl_sweep

    def recording(gram_b, Y, Z, m, lifted=None):
        calls.append(("gram" if Y is Z else "core", len(Y) // m, len(gram_b) // m))
        return sweep(gram_b, Y, Z, m, lifted)

    monkeypatch.setattr(toeplitz, "ldl_sweep", recording)
    return calls


@pytest.fixture
def lifts(monkeypatch):
    """The chunk sizes b of the toeplitz._lifted calls."""
    calls = []
    lift = toeplitz._lifted

    def recording(F, lead, b, p):
        calls.append(b)
        return lift(F, lead, b, p)

    monkeypatch.setattr(toeplitz, "_lifted", recording)
    return calls


def _lu_solve(ctx, name):
    """core^{-1} [T_K E_q, S_m* T_G E_p] or gram^{-1} [T_G E_p, S_m* T_G E_p] by LU."""
    Y = ctx.TkEq if name == "core" else ctx.TgEp
    return np.linalg.solve(getattr(ctx, name), np.hstack([Y, toeplitz.shift_up(ctx.TgEp, ctx.m)]))


class TestLadderSolves:
    """core_solved and gram_solved against LU.  A ladder whose rungs are
    whole multiples of its first sweeps its widest window once per matrix in
    chunks of the first rung, and each rung takes its own backward sweep;
    every window of any other ladder is one chunk (ldl_sweep)."""

    LADDERS = ((50, 100, 200), (30, 60, 120), (37, 75, 150))

    @classmethod
    def _check(cls, data, sweeps, ladders=LADDERS):
        """Every solve of every ladder within 1e-12 of LU; a rung whose core
        is not definite raises instead of solving with it."""
        for ladder in ladders:
            contexts = _ladder(data, ladder)
            definite = [ctx.margin > 0.0 for ctx in contexts]
            sweeps.clear()
            for ctx, solves_core in zip(contexts, definite):
                names = ("gram", "core") if solves_core else ("gram",)
                for name in names:
                    ref = _lu_solve(ctx, name)
                    solved = getattr(ctx, f"{name}_solved")
                    assert np.linalg.norm(solved - ref) <= 1e-12 * np.linalg.norm(ref)
                if not solves_core:
                    with pytest.raises(InfeasibleError):
                        ctx.core_solved
            if ladder[-1] % ladder[0]:
                expected = [(name, N, N) for N, solves_core in zip(ladder, definite)
                            for name in ("gram", "core")[:1 + solves_core]]
            else:
                expected = [(name, ladder[-1], ladder[0])
                            for name in ("gram", "core")[:1 + any(definite)]]
            assert sweeps == expected

    def test_solves_match_dense_on_draws(self, draws, sweeps):
        assert {data.m for data in draws} == {1, 2}
        for data in draws:
            self._check(data, sweeps)

    def test_solves_match_dense_on_battery(self, battery, sweeps):
        for item in battery:
            self._check(item.data, sweeps)

    def test_static_data_sweeps(self, sweeps):
        # n = 0: the lifted system has no state, and every chunk is gram_b
        self._check(_static_pair_data(), sweeps)

    def test_solves_on_an_infeasible_draw(self, sweeps):
        data, _ = random_problem(0, kind="infeasible")
        widest = _ladder(data, (50, 100, 200))[-1]
        assert widest.margin <= 0.0 < widest.gram_margin
        self._check(data, sweeps)

    def test_default_ladder_makes_no_dense_core_solve(self, monkeypatch, tmp_path, sweeps,
                                                      lifts):
        # every solve is a chunk of the first rung (50 m rows), and neither
        # the widest gram nor the widest core is built: no Gram matrix is
        # wider than the first rung.  [G  K] is lifted to chunks of the first
        # rung once, for the margins and both sweeps, and the widest column
        # is scanned once, at all the sample points, for every rung
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        lu, gram, scan = np.linalg.solve, toeplitz.toeplitz_gram, toeplitz.resolvent_down
        sizes, made, columns, scans = [], [], [], []

        def spy(a, b):
            sizes.append(len(a))
            return lu(a, b)

        def gram_spy(column, r, signature=None):
            columns.append(len(column))
            return gram(column, r, signature)

        def recording(*args):
            made.append(OracleContext(*args))
            return made[-1]

        def scan_spy(X, z, r):
            scans.append((np.shape(z), X.shape))
            return scan(X, z, r)

        monkeypatch.setattr("leechsolve.cli.OracleContext", recording)
        monkeypatch.setattr(toeplitz, "resolvent_down", scan_spy)
        for seed in (3, 7):
            assert main(["generate", "--seed", str(seed), "--out", problem]) == 0
            for calls in (sizes, made, sweeps, columns, lifts, scans):
                calls.clear()
            monkeypatch.setattr(np.linalg, "solve", spy)
            monkeypatch.setattr(toeplitz, "toeplitz_gram", gram_spy)
            assert main(["oracle", problem, "--out", report]) == 0
            monkeypatch.setattr(np.linalg, "solve", lu)
            monkeypatch.setattr(toeplitz, "toeplitz_gram", gram)
            data = read_problem(problem)[0]
            m = data.m
            assert sizes and max(sizes) <= 50 * m
            assert columns and max(columns) <= 50 * m
            (widest,) = made
            assert widest.N == 200
            assert "gram" not in vars(widest) and "core" not in vars(widest)
            assert sorted(sweeps) == [("core", 200, 50), ("gram", 200, 50)]
            assert lifts == [50]
            assert scans == [((16,), (200 * m, data.p + data.q))]

    def test_non_multiple_ladder_is_dense(self, monkeypatch, tmp_path, sweeps):
        # oracle --truncation 150: every window is one chunk, an LU of its own,
        # and its core, built once, serves both its margin and its sweep
        problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
        assert main(["generate", "--seed", "3", "--out", problem]) == 0
        gram, cores = toeplitz.toeplitz_gram, []

        def gram_spy(column, r, signature=None):
            if signature is not None:
                cores.append(len(column) // r)
            return gram(column, r, signature)

        monkeypatch.setattr(toeplitz, "toeplitz_gram", gram_spy)
        assert main(["oracle", problem, "--truncation", "150", "--out", report]) == 0
        assert load(report)["truncations"] == [37, 75, 150]
        assert sorted(sweeps) == [(name, N, N) for name in ("core", "gram") for N in (37, 75, 150)]
        assert cores == [37, 75, 150]

    def test_solves_do_not_read_the_margin_updates(self, sweeps):
        # the margins of this draw are dense (update_pays); its solves
        # still sweep
        data, _ = random_problem(1000, dims=(34, 2, 3, 2))
        self._check(data, sweeps, ((50, 100, 200),))
        assert sweeps == [("gram", 200, 50), ("core", 200, 50)]


class TestLadderOwner:
    """OracleContext.ladder() alone fixes a ladder's rungs: a window cut by
    hand records nothing, so the order of the cuts cannot change the lift
    chunk, and the answers of a ladder do not depend on the order its rungs
    are read in."""

    @staticmethod
    def _solve(contexts):
        """Margin, gram_solved and core_solved of each context, in order."""
        return [(ctx.margin, ctx.gram_solved, ctx.core_solved) for ctx in contexts]

    def test_hand_cut_windows_are_dense(self, battery, sweeps, lifts):
        for item in battery[:3]:
            for ladder in (False, True):
                widest = OracleContext(item.data, 120)
                rungs = [ctx.N for ctx in widest.ladder()] if ladder else []
                for order in ((1, 37, 60), (60, 30)):
                    sweeps.clear()
                    self._solve([widest.window(N) for N in order])
                    # no sweep runs in chunks shorter than its window but
                    # the ladder's own, of the widest in chunks of its first rung
                    assert all(chunk == N or rungs[:1] == [chunk] and N == 120
                               for _, N, chunk in sweeps), sweeps
                    assert widest._rungs == rungs
                assert lifts == ([30] if ladder else [])
                lifts.clear()

    def test_window_has_no_ladder(self):
        # a window answers through its widest context, which would not read
        # rungs recorded on the window, so cutting a ladder from it is an
        # error; the widest window is the context itself and cuts one
        widest = OracleContext(random_problem(3)[0], 200)
        with pytest.raises(DimensionError):
            widest.window(100).ladder()
        assert widest._rungs == []
        assert [ctx.N for ctx in widest.window(200).ladder()] == [50, 100, 200]

    def test_ladder_lifts_once_in_chunks_of_its_first_rung(self, battery, sweeps, lifts):
        for item in battery[:3]:
            sweeps.clear()
            lifts.clear()
            contexts = OracleContext(item.data, 120).ladder()
            assert [ctx.N for ctx in contexts] == [30, 60, 120]
            self._solve(contexts)
            assert lifts == [30]
            assert sweeps == [("gram", 120, 30), ("core", 120, 30)]

    def test_rung_order_changes_no_bit(self, battery, draws):
        for data in [item.data for item in battery[:3]] + draws[:4]:
            ascending = self._solve(OracleContext(data, 120).ladder())
            descending = self._solve(OracleContext(data, 120).ladder()[::-1])[::-1]
            for (m1, g1, c1), (m2, g2, c2) in zip(ascending, descending):
                assert m1 == m2
                np.testing.assert_array_equal(g1, g2)
                np.testing.assert_array_equal(c1, c2)


class TestGramForms:
    """The Gram forms X* gram^{-1} X, X = [T_G E_p, S_m* T_G E_p], that
    theta0_defect_oracle and _delta_squares read from gram_solved, against
    the same forms by LU; a gram-only ladder makes gram sweeps only."""

    @staticmethod
    def _check(data, sweeps):
        for ladder in TestLadderSolves.LADDERS:
            sweeps.clear()
            for ctx in _ladder(data, ladder):
                X = np.hstack([ctx.TgEp, toeplitz.shift_up(ctx.TgEp, ctx.m)])
                ref = X.conj().T @ _lu_solve(ctx, "gram")
                forms = X.conj().T @ ctx.gram_solved
                assert np.linalg.norm(forms - ref) <= 1e-12 * np.linalg.norm(ref)
            if ladder[-1] % ladder[0]:
                assert sweeps == [("gram", N, N) for N in ladder]
            else:
                assert sweeps == [("gram", ladder[-1], ladder[0])]

    def test_forms_match_dense_on_draws(self, draws, sweeps):
        assert {data.m for data in draws[:20]} == {1, 2}
        for data in draws[:20]:
            self._check(data, sweeps)

    def test_forms_match_dense_on_battery(self, battery, sweeps):
        for item in battery:
            self._check(item.data, sweeps)


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
        W = observability_matrix(item.data.C, item.data.A, 6)
        assert W.shape == (6 * item.data.m, item.data.n)
        np.testing.assert_allclose(W[:item.data.m], item.data.C, atol=0.0)

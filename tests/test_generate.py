"""Instance generator: determinism, kinds, dimension control, contractions."""

import re
from collections import Counter

import numpy as np
import pytest

from leechsolve import generate, toeplitz
from leechsolve.core import solve, validate
from leechsolve.errors import DimensionError, InfeasibleError
from leechsolve.generate import (
    EST_ORDER,
    random_contraction,
    random_problem,
    random_stable_matrix,
)
from leechsolve.linalg import is_schur_stable
from leechsolve.realization import Realization, evaluate, hinf_norm_estimate
from leechsolve.toeplitz import OracleContext, toeplitz_gram, truncate


class TestRandomProblem:
    def test_deterministic_per_seed(self):
        a, meta_a = random_problem(90)
        b, meta_b = random_problem(90)
        for name in ("A", "B1", "B2", "C", "D1", "D2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert meta_a == meta_b

    def test_different_seeds_differ(self):
        a, _ = random_problem(91)
        b, _ = random_problem(92)
        assert not np.array_equal(a.A, b.A)

    def test_feasible_kind_solves(self):
        data, meta = random_problem(93)
        assert meta["margin_estimate"] > 0.0
        derived = solve(data)
        assert derived.margins["gap_min_eig"] > 0.0

    def test_infeasible_kind_fails(self):
        data, meta = random_problem(94, kind="infeasible")
        assert meta["margin_estimate"] < 0.0
        with pytest.raises(InfeasibleError):
            solve(data)

    def test_kernel_kind_zeroes_numerator(self):
        data, _ = random_problem(95, kind="kernel")
        assert not data.B2.any() and not data.D2.any()

    def test_corona_kind_structure(self):
        data, _ = random_problem(96, kind="corona")
        assert data.q == data.m
        assert not data.B2.any()
        np.testing.assert_allclose(data.D2, np.eye(data.m), atol=0.0)
        # corona scaling makes the truncated Gram matrix of G exceed I
        ctx = OracleContext(data, 80)
        assert ctx.margin > 1.0

    def test_requested_dimensions(self):
        data, meta = random_problem(97, dims=(3, 2, 3, 1))
        assert (data.n, data.m, data.p, data.q) == (3, 2, 3, 1)
        assert meta["dims"] == {"n": 3, "m": 2, "p": 3, "q": 1}

    def test_closed_loop_band_filter(self):
        _, meta = random_problem(98, closed_loop_band=(0.60, 0.93))
        assert 0.60 <= meta["closed_loop_radius"] <= 0.93

    def test_validation_always_passes(self):
        for seed in (90, 93, 95, 96):
            data, _ = random_problem(seed, kind="kernel" if seed == 95 else "feasible")
            assert validate(data).ok

    def test_meta_records_draw(self):
        _, meta = random_problem(99)
        assert meta["seed"] == 99
        assert meta["kind"] == "feasible"
        assert meta["attempt"] >= 1


def _no_draw(*args, **kwargs):
    raise AssertionError("random_problem drew before it checked its arguments")


class TestArguments:
    """Arguments are checked before any random number is drawn."""

    def test_unknown_kind_raises(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="feasible, infeasible, kernel, corona"):
            random_problem(3, kind="feasable")

    @pytest.mark.parametrize("kind, dims, rule", [
        ("feasible", (2, 2, 1, 1), "1 <= m <= p <= n + m"),  # p < m
        ("feasible", (2, 1, 4, 1), "1 <= m <= p <= n + m"),  # p > n + m
        ("feasible", (3, 1, 2, 0), "q >= 1"),  # no K to scale
        ("infeasible", (3, 1, 2, 0), "q >= 1"),
    ], ids=["p_below_m", "p_above_n_plus_m", "feasible_no_K", "infeasible_no_K"])
    def test_bad_dims_raise(self, monkeypatch, kind, dims, rule):
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        with pytest.raises(DimensionError, match=re.escape(rule)):
            random_problem(0, kind=kind, dims=dims)


class TestSquareDraws:
    """A square G (p = m) of every kind but infeasible is outer: G^-1 is stable."""

    DIMS = (3, 2, 2, 1)

    def test_square_draws_are_outer(self, corona_square_case):
        # seed 3 first draws an A - B1 D1^-1 C with an eigenvalue of modulus
        # 1.0004, so G^-1 has a pole in the disc and the data are infeasible,
        # though the margins at N = 50 and 100 are positive: it is redrawn
        data, meta = random_problem(3, dims=self.DIMS)
        assert meta["attempt"] > 1
        assert is_schur_stable(data.A - data.B1 @ np.linalg.solve(data.D1, data.C))
        assert solve(data).margins["gap_min_eig"] > 0.0
        # the check draws no random number: an outer draw keeps its bits
        data, meta = corona_square_case.data, corona_square_case.meta
        first, _ = generate._draw_once(np.random.default_rng(30), "corona", (3, 2, 2, 2))
        assert meta["attempt"] == 1
        for name in ("A", "B1", "B2", "C", "D1", "D2"):
            assert np.array_equal(getattr(data, name), getattr(first, name))

    def test_square_kernel_draws_solve(self):
        for seed in range(60):
            data, _ = random_problem(seed, kind="kernel", dims=self.DIMS)
            assert solve(data).margins["gap_min_eig"] > 0.0


def probe_margins(data, meta):
    """lambda_min(T_G T_G*) by eigvalsh at every probe of a draw, rebuilt from
    the returned D1 and meta["boosts"] (a corona draw's C and D1 carry its scale)."""
    m, p, boosts = data.m, data.p, meta["boosts"]
    scale = meta["scale"] if meta["kind"] == "corona" else 1.0
    step = np.hstack([0.75 * np.eye(m), np.zeros((m, p - m))])
    margins = []
    for j in range(boosts + 1):
        G = Realization(data.A, data.B1, data.C / scale, data.D1 / scale - (boosts - j) * step)
        margins.append(np.linalg.eigvalsh(toeplitz_gram(truncate(G, EST_ORDER), m))[0])
    return margins


class TestBoostProbe:
    """The boost loop stops at the first probe whose Gram matrix of G reaches
    lambda_min 0.2 (a Cholesky decision), and a draw eigen-solves only what it
    reports."""

    @staticmethod
    def check_rule(data, meta):
        margins = probe_margins(data, meta)
        assert all(margin < 0.2 for margin in margins[:-1])
        if meta["boosts"] < 6:
            assert margins[-1] >= 0.2

    @pytest.mark.parametrize("kind", ["feasible", "infeasible", "kernel", "corona"])
    def test_boost_rule(self, kind):
        for seed in range(50):
            self.check_rule(*random_problem(seed, kind=kind))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_boost_rule_at_larger_n(self, n):
        for seed in range(50):
            self.check_rule(*random_problem(seed, dims=(n, 2, 3, 2)))

    def test_eigensolves_per_draw(self, monkeypatch):
        # per _draw_once call: eigvalsh and cholesky calls on N-block
        # matrices, and margin updates (ladder_margin)
        attempts = []

        def counting(name, fn):
            def wrapper(M, *args, **kwargs):
                if M.shape[-1] >= EST_ORDER:
                    attempts[-1][name] += 1
                return fn(M, *args, **kwargs)
            return wrapper

        draw_once = generate._draw_once

        def tracking(*args):
            attempts.append(Counter())
            return draw_once(*args)

        update = toeplitz.ladder_margin

        def updating(*args):
            attempts[-1]["ladder_margin"] += 1
            return update(*args)

        monkeypatch.setattr(generate, "_draw_once", tracking)
        monkeypatch.setattr(toeplitz, "ladder_margin", updating)
        for name in ("eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        # the eigen-solves of the scale: lambda_max for a feasible or
        # infeasible draw, lambda_min of the Gram matrix for a corona draw
        scales = {"feasible": 1, "infeasible": 1, "kernel": 0, "corona": 1}
        # the margin, read from the widest rung of the ladder 25, 50, 100
        # (update_pays): one update where it updates (m = 2 and n <= 8, or
        # m = 1 and n <= 3), else one eigvalsh of the 100-block core
        updated = {(2, 2), (2, 3), (2, 4), (2, 8), (1, 2), (1, 3)}
        # seeds 11 and 12 draw m = 1 at n = 2 and 3
        draws = [(seed, kind, None) for kind in scales for seed in range(13)]
        draws += [(seed, kind, (n, 2, 3, 2)) for kind in ("feasible", "infeasible")
                  for n in (8, 32) for seed in range(1000, 1010)]
        seen, paths = set(), set()
        for seed, kind, dims in draws:
            attempts.clear()
            _, meta = random_problem(seed, kind=kind, dims=dims)
            boosts = meta["boosts"]
            seen.add(boosts)
            # one Cholesky per probe; after six boosts one more decides that the
            # Gram matrix is definite at all
            probes = boosts + 1 if boosts < 6 else 6 + (kind in ("feasible", "infeasible"))
            updates = int((meta["dims"]["m"], meta["dims"]["n"]) in updated)
            dense = 1 - updates
            paths.add((dense, updates))
            assert attempts[-1] == Counter(eigvalsh=scales[kind] + dense, cholesky=probes,
                                           ladder_margin=updates)
        assert {0, 1, 6} <= seen
        assert paths == {(0, 1), (1, 0)}


class TestMarginEstimate:
    """margin_estimate is the smallest eigenvalue of the N = EST_ORDER core,
    whichever path the oracle ladder takes to it."""

    @staticmethod
    def check(data, meta):
        core = OracleContext(data, EST_ORDER).core
        w = np.linalg.eigvalsh(core)
        scale = max(1.0, float(np.max(np.abs(w))))  # |core|_2
        assert abs(meta["margin_estimate"] - float(w[0])) <= 1e-11 * scale

    @pytest.mark.parametrize("kind", ["feasible", "infeasible", "kernel", "corona"])
    def test_matches_dense_core(self, kind):
        for seed in range(40):
            self.check(*random_problem(seed, kind=kind))

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_dense_core_at_larger_n(self, n):
        for seed in range(40):
            self.check(*random_problem(seed, dims=(n, 2, 3, 2)))


class TestLadder:
    """Every draw gets the verdict of its kind, up to n = 256."""

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_stable_matrix_places_its_radii(self, n):
        rng = np.random.default_rng(n)
        radii = np.abs(np.linalg.eigvals(random_stable_matrix(rng, n)))
        assert 0.75 - 1e-8 <= radii.min() and radii.max() <= 0.88 + 1e-8

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (8, 16, 32, 64) for seed in range(3)]
                             + [(128, 0), (128, 1), (256, 0)])
    def test_feasible_draws_solve(self, n, seed):
        data, _ = random_problem(1000 + seed, dims=(n, 2, 3, 2))
        d = solve(data)
        assert d.margins["gap_min_eig"] > 0.0
        assert d.Theta0.shape == (3, 1)
        assert d.margins["theta0_dropped_max_eig"] < 1e-12

    def test_infeasible_draws_are_verdicts(self):
        # an infeasible draw is an InfeasibleError, never a BreakdownError
        for seed in range(20):
            data, _ = random_problem(seed, kind="infeasible")
            with pytest.raises(InfeasibleError):
                solve(data)


class TestRandomContraction:
    def test_norm_bound(self):
        Y = random_contraction(1, 2, 3)
        assert hinf_norm_estimate(Y) <= 0.9 + 1e-9

    def test_constant_only(self):
        Y = random_contraction(2, 2, 2, constant_only=True)
        assert Y.state_dim == 0
        assert np.linalg.norm(evaluate(Y, 0.5), 2) == pytest.approx(0.9, abs=1e-12)

    def test_empty_sizes(self):
        Y = random_contraction(3, 0, 2)
        assert (Y.out_dim, Y.in_dim) == (0, 2)

    def test_deterministic(self):
        a = random_contraction(4, 2, 2)
        b = random_contraction(4, 2, 2)
        assert np.array_equal(a.D, b.D) and np.array_equal(a.C, b.C)

    def test_custom_bound(self):
        Y = random_contraction(5, 1, 1, norm_bound=0.5)
        assert hinf_norm_estimate(Y) <= 0.5 + 1e-9

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 1), (1, 2), (2, 3)])
    def test_estimate_stays_at_its_bound(self, rows, cols):
        # Y is scaled by the estimate of its draw, so Y's own estimate, read
        # from a grid of rounded values, may sit above the bound by rounding only
        for seed in range(40):
            for bound in (0.9, 0.5):
                Y = random_contraction(seed, rows, cols, norm_bound=bound)
                assert hinf_norm_estimate(Y) <= bound + 1e-12, (seed, bound)

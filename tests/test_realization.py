"""State-space realizations: evaluation, algebra, inversion, norms."""

import numpy as np
import pytest

from leechsolve import realization
from leechsolve.coefficients import apply_lft, central_solution
from leechsolve.errors import (
    DimensionError,
    EvaluationError,
    NotInvertibleError,
    StabilityError,
)
from leechsolve.generate import random_contraction, random_stable_matrix
from leechsolve.linalg import spectral_norm
from leechsolve.realization import (
    NORM_GRID,
    Realization,
    add,
    constant,
    evaluate,
    hconcat,
    hinf_norm_estimate,
    inverse,
    product,
    taylor_blocks,
    vconcat,
    zeros,
)
from tests.conftest import circle_points, interior_points
from tests.reference import observability_matrix


def _random_realization(seed, out_dim, in_dim, n=3):
    rng = np.random.default_rng(seed)
    A = random_stable_matrix(rng, n)
    B = rng.standard_normal((n, in_dim)) + 1j * rng.standard_normal((n, in_dim))
    C = rng.standard_normal((out_dim, n)) + 1j * rng.standard_normal((out_dim, n))
    D = rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
    return Realization(A, B, C, D)


class TestEvaluate:
    def test_at_origin_gives_constant_term(self):
        F = _random_realization(1, 2, 3)
        np.testing.assert_allclose(evaluate(F, 0.0), F.D)

    def test_static_realization_is_constant(self):
        D = np.array([[1.0, 2.0]])
        F = constant(D)
        assert F.state_dim == 0
        np.testing.assert_allclose(evaluate(F, 0.7 + 0.1j), D)

    def test_scalar_geometric_series(self):
        # a = 0.5, b = c = 1, d = 0 gives F(z) = z / (1 - z/2); F(0.5) = 2/3
        F = Realization(np.array([[0.5]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        assert evaluate(F, 0.5)[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_taylor_blocks_of_scalar(self):
        F = Realization(np.array([[0.0]]), np.array([[1.0]]),
                        np.array([[0.5]]), np.array([[1.0]]))
        blocks = taylor_blocks(F, 3)
        np.testing.assert_allclose([b[0, 0] for b in blocks], [1.0, 0.5, 0.0])

    def test_taylor_series_sums_to_value(self):
        F = _random_realization(2, 2, 2)
        z = 0.3 - 0.2j
        blocks = taylor_blocks(F, 120)
        series = sum(b * z**j for j, b in enumerate(blocks))
        np.testing.assert_allclose(series, evaluate(F, z), atol=1e-12)


class TestAlgebra:
    @pytest.mark.parametrize("op,pointwise", [
        (add, lambda x, y: x + y),
        (product, lambda x, y: x @ y),
    ])
    def test_binary_ops_pointwise(self, op, pointwise):
        F = _random_realization(3, 2, 2)
        G = _random_realization(4, 2, 2)
        H = op(F, G)
        for z in list(circle_points(16)) + list(interior_points(16)):
            np.testing.assert_allclose(
                evaluate(H, z), pointwise(evaluate(F, z), evaluate(G, z)), atol=1e-10)

    def test_concatenations_pointwise(self):
        F = _random_realization(5, 2, 3)
        H = vconcat(_random_realization(7, 1, 3), F)
        W = hconcat(F, _random_realization(8, 2, 1))
        for z in interior_points(8):
            Fz = evaluate(F, z)
            assert evaluate(H, z).shape == (3, 3)
            np.testing.assert_allclose(evaluate(H, z)[1:], Fz, atol=1e-10)
            np.testing.assert_allclose(evaluate(W, z)[:, :3], Fz, atol=1e-10)

    def test_identity_is_neutral(self):
        F = _random_realization(9, 2, 2)
        H = product(F, constant(np.eye(2)))
        for z in interior_points(8):
            np.testing.assert_allclose(evaluate(H, z), evaluate(F, z), atol=1e-12)

    def test_zeros_annihilates(self):
        Z = zeros(2, 3)
        np.testing.assert_allclose(evaluate(Z, 0.4), np.zeros((2, 3)))

    def test_sum_at_origin(self):
        F = _random_realization(10, 2, 2)
        G = _random_realization(11, 2, 2)
        np.testing.assert_allclose(evaluate(add(F, G), 0.0), F.D + G.D)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            add(_random_realization(1, 2, 2), _random_realization(2, 3, 2))
        with pytest.raises(DimensionError):
            product(_random_realization(1, 2, 2), _random_realization(2, 3, 2))


class TestInverse:
    def test_constant_inverse(self):
        D = np.array([[2.0, 0.0], [1.0, 4.0]])
        G = inverse(constant(D))
        np.testing.assert_allclose(evaluate(G, 0.3), np.linalg.inv(D), atol=1e-14)

    def test_pointwise_inverse(self):
        F = _random_realization(12, 3, 3)
        # make D well conditioned
        F = Realization(F.A, F.B, F.C, F.D + 4 * np.eye(3))
        G = inverse(F)
        for z in interior_points(12):
            np.testing.assert_allclose(
                evaluate(F, z) @ evaluate(G, z), np.eye(3), atol=1e-9)

    def test_double_inverse_round_trip(self):
        F = _random_realization(13, 2, 2)
        F = Realization(F.A, F.B, F.C, F.D + 3 * np.eye(2))
        H = inverse(inverse(F))
        for z in interior_points(8):
            np.testing.assert_allclose(evaluate(H, z), evaluate(F, z), atol=1e-9)

    def test_singular_constant_term_raises(self):
        F = _random_realization(14, 2, 2)
        F = Realization(F.A, F.B, F.C, np.zeros((2, 2)))
        with pytest.raises(NotInvertibleError):
            inverse(F)


class TestNorm:
    def test_constant_norm(self):
        D = np.array([[3.0, 0.0], [0.0, 1.0]])
        assert hinf_norm_estimate(constant(D)) == pytest.approx(3.0, abs=1e-12)

    def test_shift_has_norm_one(self):
        # F(z) = z
        F = Realization(np.array([[0.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        assert hinf_norm_estimate(F) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_peak_on_circle(self):
        # F(z) = 1 + z peaks at z = 1 with value 2
        F = Realization(np.array([[0.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[1.0]]))
        assert hinf_norm_estimate(F) == pytest.approx(2.0, rel=1e-3)

    def test_unstable_raises(self):
        F = Realization(np.array([[1.5]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(StabilityError):
            hinf_norm_estimate(F)


class TestTruncateBlocks:
    def test_block_count(self):
        F = _random_realization(15, 2, 3)
        blocks = taylor_blocks(F, 7)
        assert len(blocks) == 7
        assert all(b.shape == (2, 3) for b in blocks)

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    def test_one_recurrence(self, out_dim):
        # the Taylor blocks F_1 .. F_N are the blocks C A^k of the
        # observability matrix, times B, bit for bit.  The product is taken
        # block by block: numpy multiplies a one-row block by a matrix-vector
        # kernel, which can differ in the last bits from the stacked product
        F = _random_realization(16, out_dim, 2, n=5)
        N = 9
        W = observability_matrix(F.C, F.A, N)
        assert W.shape == (N * out_dim, 5)
        markov = np.concatenate([Wk @ F.B for Wk in np.split(W, N)])
        assert markov.tobytes() == np.concatenate(taylor_blocks(F, N + 1)[1:]).tobytes()
        assert observability_matrix(F.C, F.A, 0).shape == (0, 5)


def _scalar_hinf(F):
    """Reference for hinf_norm_estimate: one scalar evaluate per point of the
    NORM_GRID grid, then four zooms of 17 points, each spread over one step
    of the previous pass either side of its best point."""
    def best_of(thetas):
        values = [spectral_norm(evaluate(F, np.exp(1j * t))) for t in thetas]
        j = int(np.argmax(values))
        return thetas[j], values[j]

    step = 2.0 * np.pi / NORM_GRID
    centre, best = best_of(step * np.arange(NORM_GRID))
    for _ in range(4):
        centre, value = best_of([centre + step * i / 8 for i in range(-8, 9)])
        best = max(best, value)
        step /= 8
    return best


def _function_battery(battery):
    """The central solution, U12, U11 and an LFT solution with a 2-state Y."""
    for item in battery:
        c = item.coeffs
        Y = random_contraction(item.seed, c.free_dim, c.q)
        yield from (central_solution(c), c.U12, c.U11, apply_lft(c, Y))


class TestBatchedEvaluation:
    POINTS = np.concatenate([circle_points(16), interior_points(16)])

    def test_matches_stacked_scalar_values(self):
        F = _random_realization(16, 2, 3, n=4)
        values = evaluate(F, self.POINTS)
        assert values.shape == (self.POINTS.size, 2, 3)
        for z, value in zip(self.POINTS, values):
            np.testing.assert_allclose(value, evaluate(F, z), rtol=0.0, atol=1e-13)

    def test_static_realization_repeats_the_constant(self):
        D = np.array([[1.0, 2.0]])
        values = evaluate(constant(D), self.POINTS)
        assert values.shape == (self.POINTS.size, 1, 2)
        for z, value in zip(self.POINTS, values):
            np.testing.assert_array_equal(value, evaluate(constant(D), z))

    def test_singular_resolvent_raises(self, monkeypatch):
        # in the one solve, and in the last of three one-point solves
        F = Realization(np.array([[2.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(EvaluationError):
            evaluate(F, np.array([0.1, 0.5, -0.3]))
        monkeypatch.setattr(realization, "EVAL_ENTRIES", 1)
        with pytest.raises(EvaluationError, match="one of 3 points"):
            evaluate(F, np.array([0.1, -0.3, 0.5]))

    def test_chunks_of_points_change_no_bit(self, monkeypatch):
        # 5 points per solve at n = 4, then one point per solve: the values
        # are those of the one solve at the default size, bit for bit, and
        # no points give no values at any size
        F = _random_realization(17, 2, 3, n=4)
        solve, sizes = np.linalg.solve, []

        def counted(a, b):
            sizes.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        whole = evaluate(F, self.POINTS)
        assert sizes == [self.POINTS.size]
        for entries, step in ((5 * 16, 5), (15, 1)):
            sizes.clear()
            monkeypatch.setattr(realization, "EVAL_ENTRIES", entries)
            np.testing.assert_array_equal(evaluate(F, self.POINTS), whole)
            assert sizes == [min(step, self.POINTS.size - start)
                             for start in range(0, self.POINTS.size, step)]
            assert evaluate(F, np.zeros(0)).shape == (0, 2, 3)

    def test_norm_estimate_matches_scalar_loop(self, battery):
        for F in _function_battery(battery):
            assert hinf_norm_estimate(F) == pytest.approx(_scalar_hinf(F), abs=1e-12)

    def test_norm_estimate_reaches_the_dense_grid(self, battery):
        zs = np.exp(2j * np.pi * np.arange(16384) / 16384)
        for F in _function_battery(battery):
            dense = float(np.max(spectral_norm(evaluate(F, zs))))
            assert hinf_norm_estimate(F) >= (1.0 - 1e-12) * dense

    def test_norm_estimate_makes_few_batched_calls(self, battery, monkeypatch):
        calls = []

        def counted(F, z):
            calls.append(np.ndim(z))
            return evaluate(F, z)

        monkeypatch.setattr(realization, "evaluate", counted)
        for F in _function_battery(battery):
            calls.clear()
            hinf_norm_estimate(F)
            assert 0 < len(calls) <= 5 and all(ndim == 1 for ndim in calls)

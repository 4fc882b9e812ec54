"""Matrix primitives: definiteness tests, rank factors, stability, roots."""

import numpy as np
import pytest

from leechsolve import linalg
from leechsolve.errors import DefinitenessError, DimensionError
from leechsolve.linalg import (
    as_cmatrix,
    herm,
    hermitian_posdef_check,
    is_schur_stable,
    minimal_rank_factor,
    schur_squarings,
    singular_extremes,
    spectral_norm,
    sqrtm_posdef,
    stein_doubling,
)
from tests.conftest import kron_stein


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestPosdefCheck:
    def test_identity_is_pd(self):
        assert hermitian_posdef_check(np.eye(2))

    def test_zero_is_not_strictly_positive(self):
        assert not hermitian_posdef_check(np.array([[0.0]]))

    def test_two_by_two_with_known_eigenvalues(self):
        # eigenvalues 1 and 3
        assert hermitian_posdef_check(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            hermitian_posdef_check(np.zeros((2, 3)))

    def test_non_hermitian_fails(self):
        assert not hermitian_posdef_check(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_sum_of_pd_is_pd(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            F = random_complex(rng, 3, 3)
            G = random_complex(rng, 3, 3)
            M = F @ F.conj().T + 0.1 * np.eye(3)
            N = G @ G.conj().T + 0.1 * np.eye(3)
            assert hermitian_posdef_check(M)
            assert hermitian_posdef_check(N)
            assert hermitian_posdef_check(M + N)

    def test_empty_matrix_is_pd(self):
        assert hermitian_posdef_check(np.zeros((0, 0)))


class TestMinimalRankFactor:
    def test_diagonal_rank_one(self):
        F = minimal_rank_factor(np.diag([0.0, 1.0]), 1e-8)
        assert F.shape == (2, 1)
        np.testing.assert_allclose(F @ F.conj().T, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero_matrix_gives_empty_factor(self):
        F = minimal_rank_factor(np.zeros((3, 3)), 1e-8)
        assert F.shape == (3, 0)

    def test_reconstruction_of_random_gram(self):
        rng = np.random.default_rng(1)
        F0 = random_complex(rng, 4, 2)
        M = F0 @ F0.conj().T
        F = minimal_rank_factor(M, 1e-8)
        assert F.shape == (4, 2)
        np.testing.assert_allclose(F @ F.conj().T, M, atol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(DefinitenessError):
            minimal_rank_factor(np.diag([1.0, -1.0]), 1e-8)

    def test_columns_ordered_by_decreasing_weight(self):
        F = minimal_rank_factor(np.diag([1.0, 9.0, 4.0]), 1e-8)
        norms = np.linalg.norm(F, axis=0)
        assert np.all(np.diff(norms) <= 0)
        np.testing.assert_allclose(norms, [3.0, 2.0, 1.0], atol=1e-12)


class TestSchurStable:
    def test_zero_matrix(self):
        assert is_schur_stable(np.zeros((3, 3)))

    def test_eigenvalue_on_circle(self):
        assert not is_schur_stable(np.array([[1.0]]))

    def test_defective_triangular(self):
        # non-normal but rho = 0.9
        assert is_schur_stable(np.array([[0.9, 1.0], [0.0, 0.9]]))

    def test_unstable(self):
        assert not is_schur_stable(np.array([[1.2, 0.0], [0.0, 0.1]]))

    def test_empty(self):
        assert is_schur_stable(np.zeros((0, 0)))

    def test_unitary_similarity_invariance(self):
        rng = np.random.default_rng(2)
        A = np.array([[0.7, 0.4], [0.0, -0.6]], dtype=complex)
        for _ in range(6):
            U, _ = np.linalg.qr(random_complex(rng, 2, 2))
            assert is_schur_stable(U @ A @ U.conj().T)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_schur_stable(np.zeros((2, 3)))

    def test_radius_just_inside_the_tolerance(self):
        assert is_schur_stable(np.array([[1.0 - 1e-6, 1.0], [0.0, 0.3]]))

    def test_radius_inside_1_but_within_the_tolerance(self):
        A = np.array([[1.0 - 1e-10, 1.0], [0.0, 0.3]])
        assert not is_schur_stable(A)


class TestSchurStableCost:
    def test_one_squaring_sequence_and_no_stein_sum(self, monkeypatch):
        calls = []
        build, doubling = linalg.schur_squarings, linalg.stein_doubling

        def counting_build(A):
            calls.append("squarings")
            return build(A)

        def counting_doubling(*args, **kwargs):
            calls.append("stein")
            return doubling(*args, **kwargs)

        monkeypatch.setattr(linalg, "schur_squarings", counting_build)
        monkeypatch.setattr(linalg, "stein_doubling", counting_doubling)
        rng = np.random.default_rng(4)
        for A in (0.2 * random_complex(rng, 6, 6), np.array([[1.2, 0.0], [0.0, 0.1]])):
            calls.clear()
            is_schur_stable(A)
            assert calls == ["squarings"]


def with_radius(rng, n, radius):
    """Non-normal matrix (unitarily similar to a triangle) of spectral radius `radius`."""
    T = np.triu(random_complex(rng, n, n), 1) * 0.3
    lam = rng.uniform(0.1, radius, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    lam[0] = radius
    T[np.diag_indices(n)] = lam
    U, _ = np.linalg.qr(random_complex(rng, n, n))
    return U @ T @ U.conj().T


class TestSteinDoubling:
    def _agrees(self, A, W, rel):
        P = stein_doubling(A, W)
        assert P is not None
        ref = kron_stein(A, W)
        assert np.linalg.norm(P - ref) <= rel * np.linalg.norm(ref)

    def test_random_stable_matches_kronecker(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 6):
            B = random_complex(rng, n, 2)
            self._agrees(with_radius(rng, n, 0.9), B @ B.conj().T, 1e-12)

    def test_large_transient_matches_kronecker(self):
        # ||A^j|| peaks near 1e4 before it decays; P is about 1e8
        self._agrees(np.array([[0.5, 1e4], [0.0, 0.5]]), np.eye(2), 1e-12)

    def test_slow_decay_matches_kronecker(self):
        rng = np.random.default_rng(7)
        self._agrees(with_radius(rng, 5, 0.999), np.eye(5), 1e-10)

    def test_indefinite_rhs(self):
        # the series converges for any W, as the Newton step needs
        rng = np.random.default_rng(8)
        W = herm(random_complex(rng, 4, 4))
        self._agrees(with_radius(rng, 4, 0.8), W, 1e-12)

    def test_uncertified_gives_none(self):
        assert stein_doubling(np.array([[1.0]]), np.eye(1)) is None
        assert stein_doubling(np.diag([1.2, 0.1]), np.eye(2)) is None
        assert stein_doubling(1e200 * np.eye(2), np.eye(2)) is None

    def test_empty(self):
        assert stein_doubling(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)

    def test_squarings_serve_every_right_hand_side(self):
        # the stopping rule reads A alone: one sequence sums a whole stack
        rng = np.random.default_rng(9)
        A = with_radius(rng, 4, 0.95)
        squarings = schur_squarings(A)
        assert np.array_equal(squarings[0], A)
        for Ak, Anext in zip(squarings, squarings[1:]):
            assert np.array_equal(Anext, Ak @ Ak)
        B = random_complex(rng, 4, 2)
        W = np.stack([np.eye(4), B @ B.conj().T])
        P = stein_doubling(A, W)
        for Pi, Wi in zip(P, W):
            assert np.array_equal(Pi, stein_doubling(A, Wi))
        assert schur_squarings(np.diag([1.2, 0.1])) is None
        assert schur_squarings(np.zeros((3, 3))) == ()


class TestRootsAndNorms:
    def test_sqrtm_posdef_squares_back(self):
        rng = np.random.default_rng(3)
        F = random_complex(rng, 4, 4)
        M = herm(F @ F.conj().T + 0.5 * np.eye(4))
        S = sqrtm_posdef(M)
        np.testing.assert_allclose(S @ S, M, atol=1e-11)
        np.testing.assert_allclose(S, S.conj().T, atol=1e-12)

    def test_sqrtm_rejects_non_pd(self):
        with pytest.raises(DefinitenessError):
            sqrtm_posdef(np.diag([1.0, -0.5]))

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(4)
        for shape in ((3, 5), (5, 3), (4, 4)):
            M = random_complex(rng, *shape)
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)

    def test_spectral_norm_of_a_stack_matches_each_slice(self):
        rng = np.random.default_rng(6)
        for shape in ((7, 3, 5), (7, 5, 3), (2, 3, 4, 4)):
            M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            norms = spectral_norm(M)
            assert norms.shape == shape[:-2]
            ref = np.linalg.norm(M, 2, axis=(-2, -1))
            np.testing.assert_allclose(norms, ref, rtol=1e-10)
        assert spectral_norm(np.zeros((4, 0, 3))).shape == (4,)

    def test_singular_extremes_match_svd(self):
        rng = np.random.default_rng(5)
        M = random_complex(rng, 5, 3)
        smin, smax = singular_extremes(M)
        sv = np.linalg.svd(M, compute_uv=False)
        assert smax == pytest.approx(sv[0], rel=1e-10)
        assert smin == pytest.approx(sv[-1], rel=1e-8, abs=1e-12)

    def test_singular_extremes_resolve_small_singular_values(self):
        # eig(M* M) cannot see sigma_min / sigma_max below about 1.5e-8, so
        # both sides of the 1e-10 rank cut of validate and is_observable
        # would read as noise
        rng = np.random.default_rng(12)
        for r in (1e-9, 1e-11):
            for _ in range(5):
                U = np.linalg.qr(random_complex(rng, 3, 3))[0]
                V = np.linalg.qr(random_complex(rng, 3, 3))[0]
                smin, smax = singular_extremes(U @ np.diag([1.0, 0.5, r]) @ V.conj().T)
                assert smax == pytest.approx(1.0, rel=1e-12)
                assert smin == pytest.approx(r, rel=1e-3)
                assert (smin > 1e-10 * smax) == (r > 1e-10)

    def test_as_cmatrix_rejects_nan(self):
        with pytest.raises(DimensionError):
            as_cmatrix(np.array([[np.nan]]), "M")

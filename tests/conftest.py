"""Shared instances for the test suite.

Everything expensive is session-scoped: a battery of feasible problems with
their solved data and coefficients, a cache of truncated-operator contexts
keyed by problem content, and the feasible/infeasible battery used by the
solvability-equivalence check.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from leechsolve import build_upsilon, random_problem, solve
from leechsolve.toeplitz import OracleContext

BATTERY_SEEDS = (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)
FEASIBLE_SEEDS = tuple(range(201, 221))
INFEASIBLE_SEEDS = tuple(range(301, 311))


def circle_points(count, offset=0.35):
    return np.exp(1j * (offset + 2.0 * np.pi * np.arange(count) / count))


def kron_stein(A, W):
    """Dense reference for P - A P A* = W: the n^2 x n^2 Kronecker system."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    K = np.eye(n * n, dtype=complex) - np.kron(A, A.conj())
    return np.linalg.solve(K, np.asarray(W, dtype=complex).reshape(n * n)).reshape(n, n)


def interior_points(count, radius=0.9, seed=1234):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * phi)


@pytest.fixture(scope="session")
def battery():
    """Ten feasible instances with moderate closed-loop decay rates."""
    items = []
    for seed in BATTERY_SEEDS:
        data, meta = random_problem(seed, closed_loop_band=(0.60, 0.93))
        derived = solve(data)
        coeffs = build_upsilon(derived)
        items.append(SimpleNamespace(seed=seed, data=data, meta=meta,
                                     derived=derived, coeffs=coeffs))
    return items


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized OracleContext factory; contexts are reused across tests."""
    cache = {}

    def get(data, N):
        key = (data.A.tobytes(), data.B1.tobytes(), data.B2.tobytes(),
               data.C.tobytes(), data.D1.tobytes(), data.D2.tobytes(), N)
        if key not in cache:
            cache[key] = OracleContext(data, N)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def kernel_case():
    """K identically zero (B2 = 0, D2 = 0)."""
    data, meta = random_problem(21, kind="kernel")
    derived = solve(data)
    return SimpleNamespace(seed=21, data=data, meta=meta, derived=derived,
                           coeffs=build_upsilon(derived))


@pytest.fixture(scope="session")
def corona_case():
    """Corona data (D2 = I, B2 = 0) with p > m."""
    data, meta = random_problem(22, kind="corona")
    assert data.p > data.m
    derived = solve(data)
    return SimpleNamespace(seed=22, data=data, meta=meta, derived=derived,
                           coeffs=build_upsilon(derived))


@pytest.fixture(scope="session")
def corona_square_case():
    """Corona data with p = m, where the free parameter is 0 x q."""
    data, meta = random_problem(30, kind="corona", dims=(3, 2, 2, 2))
    assert data.p == data.m
    derived = solve(data)
    return SimpleNamespace(seed=30, data=data, meta=meta, derived=derived,
                           coeffs=build_upsilon(derived))


@pytest.fixture(scope="session")
def verdict_battery():
    """20 feasible plus 10 infeasible instances for the solvability check."""
    items = []
    for seed in FEASIBLE_SEEDS:
        data, meta = random_problem(seed, kind="feasible")
        items.append(SimpleNamespace(seed=seed, data=data, meta=meta,
                                     feasible=True))
    for seed in INFEASIBLE_SEEDS:
        data, meta = random_problem(seed, kind="infeasible")
        items.append(SimpleNamespace(seed=seed, data=data, meta=meta,
                                     feasible=False))
    return items

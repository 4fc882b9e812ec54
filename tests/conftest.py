"""Shared instances and reference implementations for the test suite.

Everything expensive is session-scoped: a battery of feasible problems with
their solved data and coefficients, a cache of truncated-operator contexts
keyed by problem content, and the feasible/infeasible battery used by the
solvability-equivalence check.  The references are the plain dense forms of
the structured Toeplitz paths: block-by-block assembly, dense Gram products
and explicit inverses, one resolvent recursion per sample point.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from leechsolve import build_upsilon, core, linalg, random_problem, solve
from leechsolve.linalg import herm, sqrtm_posdef
from leechsolve.toeplitz import OracleContext, lower_block_toeplitz

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


def fixed_point_riccati(A, Gamma, R0, C, max_steps=10000):
    """Reference stabilizing Riccati solution: the plain fixed-point map
    Q <- A* Q A + W* (R0 - Gamma* Q Gamma)^{-1} W, W = C - Gamma* Q A, from
    Q = 0 until a step is below 1e-15 (1 + ||Q||)."""
    A, Gamma, R0, C = (np.asarray(M, dtype=complex) for M in (A, Gamma, R0, C))
    Q = np.zeros_like(A)
    for _ in range(max_steps):
        W = C - Gamma.conj().T @ Q @ A
        Qn = A.conj().T @ Q @ A + W.conj().T @ np.linalg.solve(R0 - Gamma.conj().T @ Q @ Gamma, W)
        Qn = 0.5 * (Qn + Qn.conj().T)
        step = float(np.linalg.norm(Qn - Q))
        Q = Qn
        if step <= 1e-15 * (1.0 + float(np.linalg.norm(Q))):
            return Q
    raise AssertionError(f"fixed-point reference did not converge in {max_steps} steps")


def block_toeplitz_loop(blocks):
    """Reference lower block-triangular Toeplitz assembly, one block at a time."""
    N = len(blocks)
    r, c = blocks[0].shape
    T = np.zeros((N * r, N * c), dtype=complex)
    for j, blk in enumerate(blocks):
        for i in range(N - j):
            T[(i + j) * r:(i + j + 1) * r, i * c:(i + 1) * c] = blk
    return T


def dense_toeplitz(ctx):
    """T_G and T_K on the context's window, gathered from its first block columns."""
    return lower_block_toeplitz(ctx.TgEp, ctx.m), lower_block_toeplitz(ctx.TkEq, ctx.m)


def dense_gram(ctx):
    """Reference T_G T_G* from the dense product."""
    Tg, _ = dense_toeplitz(ctx)
    M = Tg @ Tg.conj().T
    return 0.5 * (M + M.conj().T)


def dense_core(ctx):
    """Reference T_G T_G* - T_K T_K* from the dense products."""
    Tg, Tk = dense_toeplitz(ctx)
    M = Tg @ Tg.conj().T - Tk @ Tk.conj().T
    return 0.5 * (M + M.conj().T)


def resolvent_loop(X, z, r, up=True):
    """Reference (I - z S*)^{-1} X (up) or (I - z S)^{-1} X at one point z:
    the Horner recursion, one block at a time."""
    Y = X.astype(complex).copy()
    N = X.shape[0] // r
    order = range(N - 2, -1, -1) if up else range(1, N)
    step = 1 if up else -1
    for i in order:
        Y[i * r:(i + 1) * r] += z * Y[(i + step) * r:(i + step + 1) * r]
    return Y


def power_loop(C, A, count):
    """Reference [C, C A, ..., C A^(count-1)], one product per block."""
    blocks = [np.asarray(C)]
    for _ in range(count - 1):
        blocks.append(blocks[-1] @ A)
    return np.array(blocks[:count])


def lifted_loop(F, lead, b, signature=None):
    """Reference lift of F = (A, B, C, D) to chunks of b blocks, (A^b, C_L,
    B_L J B_L*, B_L J D_L*) with J the signature (the identity when None),
    from the powers A^0 .. A^(b-1) one product at a time; `lead` stacks the
    first b Taylor blocks c_l of F, and block i of B_L J D_L* is
    A^(b-1-i) sum_{l<=i} A^l B J c_l*."""
    A, B, C = F.A, F.B, F.C
    n, m = len(A), len(C)
    powers = power_loop(np.eye(n, dtype=complex), A, b)
    J = np.ones(B.shape[1]) if signature is None else signature
    CL = np.vstack([C @ P for P in powers])
    BL = np.hstack([P @ B for P in powers[::-1]])
    c = lead.reshape(b, m, -1)
    partial, BD = np.zeros((n, m), dtype=complex), []
    for i in range(b):
        partial = partial + powers[i] @ (B * J) @ c[i].conj().T
        BD.append(powers[b - 1 - i] @ partial)
    return powers[-1] @ A, CL, (BL * np.tile(J, b)) @ BL.conj().T, np.hstack(BD)


def upsilon_per_point(ctx, Theta0, zs):
    """Reference samples of U11..U22 and Delta0, Delta1: explicit inverses of
    the dense Gram matrices and one resolvent recursion per point and block."""
    p, q, m, k = ctx.p, ctx.q, ctx.m, ctx.p - ctx.m
    core_inv = np.linalg.inv(dense_core(ctx))
    gram_inv = np.linalg.inv(dense_gram(ctx))
    Tg, Tk = dense_toeplitz(ctx)
    TgEp, TkEq = Tg[:, :p], Tk[:, :q]
    N = np.zeros_like(TgEp @ Theta0)
    N[:-m] = (TgEp @ Theta0)[m:]
    d0sq = np.eye(q) + TkEq.conj().T @ core_inv @ TkEq
    d1sq = np.eye(k) + N.conj().T @ (core_inv - gram_inv) @ N
    Delta0, Delta1 = (sqrtm_posdef(0.5 * (M + M.conj().T)) for M in (d0sq, d1sq))
    d0i = np.linalg.inv(Delta0) if q else Delta0
    d1i = np.linalg.inv(Delta1) if k else Delta1
    wn, wk = core_inv @ N, core_inv @ TkEq
    out = {"U11": [], "U12": [], "U21": [], "U22": [], "Delta0": Delta0, "Delta1": Delta1}
    for z in zs:
        rn, rk = resolvent_loop(wn, z, m), resolvent_loop(wk, z, m)
        out["U11"].append((Theta0 - z * (TgEp.conj().T @ rn)) @ d1i)
        out["U21"].append((-z * (TkEq.conj().T @ rn)) @ d1i)
        out["U12"].append((TgEp.conj().T @ rk) @ d0i)
        out["U22"].append(d0i + (TkEq.conj().T @ rk) @ d0i)
    return out


def interior_points(count, radius=0.9, seed=1234):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * phi)


def singular_riccati_data():
    """A 2-state instance that passes validation and whose truncated Gram
    margin is positive (0.1012 at N = 200), but whose pair Riccati solution
    is numerically singular (smallest eigenvalue about 1e-14): C barely sees
    the second state.  The data is feasible, and solve must say so without
    inverting Q."""
    from leechsolve.core import LeechData
    return LeechData(A=np.diag([0.5, 0.6]), B1=np.eye(2), B2=np.zeros((2, 1)),
                     C=np.array([[1.0, 1e-6]]), D1=np.array([[1.0, 0.0]]),
                     D2=np.array([[0.1]]))


def with_unobservable_states(data, seed=0):
    """`data` with two unobservable states appended: A = [[A, 0], [L, diag(0.4,
    -0.6)]] with a random coupling L, random input rows, and C = [C, 0].  The
    new states never reach the output, so G and K are unchanged, A stays
    stable, and {C, A} is not observable."""
    from leechsolve.core import LeechData
    rng = np.random.default_rng(seed)
    n = data.n

    def randc(rows, cols):
        return 0.3 * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    A = np.block([[data.A, np.zeros((n, 2))], [randc(2, n), np.diag([0.4, -0.6])]])
    return LeechData(A=A, B1=np.vstack([data.B1, randc(2, data.p)]),
                     B2=np.vstack([data.B2, randc(2, data.q)]),
                     C=np.hstack([data.C, np.zeros((data.m, 2))]), D1=data.D1, D2=data.D2)


def square_numerator_data():
    """random_problem(1) with B1 and D1 cut to m columns and K scaled by 0.2:
    p = m, so the free parameter is 0 x q and theta0 keeps no eigenvalue.
    The data solves."""
    from leechsolve.core import LeechData
    data, _ = random_problem(1)
    m = data.m
    return LeechData(A=data.A, B1=data.B1[:, :m], B2=0.2 * data.B2, C=data.C,
                     D1=data.D1[:, :m], D2=0.2 * data.D2)


def unstable_data():
    """random_problem(3) with A scaled to spectral radius 1.37: it fails
    validation, and its truncations diverge."""
    data, _ = random_problem(3)
    rho = np.max(np.abs(np.linalg.eigvals(data.A)))
    return dataclasses.replace(data, A=data.A * (1.37 / rho))


def squaring_builds(monkeypatch):
    """Each matrix whose squaring sequence linalg builds from here on, in
    order; schur_squarings' kept answer is cleared first, so nothing that ran
    before decides a count."""
    built = []
    build = linalg._build_squarings

    def counting(A):
        built.append(np.array(A))
        return build(A)

    monkeypatch.setattr(linalg, "_last", (None, None))
    monkeypatch.setattr(linalg, "_build_squarings", counting)
    return built


def rank_deficient_defect(monkeypatch):
    """Make solve's kernel defect M lose its smallest kept eigenpair: the
    (p - m)-th largest eigenvalue of M falls to roundoff, inside theta0's
    bound, as when the kernel condition fails numerically."""
    kernel_defect = core._kernel_defect

    def deficient(data, *args):
        M, Omega0 = kernel_defect(data, *args)
        w, V = np.linalg.eigh(M)
        v = V[:, data.m]  # ascending order: the smallest of the top p - m
        return herm(M - w[data.m] * np.outer(v, v.conj())), Omega0

    monkeypatch.setattr(core, "_kernel_defect", deficient)


def builds_of(built, M):
    """How many of the builds were of M's squarings."""
    return sum(np.array_equal(A, M) for A in built)


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
def draws():
    """The default-kind problems of generator seeds 0..39 (m = 1 and m = 2)."""
    return [random_problem(seed)[0] for seed in range(40)]


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

"""Random desk-scale problem instances with controlled feasibility margins.

Instances are drawn from a seeded generator and shaped so the interesting
regimes are hit reliably: eigenvalues of A are placed directly on prescribed
radii, the numerator G gets a dominant constant term, and K is rescaled so
the truncated Gram difference has a comfortable margin of the requested sign.
The seed and every derived choice are reported alongside the data.
"""

import numpy as np

from .core import LeechData, solve, validate
from .errors import DimensionError, LeechError
from .linalg import herm, is_schur_stable, spectral_norm
from .realization import Realization, constant, hinf_norm_estimate, observability_blocks
from .toeplitz import OracleContext, lower_block_toeplitz, toeplitz_gram

EST_ORDER = 100  # truncation order of the Gram margin estimate
MAX_ATTEMPTS = 60
KINDS = ("feasible", "infeasible", "kernel", "corona")


def _randc(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_stable_matrix(rng, n, radius_lo=0.75, radius_hi=0.88):
    """Random U T U* with eigenvalue radii placed in [radius_lo, radius_hi]: U Haar
    unitary (QR with its phases fixed), T upper triangular with the eigenvalues
    on its diagonal and entries of size 0.3 / sqrt(n) above it; never redrawn."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    radii = rng.uniform(radius_lo, radius_hi, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    U, R = np.linalg.qr(_randc(rng, n, n))
    U = U * (np.diag(R) / np.abs(np.diag(R)))
    T = np.diag(radii * np.exp(1j * phases)) + np.triu(_randc(rng, n, n, 0.3 / np.sqrt(n)), 1)
    return U @ T @ U.conj().T


def _definite_above(gram, level):
    """True iff gram - level I is positive definite, decided by one Cholesky
    factorization; gram's diagonal is shifted in place and restored exactly."""
    diagonal = gram.diagonal().copy()
    gram.flat[::len(gram) + 1] -= level
    try:
        np.linalg.cholesky(gram)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(gram, diagonal)


def _draw_dims(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    p = m + int(rng.integers(1, 3))
    p = min(p, n + m, 4)  # n >= 2 and m <= 2, so p > m
    q = int(rng.integers(1, 3))
    return n, m, p, q


def random_problem(seed, kind="feasible", dims=None, closed_loop_band=None):
    """Draw a problem instance of the requested kind.

    kind: "feasible"   - K rescaled so the Gram margin is safely positive;
          "infeasible" - K rescaled past the feasibility boundary;
          "kernel"     - K identically zero;
          "corona"     - B2 = 0, D2 = I with G scaled so T_G T_G* > I.

    dims, when given as (n, m, p, q), must satisfy 1 <= m <= p <= n + m, with
    q >= 1 for a feasible or infeasible draw (a DimensionError otherwise);
    an unknown kind is a ValueError.  Both are checked before any random
    number is drawn.  closed_loop_band, when given as (lo, hi), filters
    feasible instances by the spectral radius of the closed-loop matrix A0
    (retrying on new draws), which keeps truncation-convergence experiments
    away from degenerate rates.  Returns (data, meta) with the seed and all
    derived choices in meta.

    A draw eigen-solves only the N-block matrices (N = EST_ORDER) whose values
    it reports: lambda_max of T_K* (T_G T_G*)^-1 T_K for a feasible or
    infeasible scale and lambda_min of T_G T_G* for a corona scale; the
    boost probes are Cholesky factorizations (_draw_once).  margin_estimate
    is OracleContext(data, EST_ORDER).margin, as its ladder answers it: an
    update of the N/4-block rung's eigendecomposition where update_pays
    (m = 2 and n <= 8, or m = 1 and n <= 3), else an eigvalsh of the core.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
    if dims is not None:
        n, m, p, q = dims
        q_min = int(kind in ("feasible", "infeasible"))
        if not (1 <= m <= p <= n + m and q >= q_min):
            raise DimensionError(f"dims (n, m, p, q) = {tuple(dims)} must satisfy "
                                 f"1 <= m <= p <= n + m and q >= {q_min} for a {kind} draw")
    rng = np.random.default_rng(seed)
    last_error = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            data, meta = _draw_once(rng, kind, dims)
        except LeechError as exc:
            last_error = exc
            continue
        meta.update({"seed": seed, "kind": kind, "attempt": attempt})
        if closed_loop_band is not None and kind != "infeasible":
            try:
                derived = solve(data)
            except LeechError as exc:
                last_error = exc
                continue
            rho = float(np.max(np.abs(np.linalg.eigvals(derived.A0)), initial=0.0))
            meta["closed_loop_radius"] = rho
            lo, hi = closed_loop_band
            if not (lo <= rho <= hi):
                last_error = None
                continue
        return data, meta
    raise LeechError(
        f"could not draw a '{kind}' instance in {MAX_ATTEMPTS} attempts"
        + (f" (last error: {last_error})" if last_error else ""))


def _draw_once(rng, kind, dims):
    """One draw: A, B1, C and D1, then up to six boosts of D1's leading block,
    then K of the requested kind, validated, with the oracle ladder's
    margin at N = EST_ORDER as its margin estimate, which only reports a
    number and gates its sign.

    The C A^k sequence is built once, by doubling; G's and K's first block
    columns are its products with B1 and B2, one product each, and a boost
    replaces only block 0 of G's.  A probe asks whether lambda_min(T_G T_G*)
    reaches 0.2 by one Cholesky factorization of T_G T_G* - 0.2 I; it
    answers as an eigen-solve would, except where lambda_min equals 0.2 to
    roundoff.  After six boosts a feasible or infeasible draw decides
    T_G T_G* definite the same way, and eigen-solves it only for the error
    message.  A square G (p = m) of any kind but infeasible must be outer,
    so that G^-1 is stable: the draw is rejected unless A - B1 D1^-1 C is
    certified Schur stable, after every random number of the draw is taken,
    so an outer draw keeps its bits.
    """
    n, m, p, q = dims if dims is not None else _draw_dims(rng)
    if kind == "corona":
        q = m
    A = random_stable_matrix(rng, n)
    B1 = _randc(rng, n, p)
    C = _randc(rng, m, n, 0.6)
    D1 = np.hstack([1.5 * np.eye(m, dtype=complex),
                    np.zeros((m, p - m), dtype=complex)]) + _randc(rng, m, p, 0.3)

    # C A^k for k < EST_ORDER - 1, once per draw: Taylor block k + 1 of G and
    # of K is C A^k times B1 or B2.  No stability test: A is stable by
    # construction, and validate certifies it below
    powers = observability_blocks(C, A, EST_ORDER - 1).reshape((EST_ORDER - 1) * m, n)

    def first_column(d, b):
        """First block column of the truncated Toeplitz matrix of d + z C (I - zA)^-1 b:
        every Taylor block after d in one product."""
        return np.concatenate([d, powers @ b])

    # boost the constant part of G until its Gram matrix has a real margin; a
    # boost replaces only block 0 of G's column
    column = first_column(D1, B1)
    gram = toeplitz_gram(column, m)
    boosts = 0
    while boosts < 6 and not _definite_above(gram, 0.2):
        D1 = D1 + np.hstack([0.75 * np.eye(m, dtype=complex),
                             np.zeros((m, p - m), dtype=complex)])
        boosts += 1
        column[:m] = D1
        gram = toeplitz_gram(column, m)

    meta = {"dims": {"n": n, "m": m, "p": p, "q": q}, "boosts": boosts}
    if kind == "kernel":
        B2 = np.zeros((n, q), dtype=complex)
        D2 = np.zeros((m, q), dtype=complex)
    elif kind == "corona":
        B2 = np.zeros((n, m), dtype=complex)
        D2 = np.eye(m, dtype=complex)
        scale = 2.0 / np.sqrt(float(np.linalg.eigvalsh(gram)[0]))
        C = scale * C
        D1 = scale * D1
        meta["scale"] = float(scale)
    else:
        B2r = _randc(rng, n, q)
        D2r = _randc(rng, m, q)
        # a probe that reached 0.2 made gram definite; only six boosts leave it open
        if boosts == 6 and not _definite_above(gram, 0.0):
            raise LeechError("Gram matrix of G is not positive definite "
                             f"({float(np.linalg.eigvalsh(gram)[0]):.3e})")
        Tk = lower_block_toeplitz(first_column(D2r, B2r), m)
        M = Tk.conj().T @ np.linalg.solve(gram, Tk)
        lam_max = float(np.linalg.eigvalsh(herm(M))[-1])
        target = 0.55 if kind == "feasible" else 1.4
        scale = target / np.sqrt(lam_max)
        B2 = scale * B2r
        D2 = scale * D2r
        meta["scale"] = float(scale)
        meta["lambda_norm_estimate"] = float(target)

    if p == m and kind != "infeasible":
        try:
            zeros = A - B1 @ np.linalg.solve(D1, C)
        except np.linalg.LinAlgError:
            raise LeechError("square G has a singular D1") from None
        if not is_schur_stable(zeros):
            raise LeechError("square G is not outer: A - B1 D1^-1 C is not Schur stable")

    data = LeechData(A, B1, B2, C, D1, D2)
    report = validate(data)
    if not report.ok:
        raise LeechError("drawn instance failed validation: " + report.summary())
    margin = OracleContext(data, EST_ORDER).margin
    meta["margin_estimate"] = margin
    if kind in ("feasible", "kernel", "corona") and margin <= 0.0:
        raise LeechError("drawn instance lost its positivity margin")
    if kind == "infeasible" and margin >= 0.0:
        raise LeechError("drawn instance failed to cross the feasibility boundary")
    return data, meta


def random_contraction(seed, rows, cols, norm_bound=0.9, constant_only=False):
    """Random stable function of the given size with sup norm about norm_bound."""
    if rows == 0 or cols == 0:
        return constant(np.zeros((rows, cols), dtype=complex))
    rng = np.random.default_rng(seed)
    if constant_only:
        M = _randc(rng, rows, cols)
        return constant(M * (norm_bound / max(spectral_norm(M), 1e-12)))
    s = 2
    A = random_stable_matrix(rng, s, 0.4, 0.7)
    F = Realization(A, _randc(rng, s, cols), _randc(rng, rows, s),
                    _randc(rng, rows, cols))
    nrm = hinf_norm_estimate(F)
    factor = norm_bound / max(nrm, 1e-12)
    return Realization(F.A, F.B, factor * F.C, factor * F.D)

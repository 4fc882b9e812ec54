"""Random desk-scale problem instances with controlled feasibility margins.

Instances are drawn from a seeded generator and shaped so the interesting
regimes are hit reliably: eigenvalues of A are placed directly on prescribed
radii, the numerator G gets a dominant constant term, and K is rescaled so
the truncated Gram difference has a comfortable margin of the requested sign.
The seed and every derived choice are reported alongside the data.
"""

import numpy as np

from .core import LeechData, solve, validate
from .errors import LeechError
from .linalg import spectral_norm
from .realization import Realization, constant, hinf_norm_estimate
from .toeplitz import lower_block_toeplitz, toeplitz_gram, truncate

EST_ORDER = 100  # truncation order of the Gram margin estimate
MAX_ATTEMPTS = 60


def _randc(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_stable_matrix(rng, n, radius_lo=0.75, radius_hi=0.88):
    """Random matrix with eigenvalue radii placed in [radius_lo, radius_hi]."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    radii = rng.uniform(radius_lo, radius_hi, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    lam = radii * np.exp(1j * phases)
    while True:
        V = _randc(rng, n, n)
        if np.linalg.cond(V) < 20.0:
            break
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _draw_dims(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    p = m + int(rng.integers(1, 3))
    p = min(p, n + m, 4)
    if p <= m:
        p = m + 1
    q = int(rng.integers(1, 3))
    return n, m, p, q


def random_problem(seed, kind="feasible", dims=None, closed_loop_band=None):
    """Draw a problem instance of the requested kind.

    kind: "feasible"   - K rescaled so the Gram margin is safely positive;
          "infeasible" - K rescaled past the feasibility boundary;
          "kernel"     - K identically zero;
          "corona"     - B2 = 0, D2 = I with G scaled so T_G T_G* > I.

    closed_loop_band, when given as (lo, hi), filters feasible instances by
    the spectral radius of the closed-loop matrix A0 (retrying on new draws),
    which keeps truncation-convergence experiments away from degenerate rates.
    Returns (data, meta) with the seed and all derived choices in meta.
    """
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
    n, m, p, q = dims if dims is not None else _draw_dims(rng)
    if kind == "corona":
        q = m
    A = random_stable_matrix(rng, n)
    B1 = _randc(rng, n, p)
    C = _randc(rng, m, n, 0.6)
    D1 = np.hstack([1.5 * np.eye(m, dtype=complex),
                    np.zeros((m, p - m), dtype=complex)]) + _randc(rng, m, p, 0.3)

    def gram_probe(d1):
        """Truncated Gram matrix T_G T_G* of G alone and its smallest eigenvalue."""
        gram = toeplitz_gram(truncate(Realization(A, B1, C, d1, stable=True), EST_ORDER), m)
        return gram, float(np.linalg.eigvalsh(gram)[0])

    # boost the constant part of G until its Gram matrix has a real margin
    boosts = 0
    gram, gram_margin = gram_probe(D1)
    while gram_margin < 0.2 and boosts < 6:
        D1 = D1 + np.hstack([0.75 * np.eye(m, dtype=complex),
                             np.zeros((m, p - m), dtype=complex)])
        boosts += 1
        gram, gram_margin = gram_probe(D1)

    # the final core T_G T_G* - T_K T_K* from the Gram matrix of the last probe
    meta = {"dims": {"n": n, "m": m, "p": p, "q": q}, "boosts": boosts}
    if kind == "kernel":
        B2 = np.zeros((n, q), dtype=complex)
        D2 = np.zeros((m, q), dtype=complex)
        core = gram
    elif kind == "corona":
        B2 = np.zeros((n, m), dtype=complex)
        D2 = np.eye(m, dtype=complex)
        scale = 2.0 / np.sqrt(gram_margin)
        C = scale * C
        D1 = scale * D1
        meta["scale"] = float(scale)
        core = scale ** 2 * gram - np.eye(gram.shape[0])
    else:
        B2r = _randc(rng, n, q)
        D2r = _randc(rng, m, q)
        TkEq = truncate(Realization(A, B2r, C, D2r, stable=True), EST_ORDER)
        if gram_margin <= 0.0:
            raise LeechError(f"Gram matrix of G is not positive definite ({gram_margin:.3e})")
        Tk = lower_block_toeplitz(TkEq, m)
        M = Tk.conj().T @ np.linalg.solve(gram, Tk)
        lam_max = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1])
        target = 0.55 if kind == "feasible" else 1.4
        scale = target / np.sqrt(lam_max)
        B2 = scale * B2r
        D2 = scale * D2r
        meta["scale"] = float(scale)
        meta["lambda_norm_estimate"] = float(target)
        core = gram - scale ** 2 * toeplitz_gram(TkEq, m)

    data = LeechData(A, B1, B2, C, D1, D2)
    report = validate(data)
    if not report.ok:
        raise LeechError("drawn instance failed validation: " + report.summary())
    margin = float(np.linalg.eigvalsh(core)[0])
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
                    _randc(rng, rows, cols), stable=True)
    nrm = hinf_norm_estimate(F, grid=256)
    factor = norm_bound / max(nrm, 1e-12)
    return Realization(F.A, F.B, factor * F.C, factor * F.D, stable=True)

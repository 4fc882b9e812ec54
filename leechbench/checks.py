"""Checks of leechsolve outputs made apart from the program.

Nothing here imports leechsolve.  JSON artifacts are decoded by this file per
docs/FORMAT.md, and every property is recomputed with plain numpy from the
problem matrices: Stein and Riccati residuals, spectra by np.linalg.eigvals,
definiteness by Cholesky, values of realizations on and inside the unit
circle, and the truncated Toeplitz margin built from the Taylor blocks
C A^(j-1) B.

Every check function returns a list of failures, each a string that starts
with the name of the failed check ("riccati: ...").  An empty list passes.
"""

import numpy as np

# Relative tolerances.  Each sits far above the residuals measured on
# working code (see README.md) and far below what a 1% corruption gives.
RESIDUAL_TOL = 1e-7
VALUE_TOL = 1e-7
NORM_SLACK = 1e-6
# The truncated operators converge like rho^N, rho the closed-loop spectral
# radius.  Over 1500 generator seeds the largest difference at N = 200 was
# 3.9e-4 (0.26 at N = 50), and every difference at least halved from N = 50
# to N = 200 or stayed below ORACLE_FLOOR.
ORACLE_TOL = 1e-2
ORACLE_FLOOR = 1e-6
MARGIN_TRUNCATION = 100


def _h(M):
    return M.conj().T


def _herm(M):
    return 0.5 * (M + _h(M))


def _rel(residual, scale):
    return float(np.linalg.norm(residual)) / (1.0 + float(np.linalg.norm(scale)))


# -- JSON decoding (docs/FORMAT.md) -------------------------------------------

def decode_matrix(obj, rows, cols):
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    a = np.asarray(obj, dtype=float)
    if a.shape != (rows, cols, 2):
        raise ValueError(f"matrix has shape {a.shape}, expected ({rows}, {cols}, 2)")
    return a[..., 0] + 1j * a[..., 1]


def decode_realization(doc):
    """(A, B, C, D) of a "realization" document."""
    if doc.get("type") != "realization":
        raise ValueError(f"expected a realization, got type {doc.get('type')!r}")
    d = doc["dims"]
    s, o, i = d["state"], d["out"], d["in"]
    return (decode_matrix(doc["A"], s, s), decode_matrix(doc["B"], s, i),
            decode_matrix(doc["C"], o, s), decode_matrix(doc["D"], o, i))


def decode_problem(doc):
    """(A, B1, B2, C, D1, D2) of a "leech_problem" document."""
    if doc.get("type") != "leech_problem":
        raise ValueError(f"expected a leech_problem, got type {doc.get('type')!r}")
    d = doc["dims"]
    n, m, p, q = d["n"], d["m"], d["p"], d["q"]
    return (decode_matrix(doc["A"], n, n), decode_matrix(doc["B1"], n, p),
            decode_matrix(doc["B2"], n, q), decode_matrix(doc["C"], m, n),
            decode_matrix(doc["D1"], m, p), decode_matrix(doc["D2"], m, q))


# -- numerics -----------------------------------------------------------------

def values(F, zs):
    """F(z) = D + z C (I - z A)^-1 B at every z of zs, stacked on axis 0."""
    A, B, C, D = F
    zs = np.asarray(zs, dtype=complex)
    out = np.broadcast_to(D, (zs.size,) + D.shape).copy()
    n = A.shape[0]
    if n and B.shape[1] and C.shape[0]:
        M = np.eye(n) - zs[:, None, None] * A
        X = np.linalg.solve(M, np.broadcast_to(B, (zs.size,) + B.shape))
        out += zs[:, None, None] * (C @ X)
    return out


def spectral_norms(V):
    if V.shape[1] == 0 or V.shape[2] == 0:
        return np.zeros(V.shape[0])
    return np.linalg.svd(V, compute_uv=False)[:, 0]


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.shape[0] else 0.0


def circle(count):
    return np.exp(2j * np.pi * np.arange(count) / count)


def interior(radii=(0.0, 0.5, 0.9), angles=8):
    pts = [r * np.exp(2j * np.pi * (j + 0.3) / angles) for r in radii for j in range(angles)]
    return np.asarray(pts, dtype=complex)


def block_toeplitz(A, B, C, D, N):
    """Lower block-triangular Toeplitz matrix of the first N Taylor blocks."""
    blocks = [D]
    CA = C
    for _ in range(N - 1):
        blocks.append(CA @ B)
        CA = CA @ A
    r, c = D.shape
    column = np.vstack(blocks)
    T = np.zeros((N * r, N * c), dtype=complex)
    for j in range(N):
        T[j * r:, j * c:(j + 1) * c] = column[:(N - j) * r]
    return T


def truncated_margin(prob, N=MARGIN_TRUNCATION):
    """Smallest eigenvalue of T_G T_G* - T_K T_K* on N Taylor blocks."""
    A, B1, B2, C, D1, D2 = prob
    Tg = block_toeplitz(A, B1, C, D1, N)
    Tk = block_toeplitz(A, B2, C, D2, N)
    return float(np.linalg.eigvalsh(_herm(Tg @ _h(Tg) - Tk @ _h(Tk)))[0])


def _riccati_residual(A, Gamma, R0, C, Q):
    """Fixed-point residual of Q = A*QA + W* Delta^-1 W and the closed loop."""
    Delta = _herm(R0 - _h(Gamma) @ Q @ Gamma)
    W = C - _h(Gamma) @ Q @ A
    L = np.linalg.solve(Delta, W)
    return Q - _h(A) @ Q @ A - _h(W) @ L, A - Gamma @ L


def _cholesky_ok(M):
    try:
        np.linalg.cholesky(_herm(M))
    except np.linalg.LinAlgError:
        return False
    return True


# -- decide-ladder ------------------------------------------------------------

def check_decision(prob, out):
    """Derived matrices of a feasible decision.

    out maps P1, P2, Q, A0, Q0, gap, gap0, Delta0, Delta1 to arrays.
    """
    A, B1, B2, C, D1, D2 = prob
    P1, P2, Q, Q0 = out["P1"], out["P2"], out["Q"], out["Q0"]
    fails = []
    for name, P, B in (("P1", P1, B1), ("P2", P2, B2)):
        W = B @ _h(B)
        res = _rel(P - A @ P @ _h(A) - W, W)
        if not res <= RESIDUAL_TOL:
            fails.append(f"gramian: Stein residual of {name} is {res:.3e}")
    dP = P1 - P2
    R0 = D1 @ _h(D1) - D2 @ _h(D2) + C @ dP @ _h(C)
    Gamma = B1 @ _h(D1) - B2 @ _h(D2) + A @ dP @ _h(C)
    R10 = D1 @ _h(D1) + C @ P1 @ _h(C)
    Gamma0 = B1 @ _h(D1) + A @ P1 @ _h(C)
    res, A0 = _riccati_residual(A, Gamma, R0, C, Q)
    if not _rel(res, Q) <= RESIDUAL_TOL:
        fails.append(f"riccati: pair residual {_rel(res, Q):.3e}")
    if not _rel(A0 - out["A0"], A0) <= RESIDUAL_TOL:
        fails.append("riccati: A0 is not the closed loop of Q")
    res0, _ = _riccati_residual(A, Gamma0, R10, C, Q0)
    if not _rel(res0, Q0) <= RESIDUAL_TOL:
        fails.append(f"riccati: kernel residual {_rel(res0, Q0):.3e}")
    rho = spectral_radius(out["A0"])
    if not rho < 1.0:
        fails.append(f"stability: spectral radius of A0 is {rho:.6f}")
    gap = np.linalg.inv(Q) + P2 - P1
    gap0 = np.linalg.inv(Q0) - P1
    for name, mine, theirs in (("gap", gap, out["gap"]), ("gap0", gap0, out["gap0"])):
        if not _rel(mine - theirs, mine) <= RESIDUAL_TOL:
            fails.append(f"gap: {name} differs from its definition")
        if not _cholesky_ok(theirs):
            fails.append(f"gap: {name} fails Cholesky")
    for name in ("Delta0", "Delta1"):
        w = np.linalg.eigvalsh(_herm(out[name]))
        if w.size and not w[0] > 0.0:
            fails.append(f"delta: {name} has eigenvalue {w[0]:.3e}")
    D1sq = out["Delta1"] @ out["Delta1"]
    if D1sq.size:
        w = np.linalg.eigvalsh(_herm(D1sq - np.eye(D1sq.shape[0])))
        if not w[0] >= -RESIDUAL_TOL * max(1.0, float(np.linalg.norm(D1sq))):
            fails.append(f"delta: Delta1^2 - I has eigenvalue {w[0]:.3e}")
    return fails


def check_margin(prob):
    margin = truncated_margin(prob)
    return [] if margin > 0.0 else [f"margin: truncated Gram margin {margin:.3e} is not positive"]


# -- solve-sweep --------------------------------------------------------------

def coefficient_blocks(doc):
    """Decoded U11..U22 and Phi11..Phi22 of a "leech_coefficients" document."""
    if doc.get("type") != "leech_coefficients":
        raise ValueError(f"expected leech_coefficients, got type {doc.get('type')!r}")
    return {name: decode_realization(doc[name]) for name in
            ("U11", "U12", "U21", "U22", "Phi11", "Phi12", "Phi21", "Phi22")}


def check_coefficients(coeffs, points=256):
    """U(z)* J1 U(z) = J2 on the circle, with U = [U11 U12; U21 U22]."""
    zs = circle(points)
    U = np.concatenate([
        np.concatenate([values(coeffs["U11"], zs), values(coeffs["U12"], zs)], axis=2),
        np.concatenate([values(coeffs["U21"], zs), values(coeffs["U22"], zs)], axis=2),
    ], axis=1)
    p, k = coeffs["U11"][3].shape
    q = coeffs["U22"][3].shape[0]
    J1 = np.diag(np.r_[np.ones(p), -np.ones(q)])
    J2 = np.diag(np.r_[np.ones(k), -np.ones(q)])
    defect = float(np.max(spectral_norms(np.conj(np.transpose(U, (0, 2, 1))) @ J1 @ U - J2)))
    scale = 1.0 + float(np.max(spectral_norms(U))) ** 2
    if not defect <= VALUE_TOL * scale:
        return [f"j-unitary: max ||U* J1 U - J2|| on the circle is {defect:.3e}"]
    return []


def check_solution(prob, X, Y, coeffs, grid=4096):
    """X solves G X = K, is stable and contractive, and is the LFT of Y."""
    A, B1, B2, C, D1, D2 = prob
    G = (A, B1, C, D1)
    K = (A, B2, C, D2)
    fails = []
    rho = spectral_radius(X[0])
    if not rho < 1.0:
        fails.append(f"stability: spectral radius of X.A is {rho:.6f}")
    zs = np.concatenate([interior(), circle(256)])
    Gz, Kz, Xz, Yz = values(G, zs), values(K, zs), values(X, zs), values(Y, zs)
    kscale = 1.0 + float(np.max(spectral_norms(Kz)))
    res = float(np.max(spectral_norms(Gz @ Xz - Kz)))
    if not res <= VALUE_TOL * kscale:
        fails.append(f"interpolation: max ||G X - K|| is {res:.3e}")
    norm = float(np.max(spectral_norms(values(X, circle(grid)))))
    if not norm <= 1.0 + NORM_SLACK:
        fails.append(f"norm: max ||X|| on a {grid}-point circle grid is {norm:.9f}")
    U = {name: values(coeffs[name], zs) for name in coeffs}
    num = U["U12"] + U["U11"] @ Yz
    den = U["U22"] + U["U21"] @ Yz
    frac = np.linalg.solve(np.transpose(den, (0, 2, 1)), np.transpose(num, (0, 2, 1)))
    frac = np.transpose(frac, (0, 2, 1))
    q = den.shape[1]
    loop = np.eye(q) - U["Phi11"] @ Yz
    feedback = U["Phi22"] + U["Phi21"] @ Yz @ np.linalg.solve(loop, U["Phi12"])
    xscale = 1.0 + float(np.max(spectral_norms(frac)))
    lft = float(np.max(spectral_norms(feedback - frac)))
    if not lft <= VALUE_TOL * xscale:
        fails.append(f"lft: feedback and fractional forms differ by {lft:.3e}")
    diff = float(np.max(spectral_norms(Xz - frac)))
    if not diff <= VALUE_TOL * xscale:
        fails.append(f"lft: X differs from (U12 + U11 Y)(U22 + U21 Y)^-1 by {diff:.3e}")
    return fails


# -- oracle-ladder ------------------------------------------------------------

def check_oracle(prob, report):
    """An oracle report on a feasible draw: verdict, margins, comparisons."""
    fails = []
    if report.get("type") != "oracle_report" or report.get("verdict") != "feasible":
        fails.append(f"verdict: {report.get('verdict')!r}")
        return fails
    ladder = sorted(int(N) for N in report["truncations"])
    margins = [float(report["margins"][str(N)]) for N in ladder]
    if not all(m > 0.0 for m in margins):
        fails.append(f"margins: not all positive: {margins}")
    # each truncated Gram difference is a principal block of the next one;
    # eigvalsh on N m x N m matrices leaves about 1e-11 of roundoff
    for a, b in zip(margins, margins[1:]):
        if not b <= a + 1e-9 * max(1.0, abs(a)):
            fails.append(f"margins: increase along the ladder: {margins}")
            break
    own = truncated_margin(prob, ladder[0])
    if not abs(own - margins[0]) <= 1e-9 * max(1.0, abs(own)):
        fails.append(f"margins: N={ladder[0]} margin {margins[0]:.12e} "
                     f"differs from the recomputed {own:.12e}")
    first = report["comparisons"][str(ladder[0])]
    last = report["comparisons"][str(ladder[-1])]
    for name in ("U11", "U12", "U21", "U22", "Delta0", "Delta1"):
        diff = float(last[name])
        if not diff <= ORACLE_TOL:
            fails.append(f"comparisons: {name} difference {diff:.3e} at N={ladder[-1]}")
        elif not diff <= max(0.5 * float(first[name]), ORACLE_FLOOR):
            fails.append(f"comparisons: {name} difference does not converge: "
                         f"{first[name]:.3e} at N={ladder[0]}, {diff:.3e} at N={ladder[-1]}")
    return fails

"""Command-line interface.

Subcommands: check, solve, coefficients, oracle, generate.  Exit codes:
0 success/feasible, 1 input error (usage, parse, validation, missing file),
2 infeasible data or numerical breakdown, 3 free-parameter violation.
A failure's exit code and verdict are those of its class (see errors).
The LEECH_LOG environment variable sets the logging level on stderr.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import files
from .coefficients import (
    apply_lft,
    build_redheffer,
    build_upsilon,
    solution_report,
)
from .core import solve, theta0_defect, validate
from .errors import BreakdownError, InfeasibleError, LeechError, ValidationError
from .generate import random_problem
from .realization import evaluate, zeros
from .toeplitz import OracleContext, oracle_upsilon, theta0_defect_oracle

EXIT_OK = 0
EXIT_INPUT = 1
# `solve` calls a computed solution a breakdown when its interpolation
# residual exceeds RESIDUAL_CUT (1 + ||D2||) or its norm estimate 1 + NORM_SLACK
RESIDUAL_CUT = 1e-5
NORM_SLACK = 1e-6

log = logging.getLogger("leechsolve.cli")


def _setup_logging():
    level_name = os.environ.get("LEECH_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(doc, out_path, summary_lines):
    """Write a JSON artifact to --out (summary to stdout) or to stdout
    (summary to stderr)."""
    if out_path:
        files.dump(doc, out_path)
        for line in summary_lines:
            print(line)
    else:
        print(files.dump(doc))
        for line in summary_lines:
            print(line, file=sys.stderr)


def cmd_check(args):
    data, _ = files.read_problem(args.problem)
    report = validate(data)
    for check in report.checks:
        print(f"validation: {check.name} {'ok' if check.passed else 'FAIL'} ({check.detail})")
    if not report.ok:
        print("verdict: INVALID")
        return EXIT_INPUT
    try:
        derived = solve(data)
    except (InfeasibleError, BreakdownError) as exc:
        print(f"verdict: {exc.verdict} ({exc})")
        return exc.exit_code
    mg = derived.margins
    print(f"riccati: pair converged in {mg['riccati_iterations']} doublings, "
          f"residual {mg['riccati_residual']:.3e}")
    print(f"riccati: kernel converged in {mg['kernel_riccati_iterations']} doublings, "
          f"residual {mg['kernel_riccati_residual']:.3e}")
    print(f"margin: positivity gap min eigenvalue {mg['gap_min_eig']:.6e} (scaled by Q^1/2)")
    print(f"margin: kernel gap min eigenvalue {mg['gap0_min_eig']:.6e} (scaled by Q0^1/2)")
    print("verdict: FEASIBLE")
    return EXIT_OK


def cmd_solve(args):
    data, _ = files.read_problem(args.problem)
    derived = solve(data)
    coeffs = build_upsilon(derived)
    if args.parameter:
        Y = files.read_realization(args.parameter)
    else:
        Y = zeros(coeffs.free_dim, coeffs.q)
    X = apply_lft(coeffs, Y)
    verification = solution_report(derived, coeffs, X)
    residual = verification["interpolation_residual"]
    norm = verification["norm_estimate"]
    # the data passed solve, so a failed verification is the numerics'
    if residual > RESIDUAL_CUT * (1.0 + float(np.linalg.norm(data.D2))):
        raise BreakdownError(
            f"solution failed verification: interpolation residual {residual:.3e}")
    if norm > 1.0 + NORM_SLACK:
        raise BreakdownError(
            f"solution failed verification: norm estimate {norm:.9f} exceeds 1")
    _emit(files.solution_to_dict(X, verification), args.out, [
        f"solution: state dimension {X.state_dim}, "
        f"residual {residual:.3e}, norm estimate {norm:.9f}",
    ])
    return EXIT_OK


def cmd_coefficients(args):
    data, _ = files.read_problem(args.problem)
    derived = solve(data)
    coeffs = build_upsilon(derived)
    phi = build_redheffer(coeffs)
    _emit(files.coefficients_to_dict(coeffs, phi), args.out, [
        f"coefficients: free parameter size {coeffs.free_dim}x{coeffs.q}, "
        f"shared state dimension {derived.A0.shape[0]}",
    ])
    return EXIT_OK


def cmd_oracle(args):
    data, options = files.read_problem(args.problem)
    validation = validate(data)
    if not validation.ok:
        raise ValidationError("data validation failed: " + validation.summary(), validation)
    trunc = args.truncation if args.truncation is not None else options.get("truncation")
    if trunc is None:
        ladder = [50, 100, 200]
    else:
        ladder = sorted({min(trunc, rung) for rung in
                         (max(8, trunc // 4), max(16, trunc // 2), trunc)})
    # every rung is a leading block of the largest window
    widest = OracleContext(data, ladder[-1])
    contexts = {N: widest.window(N) for N in ladder}
    margins = {N: contexts[N].margin for N in ladder}
    for N in ladder:
        print(f"margin: N={N} smallest eigenvalue {margins[N]:.6e}")
    report = {"type": "oracle_report", "truncations": ladder,
              "margins": {str(N): margins[N] for N in ladder}}
    try:
        for N in ladder:
            contexts[N].require_definite()
        derived = solve(data)
    except (InfeasibleError, BreakdownError) as exc:
        report["verdict"] = f"{exc.verdict.lower()}: {exc}"
        print(f"verdict: {exc.verdict} -- oracle comparison skipped")
        if args.out:
            files.dump(report, args.out)
        return exc.exit_code

    coeffs = build_upsilon(derived)
    # the origin and five points on each of the circles |z| = 0.3, 0.6, 0.9
    pts = [0j] + [r * np.exp(2j * np.pi * (j + 0.25) / 5)
                  for r in (0.3, 0.6, 0.9) for j in range(5)]
    names = ("U11", "U12", "U21", "U22")
    U = evaluate(coeffs.joint, pts)
    p, k = coeffs.p, coeffs.free_dim
    ss = {"U11": U[:, :p, :k], "U12": U[:, :p, k:], "U21": U[:, p:, :k], "U22": U[:, p:, k:]}
    M_ss = theta0_defect(data, derived.Q0, derived.P1)
    report["comparisons"] = {}
    for N in ladder:
        ctx = contexts[N]
        orc = oracle_upsilon(ctx, derived.Theta0, pts)
        entry = {}
        for name in names:
            entry[name] = max(
                float(np.linalg.norm(a - b)) for a, b in zip(ss[name], orc[name]))
        entry["Delta0"] = float(np.linalg.norm(orc["Delta0"] - derived.Delta0))
        entry["Delta1"] = float(np.linalg.norm(orc["Delta1"] - derived.Delta1))
        entry["theta0_defect"] = float(np.linalg.norm(theta0_defect_oracle(ctx) - M_ss))
        report["comparisons"][str(N)] = entry
        row = ", ".join(f"{name} {entry[name]:.3e}" for name in
                        names + ("Delta0", "Delta1", "theta0_defect"))
        print(f"compare: N={N} {row}")
    report["verdict"] = "feasible"
    print("verdict: FEASIBLE")
    if args.out:
        files.dump(report, args.out)
    return EXIT_OK


def cmd_generate(args):
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "little")
    data, meta = random_problem(seed)
    meta = {key: (float(val) if isinstance(val, (float, np.floating)) else val)
            for key, val in meta.items()}
    doc = files.problem_to_dict(data, provenance=meta)
    _emit(doc, args.out, [
        f"generated: seed {seed}, dims {meta['dims']}, "
        f"margin estimate {meta['margin_estimate']:.6e}",
    ])
    return EXIT_OK


def _seed(text):
    """A seed for numpy's generator: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, an input error: argparse's 2 is the code of
    INFEASIBLE and BREAKDOWN."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="leechsolve",
        description="Solve and parametrize suboptimal rational Leech problems "
                    "G X = K with contractive X, from state-space data.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="validate a problem and decide feasibility")
    sp.add_argument("problem")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", help="compute a solution (central unless a "
                                      "parameter file is given)")
    sp.add_argument("problem")
    sp.add_argument("parameter", nargs="?", default=None,
                    help="optional realization file for the free parameter Y")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("coefficients",
                        help="write the parametrization coefficients")
    sp.add_argument("problem")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_coefficients)

    sp = sub.add_parser("oracle",
                        help="cross-validate against truncated Toeplitz compressions")
    sp.add_argument("problem")
    sp.add_argument("--truncation", type=int, default=None,
                    help="largest truncation order (ladder N/4, N/2, N; default 200)")
    sp.add_argument("--out", default=None, help="optional JSON report path")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("generate", help="generate a random feasible problem")
    sp.add_argument("--seed", type=_seed, default=None)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LeechError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, LeechError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the leechsolve benchmark in this process and print its metrics.

    python3 leechbench/run.py --workload decide-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from src/.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead.  README.md describes the workloads and the metrics.
"""

import os

# One BLAS thread, fixed before numpy is imported: timings and the set of
# instances that fail both depend on it.  Logging stays at leechsolve's
# default so that a LEECH_LOG=DEBUG in the caller's shell cannot add work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["LEECH_LOG"] = "WARNING"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy loads the OpenBLAS that blas_threads() reads
import numpy  # noqa: E402,F401

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

LAYER_CALLS = ("linalg.is_schur_stable", "linalg.spectral_norm", "riccati.stabilizing_riccati",
               "realization.evaluate", "generate.random_problem")
LAYER_SELF_MS = (
    "linalg.is_schur_stable", "linalg.solve_hermitian", "linalg.spectral_norm",
    "riccati.stabilizing_riccati", "riccati.solve_stein", "riccati.is_observable",
    "core.validate", "core.gramians", "core.theta0", "core.delta_matrices", "core.solve",
    "realization.evaluate", "realization.hinf_norm_estimate", "realization.compose",
    "coefficients.build_upsilon", "coefficients.check_parameter", "coefficients.apply_lft",
    "coefficients.build_redheffer", "coefficients.solution_report",
    "coefficients.j_inner_defect",
    "toeplitz.OracleContext", "toeplitz.lower_block_toeplitz", "toeplitz.oracle_upsilon",
    "toeplitz.theta0_defect_oracle",
    "generate.random_problem", "generate.random_contraction",
    "files.read", "files.write", "cli.main",
)
LAYER_COUNTS = ("linalg.minimal_rank_factor.raised", "riccati.iterations",
                "coefficients.apply_lft.x_states", "generate.random_problem.attempts")


@dataclass
class Record:
    round: int
    index: int
    seconds: float
    scaled: float  # seconds at the reference speed (speed.py)
    output: object
    error: BaseException


def blas_threads():
    """(library, configuration, threads) of the OpenBLAS numpy loaded, from
    the process's own memory map; (None, None, None) if there is none."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get is not None and config is not None:
                get.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return os.path.basename(path), config().decode().strip(), get()
    return None, None, None


def fresh_import():
    """Import leechsolve afresh (numpy stays imported: an extension module
    cannot be loaded twice in one process)."""
    for key in [k for k in sys.modules if k == "leechsolve" or k.startswith("leechsolve.")]:
        del sys.modules[key]
    ls = importlib.import_module("leechsolve")
    importlib.import_module("leechsolve.cli")
    importlib.import_module("leechsolve.files")
    return ls


def set_up(workload, seed, workdir, tracer=None):
    """Import leechsolve and draw the inputs; returns (seconds, ops)."""
    start = time.perf_counter()
    ls = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        ops = workload.setup(ls, seed, workdir)
    finally:
        if tracer is not None:
            tracer.remove()
    return time.perf_counter() - start, ops


def timed_rounds(ops, seconds, probe, first_round=0, tracer=None):
    """Whole rounds of ops until `seconds` have passed, with the speed probe
    run before the first operation and after each; returns (records, wall)."""
    records = []
    start = time.perf_counter()
    before = probe.time()
    r = first_round
    while True:
        for index, (_, fn) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = tracer.span(spans.OP, fn) if tracer is not None else fn()
                err = None
            except Exception as exc:  # an operation's failure is counted, not fatal
                out, err = None, exc
            seconds_op = time.perf_counter() - t0
            after = probe.time(probe.count_after(seconds_op))
            records.append(Record(r, index, seconds_op,
                                  seconds_op * probe.scale(before, after), out, err))
            before = after
        r += 1
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def timed_setups(workload, seed, workdir):
    """SETUP_REPEATS set-ups, each between two speed probes; returns the wall
    and the scaled seconds of each, and the last set-up's ops."""
    walls, scaled = [], []
    probe = workload.probe
    before = probe.time(speed.MAX_PROBES)
    for _ in range(SETUP_REPEATS):
        seconds, ops = set_up(workload, seed, workdir)
        after = probe.time(speed.MAX_PROBES)
        walls.append(seconds)
        scaled.append(seconds * probe.scale(before, after))
        before = after
    return walls, scaled, ops


def ops_per_s(records, key="scaled"):
    """Operations per second of operation time (at the reference speed, or
    of the wall with key="seconds")."""
    return len(records) / sum(getattr(rec, key) for rec in records)


def layer_metrics(setup_tracer, round_tracer, rounds):
    """Per-layer figures: one traced set-up plus the mean of one traced round."""
    calls, self_ms, counts = Counter(), Counter(), Counter()
    for tracer, weight in ((setup_tracer, 1.0), (round_tracer, 1.0 / rounds)):
        tracer_calls, tracer_self_ms = tracer.summary()
        for total, part in ((calls, tracer_calls), (self_ms, tracer_self_ms),
                            (counts, tracer.counts)):
            for name, value in part.items():
                total[name] += weight * value
    metrics = {f"{name}.calls": (float(calls[name]), "count") for name in LAYER_CALLS}
    metrics.update({f"{name}.self_ms": (float(self_ms[name]), "ms") for name in LAYER_SELF_MS})
    metrics.update({name: (float(counts[name]), "count") for name in LAYER_COUNTS})
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib, config, threads = blas_threads()
    print(f"blas: {lib} ({config}), threads {threads}")
    if threads is not None and threads != 1:
        print(f"error: BLAS runs {threads} threads, expected 1", file=sys.stderr)
        return 2
    if not (SRC / "leechsolve" / "__init__.py").is_file():
        print(f"error: no leechsolve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cli.main configures logging on first use; doing it here keeps the
    # handler on the real stderr rather than on one operation's capture
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir, tag):
    workload = WORKLOADS[args.workload]()
    metrics = {}
    if args.trace:
        setup_tracer, round_tracer = spans.Tracer(), spans.Tracer()
        _, ops = set_up(workload, args.seed, workdir, setup_tracer)
        # one untraced round first, so that both halves compared below run
        # warm: the first round of a process pays for page faults that
        # later rounds do not (about 0.3 s of a 1.1 s solve at n = 24)
        warm, _ = timed_rounds(ops, 0.0, workload.probe)
        half = args.seconds / 2.0
        plain, plain_wall = timed_rounds(ops, half, workload.probe, warm[-1].round + 1)
        round_tracer.install()
        try:
            traced, traced_wall = timed_rounds(ops, half, workload.probe, plain[-1].round + 1,
                                               round_tracer)
        finally:
            round_tracer.remove()
        records = warm + plain + traced
        traced_rounds = traced[-1].round - plain[-1].round
        for name, (value, unit) in layer_metrics(setup_tracer, round_tracer, traced_rounds).items():
            metrics[name] = {"value": value, "unit": unit}
        plain_rate = ops_per_s(plain)
        traced_rate = ops_per_s(traced)
        _, self_ms = round_tracer.summary()
        layer_self = sum(v for k, v in self_ms.items() if k != spans.OP)
        op_ms = 1000.0 * sum(rec.seconds for rec in traced)
        metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (plain_rate / traced_rate - 1.0),
                                         "unit": "%"}
        metrics["trace.self_coverage_pct"] = {"value": 100.0 * layer_self / op_ms, "unit": "%"}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"setup": setup_tracer.export(), "rounds": round_tracer.export()}, fh)
        wall = plain_wall + traced_wall
    else:
        setup_walls, setups, ops = timed_setups(workload, args.seed, workdir)
        records, wall = timed_rounds(ops, args.seconds, workload.probe)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"wall: setup_s {statistics.median(setup_walls):.6g} s, "
              f"ops_per_s {ops_per_s(records, 'seconds'):.6g} 1/s, "
              f"op_p50_ms {1000.0 * statistics.median(r.seconds for r in records):.6g} ms")
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["ops_per_s"] = {"value": ops_per_s(records), "unit": "1/s"}
        metrics["op_p50_ms"] = {"value": 1000.0 * statistics.median(r.scaled for r in records),
                                "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}

    fails = workload.check(records)
    failed = sum(rec.error is not None for rec in records)
    rounds = records[-1].round + 1
    print(f"workload: {args.workload}, seed {args.seed}, {len(ops)} operations a round, "
          f"{rounds} rounds in {wall:.3f} s, trace {args.trace}")
    print(f"inputs: {workload.left_out} draws left out because solve failed on them")
    print(f"operations: attempted {len(records)}, failed {failed}")
    for rec in records:
        if rec.error is not None and rec.round == 0:
            print(f"failed: {ops[rec.index][0]}: {type(rec.error).__name__}: {rec.error}")
    for line in fails:
        print(f"check failed: {line}")
    print(f"checks: {'passed' if not fails else f'{len(fails)} failed'}")
    for name, m in metrics.items():
        print(f"metric: {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not fails, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    times = {}
    for rec in records:
        times.setdefault(ops[rec.index][0], []).append([rec.seconds, rec.scaled])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "check_failures": fails, "op_seconds_wall_scaled": times}, fh,
                  indent=1)
    return result


if __name__ == "__main__":
    sys.exit(main())

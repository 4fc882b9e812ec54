"""Show that each check in checks.py passes a good output and rejects a corrupted one.

    python3 leechbench/selftest.py

Runs one small instance through each workload's path in leechsolve, checks
the outputs, then corrupts them one way at a time (X scaled by 1.05, a
perturbed Q, a reordered margin ladder, ...) and requires the named check to
fail.  Exits 1 if any corruption passes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import load, run_cli  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import leechsolve as ls  # noqa: E402
import leechsolve.cli  # noqa: E402,F401
import leechsolve.files  # noqa: E402,F401


class Report:
    def __init__(self):
        self.misses = []

    def good(self, what, fails):
        print(f"{'ok  ' if not fails else 'FAIL'} {what} passes on the program's output")
        if fails:
            print("     " + "; ".join(fails))
            self.misses.append(what)

    def bad(self, check, corruption, fails):
        caught = any(f.startswith(check + ":") for f in fails)
        print(f"{'ok  ' if caught else 'MISS'} {check} rejects {corruption}")
        if not caught:
            self.misses.append(f"{check} / {corruption}")


def decide(report):
    data, _ = ls.random_problem(7, dims=(6, 2, 3, 2))
    derived = ls.solve(data)
    prob = (data.A, data.B1, data.B2, data.C, data.D1, data.D2)
    out = {key: getattr(derived, key) for key in
           ("P1", "P2", "Q", "A0", "Q0", "gap", "gap0", "Delta0", "Delta1")}
    report.good("decide-ladder checks", checks.check_decision(prob, out) + checks.check_margin(prob))

    def corrupt(check, corruption, **changes):
        report.bad(check, corruption, checks.check_decision(prob, {**out, **changes}))

    corrupt("gramian", "P1 scaled by 1.01", P1=1.01 * out["P1"])
    Q = out["Q"]
    corrupt("riccati", "Q + 1e-3 ||Q|| I", Q=Q + 1e-3 * np.linalg.norm(Q, 2) * np.eye(len(Q)))
    corrupt("riccati", "Q0 scaled by 1.001", Q0=1.001 * out["Q0"])
    rho = np.max(np.abs(np.linalg.eigvals(out["A0"])))
    corrupt("stability", "A0 scaled to spectral radius 1.05", A0=(1.05 / rho) * out["A0"])
    lam = np.linalg.eigvalsh(out["gap"])[0]
    corrupt("gap", "gap shifted to be indefinite", gap=out["gap"] - (lam + 1e-3) * np.eye(len(Q)))
    corrupt("delta", "Delta0 negated", Delta0=-out["Delta0"])
    corrupt("delta", "Delta1 replaced by 0.9 I", Delta1=0.9 * np.eye(len(out["Delta1"])))
    bad, _ = ls.random_problem(7, kind="infeasible", dims=(6, 2, 3, 2))
    report.bad("margin", "an infeasible instance",
               checks.check_margin((bad.A, bad.B1, bad.B2, bad.C, bad.D1, bad.D2)))


def scaled(F, factor):
    A, B, C, D = F
    return A, B, factor * C, factor * D


def sweep(report, workdir):
    data, _ = ls.random_problem(11)
    problem, ypath = str(workdir / "p.json"), str(workdir / "y.json")
    ls.files.write_problem(data, problem)
    ls.files.write_realization(ls.random_contraction(11, data.p - data.m, data.q), ypath)
    run_cli(ls, ["coefficients", problem, "--out", str(workdir / "c.json")])
    run_cli(ls, ["solve", problem, ypath, "--out", str(workdir / "x.json")])
    prob = checks.decode_problem(load(problem))
    Y = checks.decode_realization(load(ypath))
    coeffs = checks.coefficient_blocks(load(workdir / "c.json"))
    X = checks.decode_realization(load(workdir / "x.json")["realization"])
    report.good("solve-sweep checks",
                checks.check_coefficients(coeffs) + checks.check_solution(prob, X, Y, coeffs))

    def corrupt(check, corruption, X=X, coeffs=coeffs):
        fails = checks.check_coefficients(coeffs) + checks.check_solution(prob, X, Y, coeffs)
        report.bad(check, corruption, fails)

    corrupt("interpolation", "X scaled by 1.05", X=scaled(X, 1.05))
    norm = np.max(checks.spectral_norms(checks.values(X, checks.circle(4096))))
    corrupt("norm", "X scaled to sup norm 1.01", X=scaled(X, 1.01 / norm))
    rho = np.max(np.abs(np.linalg.eigvals(X[0])))
    corrupt("stability", "X.A scaled to spectral radius 1.05", X=((1.05 / rho) * X[0],) + X[1:])
    corrupt("lft", "X scaled by 1.05", X=scaled(X, 1.05))
    corrupt("j-unitary", "U12 scaled by 1.01", coeffs={**coeffs, "U12": scaled(coeffs["U12"], 1.01)})
    corrupt("lft", "Phi22 scaled by 1.01", coeffs={**coeffs, "Phi22": scaled(coeffs["Phi22"], 1.01)})


def oracle(report, workdir):
    problem, rpath = str(workdir / "g.json"), str(workdir / "r.json")
    run_cli(ls, ["generate", "--seed", "5", "--out", problem])
    run_cli(ls, ["oracle", problem, "--out", rpath])
    prob = checks.decode_problem(load(problem))
    good = load(rpath)
    report.good("oracle-ladder checks", checks.check_oracle(prob, good))

    def corrupt(check, corruption, change):
        doc = copy.deepcopy(good)
        change(doc)
        report.bad(check, corruption, checks.check_oracle(prob, doc))

    top = str(max(good["truncations"]))
    low = str(min(good["truncations"]))
    corrupt("verdict", "an infeasible verdict", lambda d: d.update(verdict="infeasible: x"))
    corrupt("margins", "the largest N's margin raised above the others",
            lambda d: d["margins"].update({top: 2.0 * d["margins"][low]}))
    corrupt("margins", "the smallest N's margin shifted by 1e-6",
            lambda d: d["margins"].update({low: d["margins"][low] + 1e-6}))
    corrupt("margins", "a negative margin", lambda d: d["margins"].update({top: -1e-3}))
    corrupt("comparisons", "a U11 difference of 5e-2",
            lambda d: d["comparisons"][top].update(U11=5e-2))
    corrupt("comparisons", "a Delta0 difference of 1e-3 at every N",
            lambda d: [d["comparisons"][N].update(Delta0=1e-3) for N in d["comparisons"]])


def main():
    report = Report()
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        decide(report)
        sweep(report, workdir)
        oracle(report, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if report.misses:
        print(f"self-test failed: {len(report.misses)} of the checks above")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: exit codes, artifacts, and cross-command flows."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leechsolve
from leechsolve import cli, core, errors
from leechsolve.cli import main
from leechsolve.files import (
    coefficients_from_dict,
    load,
    read_problem,
    read_solution,
    write_problem,
    write_realization,
)
from leechsolve.generate import random_contraction, random_problem
from leechsolve.realization import Realization, constant, evaluate, product
from tests.conftest import (
    circle_points,
    singular_riccati_data,
    square_numerator_data,
    builds_of,
    squaring_builds,
    unstable_data,
    with_unobservable_states,
)


def _static_data():
    """A constant problem (n = 0, p = m = 2, q = 1) that solves."""
    return core.LeechData(A=np.zeros((0, 0)), B1=np.zeros((0, 2)), B2=np.zeros((0, 1)),
                          C=np.zeros((2, 0)), D1=np.eye(2), D2=np.array([[0.3], [0.1]]))


@pytest.fixture()
def problem_file(tmp_path):
    data, _ = random_problem(120)
    path = tmp_path / "problem.json"
    write_problem(data, path)
    return path, data


@pytest.fixture()
def kernel_file(tmp_path, kernel_case):
    path = tmp_path / "kernel.json"
    write_problem(kernel_case.data, path)
    return path


class TestCheck:
    def test_feasible(self, problem_file, capsys):
        path, _ = problem_file
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "validation: dimensions ok" in out
        assert "verdict: FEASIBLE" in out
        assert "positivity gap min eigenvalue" in out

    def test_infeasible(self, tmp_path, capsys):
        data, _ = random_problem(121, kind="infeasible")
        path = tmp_path / "bad.json"
        write_problem(data, path)
        assert main(["check", str(path)]) == 2
        assert "verdict: INFEASIBLE" in capsys.readouterr().out

    def test_invalid_data(self, tmp_path, capsys):
        data, _ = random_problem(122)
        from leechsolve.core import LeechData
        bad = LeechData(np.eye(data.n), data.B1, data.B2, data.C, data.D1, data.D2)
        path = tmp_path / "unstable.json"
        write_problem(bad, path)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "validation: stability FAIL" in out
        assert "verdict: INVALID" in out

    def test_breakdown_is_not_infeasible(self, tmp_path, capsys, monkeypatch):
        # a rank cut above the scale of the kernel defect makes the theta0
        # rank decision fail on feasible data
        path = tmp_path / "p.json"
        assert main(["generate", "--seed", "7", "--out", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(core, "RANK_CUT", 1.5)
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert "verdict: BREAKDOWN (kernel defect has rank" in out
        assert "INFEASIBLE" not in out

    def test_singular_riccati_solution_is_feasible(self, tmp_path, capsys, oracle_cache):
        # a numerically singular pair Riccati solution is no breakdown: the
        # verdict agrees with the positive Gram margin, and the data solves
        data = singular_riccati_data()
        path = tmp_path / "singular.json"
        write_problem(data, path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: FEASIBLE" in out
        assert oracle_cache(data, 60).margin > 0.1
        out_path = tmp_path / "solution.json"
        assert main(["solve", str(path), "--out", str(out_path)]) == 0
        assert read_solution(out_path)[1]["interpolation_residual"] <= 1e-7


class TestSolve:
    def test_central_solution_artifact(self, problem_file, tmp_path, capsys):
        path, data = problem_file
        out_path = tmp_path / "solution.json"
        assert main(["solve", str(path), "--out", str(out_path)]) == 0
        assert "solution:" in capsys.readouterr().out
        X, verification = read_solution(out_path)
        assert verification["interpolation_residual"] <= 1e-7
        assert verification["norm_estimate"] <= 1.0 + 1e-7
        G, K = data.g(), data.k()
        for z in circle_points(16):
            res = evaluate(G, z) @ evaluate(X, z) - evaluate(K, z)
            assert np.linalg.norm(res, 2) <= 1e-7

    def test_json_on_stdout_without_out(self, problem_file, capsys):
        path, _ = problem_file
        assert main(["solve", str(path)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["type"] == "leech_solution"
        assert "solution:" in captured.err

    def test_zero_numerator_reproduces_kernel_action(
            self, kernel_file, tmp_path, kernel_case, capsys):
        c = kernel_case.coeffs
        Y = random_contraction(11, c.free_dim, c.q, constant_only=True)
        ypath = tmp_path / "y.json"
        write_realization(Y, ypath)
        out_path = tmp_path / "x.json"
        assert main(["solve", str(kernel_file), str(ypath),
                     "--out", str(out_path)]) == 0
        X, _ = read_solution(out_path)
        ref = product(c.U11, Y)
        for z in circle_points(8):
            np.testing.assert_allclose(evaluate(X, z), evaluate(ref, z), atol=1e-10)

    def test_distinct_parameters_give_distinct_solutions(
            self, problem_file, tmp_path, capsys):
        path, data = problem_file
        outs = []
        for pseed in (12, 13):
            ypath = tmp_path / f"y{pseed}.json"
            from leechsolve import build_upsilon, solve as solve_data
            coeffs = build_upsilon(solve_data(data))
            write_realization(
                random_contraction(pseed, coeffs.free_dim, coeffs.q), ypath)
            out_path = tmp_path / f"x{pseed}.json"
            assert main(["solve", str(path), str(ypath),
                         "--out", str(out_path)]) == 0
            outs.append(read_solution(out_path)[0])
        diff = max(np.linalg.norm(evaluate(outs[0], z) - evaluate(outs[1], z))
                   for z in circle_points(8))
        assert diff > 1e-3

    def test_norm_violation_exits_3(self, problem_file, tmp_path, capsys):
        path, data = problem_file
        from leechsolve import build_upsilon, solve as solve_data
        coeffs = build_upsilon(solve_data(data))
        Y = constant(1.2 * np.eye(coeffs.free_dim, coeffs.q))
        ypath = tmp_path / "big.json"
        write_realization(Y, ypath)
        assert main(["solve", str(path), str(ypath)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unstable_parameter_exits_3(self, problem_file, tmp_path, capsys):
        path, data = problem_file
        from leechsolve import build_upsilon, solve as solve_data
        coeffs = build_upsilon(solve_data(data))
        k, q = coeffs.free_dim, coeffs.q
        Y = Realization(1.5 * np.eye(1), np.ones((1, q)),
                        0.01 * np.ones((k, 1)), np.zeros((k, q)))
        ypath = tmp_path / "unstable.json"
        write_realization(Y, ypath)
        assert main(["solve", str(path), str(ypath)]) == 3

    def test_unstable_parameter_with_no_inputs_to_x_exits_3(self, tmp_path, capsys):
        data = square_numerator_data()
        prob, par = tmp_path / "square.json", tmp_path / "Y.json"
        write_problem(data, prob)
        write_realization(Realization([[1.5]], np.zeros((1, data.q)), np.zeros((0, 1)),
                                      np.zeros((0, data.q))), par)
        assert main(["solve", str(prob), str(par)]) == 3
        assert "free parameter must be a stable function" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [square_numerator_data, _static_data], ids=["p=m", "n=0"])
    def test_artifact_is_strict_json(self, make, tmp_path, capsys):
        # an empty extremum is null: RFC 8259 has no Infinity or NaN
        data = make()
        prob, out = tmp_path / "problem.json", tmp_path / "solution.json"
        write_problem(data, prob)
        assert main(["solve", str(prob), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        margins = doc["verification"]["margins"]
        assert margins["theta0_kept_min_eig"] is None
        assert (margins["gap_min_eig"] is None) == (data.n == 0)
        assert (margins["gap0_min_eig"] is None) == (data.n == 0)

    def test_wrong_shape_parameter_exits_3(self, problem_file, tmp_path, capsys):
        path, _ = problem_file
        ypath = tmp_path / "shape.json"
        write_realization(constant(np.zeros((7, 7))), ypath)
        assert main(["solve", str(path), str(ypath)]) == 3

    def test_infeasible_exits_2(self, tmp_path, capsys):
        data, _ = random_problem(123, kind="infeasible")
        path = tmp_path / "bad.json"
        write_problem(data, path)
        assert main(["solve", str(path)]) == 2


class TestCoefficients:
    def test_zero_numerator_artifact(self, kernel_file, tmp_path, kernel_case, capsys):
        out_path = tmp_path / "coeffs.json"
        assert main(["coefficients", str(kernel_file),
                     "--out", str(out_path)]) == 0
        assert "coefficients:" in capsys.readouterr().out
        doc = coefficients_from_dict(load(out_path))
        q = kernel_case.data.q
        # with K = 0 the lower-right coefficient is constantly the identity
        np.testing.assert_allclose(doc["U22"].D, np.eye(q), atol=1e-12)
        assert np.linalg.norm(doc["U22"].B) <= 1e-13
        np.testing.assert_allclose(doc["Delta0"], np.eye(q), atol=1e-12)
        for name in ("Phi11", "Phi12", "Phi21", "Phi22"):
            assert name in doc

    def test_matches_library(self, problem_file, tmp_path, capsys):
        path, data = problem_file
        out_path = tmp_path / "coeffs.json"
        assert main(["coefficients", str(path), "--out", str(out_path)]) == 0
        doc = coefficients_from_dict(load(out_path))
        from leechsolve import build_upsilon, solve as solve_data
        coeffs = build_upsilon(solve_data(data))
        np.testing.assert_allclose(doc["Theta0"], coeffs.Theta0, atol=0.0)
        np.testing.assert_allclose(doc["U11"].D, coeffs.U11.D, atol=0.0)


class TestOracle:
    def test_ladder_report(self, problem_file, tmp_path, capsys):
        path, _ = problem_file
        out_path = tmp_path / "report.json"
        assert main(["oracle", str(path), "--truncation", "120",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "margin: N=30" in out and "margin: N=120" in out
        assert "verdict: FEASIBLE" in out
        report = load(out_path)
        assert report["truncations"] == [30, 60, 120]
        margins = [report["margins"][str(N)] for N in (30, 60, 120)]
        assert margins[2] <= margins[1] + 1e-12 <= margins[0] + 2e-12
        assert all(m > 0 for m in margins)
        # agreement tightens as the window grows
        c30 = report["comparisons"]["30"]
        c120 = report["comparisons"]["120"]
        for key in ("U11", "U12", "U21", "U22", "Delta0", "Delta1"):
            assert c120[key] <= c30[key] + 1e-12
        assert c120["U11"] <= 1e-5

    @pytest.mark.parametrize("top, ladder", [(12, [8, 12]), (4, [4])])
    def test_small_ladder_stays_within_truncation(self, problem_file, tmp_path, capsys,
                                                  top, ladder):
        path, _ = problem_file
        out_path = tmp_path / "report.json"
        assert main(["oracle", str(path), "--truncation", str(top),
                     "--out", str(out_path)]) == 0
        report = load(out_path)
        assert report["truncations"] == ladder
        assert sorted(report["margins"]) == sorted(map(str, ladder))
        assert sorted(report["comparisons"]) == sorted(map(str, ladder))
        assert f"margin: N={top * 2}" not in capsys.readouterr().out

    def test_infeasible_skips_comparison(self, tmp_path, capsys):
        data, _ = random_problem(124, kind="infeasible")
        path = tmp_path / "bad.json"
        write_problem(data, path)
        out_path = tmp_path / "report.json"
        assert main(["oracle", str(path), "--truncation", "60",
                     "--out", str(out_path)]) == 2
        out = capsys.readouterr().out
        assert "oracle comparison skipped" in out
        report = load(out_path)
        assert report["verdict"].startswith("infeasible")
        assert "comparisons" not in report

    def test_breakdown_writes_report(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        assert main(["generate", "--seed", "7", "--out", str(path)]) == 0
        out_path = tmp_path / "r.json"
        monkeypatch.setattr(core, "RANK_CUT", 1.5)
        assert main(["oracle", str(path), "--truncation", "60",
                     "--out", str(out_path)]) == 2
        out = capsys.readouterr().out
        assert "verdict: BREAKDOWN -- oracle comparison skipped" in out
        report = load(out_path)
        assert report["verdict"].startswith("breakdown: kernel defect has rank")
        assert "comparisons" not in report

    def test_unstable_data_is_invalid(self, tmp_path, capsys):
        # validation runs before any truncation, so no diverging margin is printed
        path = tmp_path / "unstable.json"
        write_problem(unstable_data(), path)
        assert main(["oracle", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "margin" not in out and "verdict" not in out
        assert err.startswith("error: data validation failed")
        assert "stability: FAIL" in err

    def test_singular_riccati_solution_writes_feasible_report(self, tmp_path, capsys):
        # a singular Riccati solution is no breakdown: the verdict agrees with
        # the positive oracle margins, and the coefficients converge to them
        path = tmp_path / "singular.json"
        write_problem(singular_riccati_data(), path)
        out_path = tmp_path / "r.json"
        assert main(["oracle", str(path), "--truncation", "60",
                     "--out", str(out_path)]) == 0
        report = load(out_path)
        assert all(m > 0.1 for m in report["margins"].values())
        assert report["verdict"] == "feasible"
        assert max(report["comparisons"]["60"].values()) <= 1e-12


class TestStandingAssumptions:
    def test_unobservable_problem_passes_every_command(self, tmp_path, capsys):
        # a stable A is the only standing assumption: states that C never
        # sees change no verdict
        data, _ = random_problem(120)
        path = tmp_path / "unobservable.json"
        write_problem(with_unobservable_states(data), path)
        assert main(["check", str(path)]) == 0
        assert "verdict: FEASIBLE" in capsys.readouterr().out
        for argv in (["solve", str(path), "--out", str(tmp_path / "x.json")],
                     ["coefficients", str(path), "--out", str(tmp_path / "u.json")],
                     ["oracle", str(path), "--truncation", "12"]):
            assert main(argv) == 0, argv

    def test_oracle_certificate_count(self, tmp_path, capsys, monkeypatch):
        # validate builds A's squaring sequence once; both truncations, both
        # Gramians and both Riccati solves read it, and each closed loop A0
        # is certified alone
        path = tmp_path / "p.json"
        assert main(["generate", "--seed", "3", "--out", str(path)]) == 0
        data, _ = read_problem(path)
        built = squaring_builds(monkeypatch)
        assert main(["oracle", str(path)]) == 0
        assert "verdict: FEASIBLE" in capsys.readouterr().out
        assert builds_of(built, data.A) == 1
        assert len(built) == 3

    def test_check_certificate_count(self, tmp_path, capsys, monkeypatch):
        # check's validate and solve's own one build A's sequence once
        path = tmp_path / "p.json"
        assert main(["generate", "--seed", "3", "--out", str(path)]) == 0
        data, _ = read_problem(path)
        built = squaring_builds(monkeypatch)
        assert main(["check", str(path)]) == 0
        assert "verdict: FEASIBLE" in capsys.readouterr().out
        assert builds_of(built, data.A) == 1
        assert len(built) == 3


class TestGenerateAndErrors:
    def test_generate_then_check(self, tmp_path, capsys):
        path = tmp_path / "generated.json"
        assert main(["generate", "--seed", "5", "--out", str(path)]) == 0
        assert "generated: seed 5" in capsys.readouterr().out
        data, _ = read_problem(path)
        doc = load(path)
        assert doc["provenance"]["seed"] == 5
        assert doc["provenance"]["margin_estimate"] > 0
        assert main(["check", str(path)]) == 0

    def test_generate_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "6", "--out", str(p1)]) == 0
        assert main(["generate", "--seed", "6", "--out", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()

    def test_ragged_file_exits_1(self, tmp_path, capsys):
        data, _ = random_problem(125)
        from leechsolve.files import problem_to_dict, dump
        doc = problem_to_dict(data)
        doc["A"][0] = doc["A"][0][:-1]
        path = tmp_path / "ragged.json"
        dump(doc, path)
        assert main(["check", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_tolerance_option_in_file_exits_1(self, tmp_path, capsys):
        data, _ = random_problem(120)
        path = tmp_path / "tol.json"
        write_problem(data, path, options={"tol": 1e-6})
        assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "verdict" not in out
        assert "unknown options ['tol']" in err


class TestUsage:
    # argparse's own exit code 2 would read as INFEASIBLE or BREAKDOWN
    @pytest.mark.parametrize("argv", [
        [],
        ["check"],
        ["frobnicate"],
        ["check", "p.json", "--tol", "1e-9"],
        ["solve", "p.json", "--rank-tol", "1e-8"],
        ["oracle", "p.json", "--truncation", "abc"],
        ["generate", "--seed", "-1"],
    ], ids=["no-command", "no-file", "unknown-command", "tol", "rank-tol", "bad-truncation",
            "negative-seed"])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "solve", "coefficients", "oracle"])
    def test_help_exits_0_and_names_no_tolerance(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: leechsolve {command}")
        assert "tol" not in out


EXIT_CODES = {
    errors.FileFormatError: 1,
    errors.ValidationError: 1,
    errors.DimensionError: 1,
    errors.EvaluationError: 1,
    errors.LeechError: 1,
    OSError: 1,
    errors.InfeasibleError: 2,
    errors.RiccatiError: 2,
    errors.BreakdownError: 2,
    errors.NotInvertibleError: 2,
    errors.RankDefectError: 2,
    errors.DefinitenessError: 2,
    errors.StabilityError: 2,
    errors.ParameterError: 3,
}


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        classes = {cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, errors.LeechError)}
        assert classes == set(EXIT_CODES) - {OSError}

    @pytest.mark.parametrize("error, code", EXIT_CODES.items(),
                             ids=[cls.__name__ for cls in EXIT_CODES])
    def test_exit_code_of_each_class(self, error, code, monkeypatch, capsys):
        def failing(args):
            raise error("planted failure")

        monkeypatch.setattr(cli, "cmd_generate", failing)
        assert main(["generate", "--seed", "1"]) == code
        assert "error: planted failure" in capsys.readouterr().err


# The child process gets a minimal environment so that an outer LEECH_LOG
# cannot leak in; PYTHONPATH points it at the copy of the package this
# process imported (a src/ checkout or an installed package).
PACKAGE_PARENT = str(Path(leechsolve.__file__).resolve().parents[1])


class TestProcessLevel:
    def test_console_script_and_logging(self, tmp_path):
        data, _ = random_problem(126)
        path = tmp_path / "problem.json"
        write_problem(data, path)
        proc = subprocess.run(
            [sys.executable, "-m", "leechsolve.cli", "check", str(path)],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_PARENT,
                 "LEECH_LOG": "DEBUG"})
        assert proc.returncode == 0
        assert "verdict: FEASIBLE" in proc.stdout
        assert "positivity gaps" in proc.stderr

    def test_import_loads_no_scipy(self):
        # scipy is optional; importing it would add about 20 MB of RSS
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, leechsolve, leechsolve.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_PARENT})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_log_level_defaults_quiet(self, tmp_path):
        data, _ = random_problem(126)
        path = tmp_path / "problem.json"
        write_problem(data, path)
        proc = subprocess.run(
            [sys.executable, "-m", "leechsolve.cli", "check", str(path)],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_PARENT})
        assert proc.returncode == 0
        assert "positivity gaps" not in proc.stderr

"""JSON encoding: bit-exact round trips and precise failure reporting."""

import json
import re

import numpy as np
import pytest

from leechsolve import cli, files
from leechsolve.errors import FileFormatError
from leechsolve.files import (
    coefficients_from_dict,
    coefficients_to_dict,
    decode_matrix,
    dump,
    encode_matrix,
    load,
    problem_from_dict,
    problem_to_dict,
    read_problem,
    read_realization,
    read_solution,
    solution_to_dict,
    write_problem,
    write_realization,
)
from leechsolve.coefficients import build_redheffer, central_solution
from leechsolve.generate import random_contraction, random_problem


class TestRoundTrip:
    def test_problem_is_bit_exact(self, tmp_path):
        data, _ = random_problem(80)
        path = tmp_path / "problem.json"
        write_problem(data, path, options={"truncation": 60})
        back, options = read_problem(path)
        for name in ("A", "B1", "B2", "C", "D1", "D2"):
            assert np.array_equal(getattr(back, name), getattr(data, name))
        assert options == {"truncation": 60}

    def test_awkward_floats_survive(self, tmp_path):
        # denormal-adjacent, non-representable decimals, negative zero
        vals = [1.0 / 3.0, 0.1, 2.0 ** -52, -0.0, np.pi, 1e-300]
        M = np.array([[complex(a, b) for a in vals] for b in vals])
        doc = {"M": encode_matrix(M)}
        path = tmp_path / "m.json"
        dump(doc, path)
        back = decode_matrix(load(path)["M"], len(vals), len(vals), "M")
        assert np.array_equal(back, M)

    def test_realization_round_trip(self, tmp_path, battery):
        X = central_solution(battery[0].coeffs)
        path = tmp_path / "x.json"
        write_realization(X, path)
        back = read_realization(path)
        for name in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(back, name), getattr(X, name))

    def test_solution_document(self, tmp_path):
        data, _ = random_problem(81)
        from leechsolve import build_upsilon, solve
        coeffs = build_upsilon(solve(data))
        X = central_solution(coeffs)
        doc = solution_to_dict(X, {"norm_estimate": np.float64(0.5), "grid": np.int64(512)})
        path = tmp_path / "sol.json"
        dump(doc, path)
        back, verification = read_solution(path)
        assert np.array_equal(back.D, X.D)
        assert verification == {"norm_estimate": 0.5, "grid": 512}

    def test_coefficients_document(self, battery):
        c = battery[0].coeffs
        phi = build_redheffer(c)
        doc = coefficients_to_dict(c, phi)
        out = coefficients_from_dict(json.loads(json.dumps(doc)))
        for name in ("Theta0", "Delta0", "Delta1"):
            assert np.array_equal(out[name], getattr(c, name)), name
        for source, names in ((c, ("U11", "U12", "U21", "U22")),
                              (phi, ("Phi11", "Phi12", "Phi21", "Phi22"))):
            for name in names:
                for part in ("A", "B", "C", "D"):
                    assert np.array_equal(getattr(out[name], part),
                                          getattr(getattr(source, name), part)), f"{name}.{part}"


def _same_value(got, doc, where="doc"):
    """got, a decoded JSON value, is the value of doc, every float bit for bit."""
    if isinstance(doc, dict):
        assert isinstance(got, dict) and list(got) == [str(key) for key in doc], where
        for key, val in doc.items():
            _same_value(got[str(key)], val, f"{where}.{key}")
    elif isinstance(doc, (list, tuple)):
        assert isinstance(got, list) and len(got) == len(doc), where
        for i, (a, b) in enumerate(zip(got, doc)):
            _same_value(a, b, f"{where}[{i}]")
    elif isinstance(doc, (float, np.floating)):
        assert type(got) is float and got.hex() == float(doc).hex(), where
    elif isinstance(doc, (bool, str)) or doc is None:
        assert type(got) is type(doc) and got == doc, where
    else:
        assert type(got) is int and got == int(doc), where


class TestLayout:
    """Each document is written as one line of JSON holding its value."""

    def test_every_document_is_one_line(self, tmp_path, monkeypatch, capsys):
        written = []
        real = files.dump

        def recording(doc, path=None):
            written.append((doc, path))
            return real(doc, path)

        monkeypatch.setattr(files, "dump", recording)
        problem, y = str(tmp_path / "problem.json"), str(tmp_path / "y.json")
        assert cli.main(["generate", "--seed", "3", "--out", problem]) == 0
        coeffs = str(tmp_path / "coefficients.json")
        assert cli.main(["coefficients", problem, "--out", coeffs]) == 0
        dims = load(coeffs)["dims"]
        write_realization(random_contraction(4, dims["free"], dims["q"], 0.5), y)
        assert cli.main(["solve", problem, y, "--out", str(tmp_path / "solution.json")]) == 0
        assert cli.main(["oracle", problem, "--truncation", "40",
                         "--out", str(tmp_path / "report.json")]) == 0
        capsys.readouterr()
        assert sorted(doc["type"] for doc, _ in written) == [
            "leech_coefficients", "leech_problem", "leech_solution", "oracle_report",
            "realization"]

        def no_constant(name):
            raise AssertionError(f"{name} in an artifact")

        for doc, path in written:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text.endswith("\n") and text.count("\n") == 1, doc["type"]
            _same_value(json.loads(text, parse_constant=no_constant), doc, doc["type"])


class TestFailures:
    def _doc(self):
        data, _ = random_problem(82)
        return problem_to_dict(data)

    def test_ragged_row_reports_position(self):
        doc = self._doc()
        doc["B1"][1] = doc["B1"][1][:-1]
        with pytest.raises(FileFormatError, match=r"B1, row 1"):
            problem_from_dict(doc)

    def test_bad_pair_reports_column(self):
        doc = self._doc()
        doc["C"][0][1] = [1.0, 2.0, 3.0]
        with pytest.raises(FileFormatError, match=r"C, row 0, column 1"):
            problem_from_dict(doc)

    def test_boolean_entry_rejected(self):
        doc = self._doc()
        doc["A"][0][0] = [True, 0.0]
        with pytest.raises(FileFormatError, match="re, im"):
            problem_from_dict(doc)

    def test_missing_field(self):
        doc = self._doc()
        del doc["D2"]
        with pytest.raises(FileFormatError, match="missing field 'D2'"):
            problem_from_dict(doc)

    def test_wrong_type_tag(self):
        doc = self._doc()
        doc["type"] = "something_else"
        with pytest.raises(FileFormatError, match="leech_problem"):
            problem_from_dict(doc)

    def test_dimension_mismatch(self):
        doc = self._doc()
        doc["dims"]["n"] = doc["dims"]["n"] + 1
        with pytest.raises(FileFormatError, match="rows"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("key", ["tol", "rank_tol"])
    def test_tolerance_option_is_refused(self, key):
        # the thresholds are fixed, so a file that sets one is never silently obeyed or dropped
        doc = self._doc()
        doc["options"] = {"truncation": 60, key: 1e-6}
        with pytest.raises(FileFormatError, match=rf"unknown options \['{key}'\]"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("value", ["abc", 12.5, True, 0])
    def test_truncation_option_must_be_a_positive_integer(self, value):
        doc = self._doc()
        doc["options"] = {"truncation": value}
        with pytest.raises(FileFormatError, match="options.truncation must be a positive integer"):
            problem_from_dict(doc)

    def test_negative_dimension(self):
        doc = self._doc()
        doc["dims"]["q"] = -1
        with pytest.raises(FileFormatError, match="nonnegative"):
            problem_from_dict(doc)

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "type": "leech_problem",\n  oops\n}\n')
        with pytest.raises(FileFormatError, match="line 3"):
            load(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(FileFormatError, match="object"):
            read_problem(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"type": "leech_problem", "note": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}: not readable as UTF-8"):
            read_problem(path)

    def test_nesting_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}: not readable as UTF-8 JSON"):
            read_problem(path)

    def test_entry_beyond_the_float_range(self, tmp_path):
        doc = self._doc()
        doc["C"][0][1] = [1, 10 ** 400]
        path = tmp_path / "huge.json"
        dump(doc, path)
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}\.C, row 0, column 1: "
                                                  "entry out of the float range"):
            read_problem(path)

    def test_declared_dimension_beyond_the_rows(self, monkeypatch):
        # the rows are checked before anything is allocated, so a column
        # count the file does not hold asks numpy for nothing
        real = np.zeros

        def small_zeros(shape, *args, **kwargs):
            dims = shape if isinstance(shape, tuple) else (shape,)
            assert np.prod([float(d) for d in dims]) < 1e6, shape
            return real(shape, *args, **kwargs)

        doc = self._doc()
        monkeypatch.setattr(np, "zeros", small_zeros)
        for q in (3 * 10 ** 9, 10 ** 400):
            doc["dims"]["q"] = q
            with pytest.raises(FileFormatError, match=rf"B2, row 0: expected {q} entries"):
                problem_from_dict(doc)

    def test_empty_rows_of_unallocatable_width(self):
        # n = 0 and p = 10**400: B1 has no row to refuse, and its shape
        # cannot be allocated
        doc = {"type": "leech_problem", "dims": {"n": 0, "m": 1, "p": 10 ** 400, "q": 1},
               "A": [], "B1": [], "B2": [], "C": [[]], "D1": [[]], "D2": [[[0.0, 0.0]]]}
        with pytest.raises(FileFormatError, match=r"problem\.B1: a 0 x 10{400} matrix "
                                                  "cannot be allocated"):
            problem_from_dict(doc)
        with pytest.raises(FileFormatError, match="cannot be allocated"):
            decode_matrix([], 0, 10 ** 400, "M")

    def test_unserializable_scalar_raises(self):
        with pytest.raises(TypeError):
            dump({"bad": object()})

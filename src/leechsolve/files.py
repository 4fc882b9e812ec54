"""JSON file format for problems, realizations, solutions and reports.

Matrices are encoded as nested lists with every entry an [re, im] pair, and
every object carries its dimensions explicitly — shapes are validated against
the declared dimensions, never inferred.  Floats go through repr, so a
write/read round trip reproduces every entry bit for bit.  A document is
written as one line with no indentation; readers accept any layout.
"""

import json

import numpy as np

from .core import LeechData
from .errors import FileFormatError
from .realization import Realization

FORMAT_VERSION = 1


def encode_matrix(M):
    # each complex entry viewed as its [re, im] pair of floats
    return np.asarray(M, dtype=complex)[..., None].view(float).tolist()


def _is(val, kind):
    """isinstance(val, kind), with a bool never a number."""
    return isinstance(val, kind) and not isinstance(val, bool)


def decode_matrix(obj, rows, cols, where):
    """The rows x cols complex matrix `obj` encodes.  Its shape is checked
    against the declared one before anything is allocated, so a declared
    dimension the file does not hold costs nothing."""
    if not isinstance(obj, list):
        raise FileFormatError(f"{where}: expected a list of rows, got {type(obj).__name__}")
    if len(obj) != rows:
        raise FileFormatError(f"{where}: expected {rows} rows, got {len(obj)}")
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise FileFormatError(f"{where}, row {i}: expected a list, got {type(row).__name__}")
        if len(row) != cols:
            raise FileFormatError(f"{where}, row {i}: expected {cols} entries, got {len(row)}")
    try:
        out = np.zeros((rows, cols), dtype=complex)
    except (ValueError, MemoryError) as exc:  # a shape no row bounds, such as 0 x 10**400
        raise FileFormatError(f"{where}: a {rows} x {cols} matrix cannot be allocated") from exc
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(_is(v, (int, float)) for v in entry)):
                raise FileFormatError(
                    f"{where}, row {i}, column {j}: expected an [re, im] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError as exc:  # an integer beyond the float range
                raise FileFormatError(
                    f"{where}, row {i}, column {j}: entry out of the float range") from exc
    return out


def _require(obj, key, where, kind=None):
    if key not in obj:
        raise FileFormatError(f"{where}: missing field '{key}'")
    val = obj[key]
    if kind is not None and not _is(val, kind):
        raise FileFormatError(
            f"{where}: field '{key}' must be {kind.__name__}, got {type(val).__name__}")
    return val


def _dim(obj, key, where):
    val = _require(obj, key, where)
    if not _is(val, int) or val < 0:
        raise FileFormatError(f"{where}: dimension '{key}' must be a nonnegative integer")
    return val


def problem_to_dict(data, options=None, provenance=None):
    doc = {
        "type": "leech_problem",
        "version": FORMAT_VERSION,
        "dims": {"n": data.n, "m": data.m, "p": data.p, "q": data.q},
        "A": encode_matrix(data.A),
        "B1": encode_matrix(data.B1),
        "B2": encode_matrix(data.B2),
        "C": encode_matrix(data.C),
        "D1": encode_matrix(data.D1),
        "D2": encode_matrix(data.D2),
    }
    if options:
        doc["options"] = dict(options)
    if provenance:
        doc["provenance"] = dict(provenance)
    return doc


def problem_from_dict(doc, where="problem"):
    if _require(doc, "type", where) != "leech_problem":
        raise FileFormatError(f"{where}: type must be 'leech_problem', got {doc.get('type')!r}")
    dims = _require(doc, "dims", where, dict)
    n = _dim(dims, "n", f"{where}.dims")
    m = _dim(dims, "m", f"{where}.dims")
    p = _dim(dims, "p", f"{where}.dims")
    q = _dim(dims, "q", f"{where}.dims")
    data = LeechData(
        A=decode_matrix(_require(doc, "A", where), n, n, f"{where}.A"),
        B1=decode_matrix(_require(doc, "B1", where), n, p, f"{where}.B1"),
        B2=decode_matrix(_require(doc, "B2", where), n, q, f"{where}.B2"),
        C=decode_matrix(_require(doc, "C", where), m, n, f"{where}.C"),
        D1=decode_matrix(_require(doc, "D1", where), m, p, f"{where}.D1"),
        D2=decode_matrix(_require(doc, "D2", where), m, q, f"{where}.D2"),
    )
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise FileFormatError(f"{where}: options must be an object")
    unknown = sorted(set(options) - {"truncation"})
    if unknown:
        raise FileFormatError(f"{where}: unknown options {unknown}; "
                              "'truncation' is the only per-file option")
    trunc = options.get("truncation", 1)
    if not _is(trunc, int) or trunc < 1:
        raise FileFormatError(f"{where}: options.truncation must be a positive integer")
    return data, options


def realization_to_dict(F):
    return {
        "type": "realization",
        "version": FORMAT_VERSION,
        "dims": {"state": F.state_dim, "out": F.out_dim, "in": F.in_dim},
        "A": encode_matrix(F.A),
        "B": encode_matrix(F.B),
        "C": encode_matrix(F.C),
        "D": encode_matrix(F.D),
    }


def realization_from_dict(doc, where="realization"):
    if _require(doc, "type", where) != "realization":
        raise FileFormatError(f"{where}: type must be 'realization', got {doc.get('type')!r}")
    dims = _require(doc, "dims", where, dict)
    ns = _dim(dims, "state", f"{where}.dims")
    no = _dim(dims, "out", f"{where}.dims")
    ni = _dim(dims, "in", f"{where}.dims")
    return Realization(
        A=decode_matrix(_require(doc, "A", where), ns, ns, f"{where}.A"),
        B=decode_matrix(_require(doc, "B", where), ns, ni, f"{where}.B"),
        C=decode_matrix(_require(doc, "C", where), no, ns, f"{where}.C"),
        D=decode_matrix(_require(doc, "D", where), no, ni, f"{where}.D"),
    )


def solution_to_dict(X, verification):
    return {
        "type": "leech_solution",
        "version": FORMAT_VERSION,
        "realization": realization_to_dict(X),
        "verification": verification,
    }


def solution_from_dict(doc, where="solution"):
    if _require(doc, "type", where) != "leech_solution":
        raise FileFormatError(f"{where}: type must be 'leech_solution', got {doc.get('type')!r}")
    X = realization_from_dict(_require(doc, "realization", where, dict), f"{where}.realization")
    verification = _require(doc, "verification", where, dict)
    return X, verification


def coefficients_to_dict(coeffs, phi):
    doc = {
        "type": "leech_coefficients",
        "version": FORMAT_VERSION,
        "dims": {"p": coeffs.p, "q": coeffs.q, "free": coeffs.free_dim},
        "Theta0": encode_matrix(coeffs.Theta0),
        "Delta0": encode_matrix(coeffs.Delta0),
        "Delta1": encode_matrix(coeffs.Delta1),
    }
    for name in ("U11", "U12", "U21", "U22"):
        doc[name] = realization_to_dict(getattr(coeffs, name))
    for name in ("Phi11", "Phi12", "Phi21", "Phi22"):
        doc[name] = realization_to_dict(getattr(phi, name))
    return doc


def coefficients_from_dict(doc, where="coefficients"):
    if _require(doc, "type", where) != "leech_coefficients":
        raise FileFormatError(
            f"{where}: type must be 'leech_coefficients', got {doc.get('type')!r}")
    dims = _require(doc, "dims", where, dict)
    p = _dim(dims, "p", f"{where}.dims")
    q = _dim(dims, "q", f"{where}.dims")
    free = _dim(dims, "free", f"{where}.dims")
    out = {
        "Theta0": decode_matrix(_require(doc, "Theta0", where), p, free, f"{where}.Theta0"),
        "Delta0": decode_matrix(_require(doc, "Delta0", where), q, q, f"{where}.Delta0"),
        "Delta1": decode_matrix(_require(doc, "Delta1", where), free, free, f"{where}.Delta1"),
    }
    for name in ("U11", "U12", "U21", "U22", "Phi11", "Phi12", "Phi21", "Phi22"):
        out[name] = realization_from_dict(_require(doc, name, where, dict), f"{where}.{name}")
    return out


def load(path):
    """The JSON value in the file at path.  Malformed JSON, bytes that are not
    UTF-8, an overlong integer or nesting past the recursion limit: FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FileFormatError(f"{path}: not readable as UTF-8 JSON: {exc}") from exc


def _scalar_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def dump(doc, path=None):
    # no indent: CPython encodes in C only then, and the file is one line
    text = json.dumps(doc, default=_scalar_default)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return None


def _read(path, from_dict):
    """from_dict of the JSON object in the file at path."""
    doc = load(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return from_dict(doc, where=str(path))


def read_problem(path):
    return _read(path, problem_from_dict)


def write_problem(data, path, options=None, provenance=None):
    dump(problem_to_dict(data, options=options, provenance=provenance), path)


def read_realization(path):
    return _read(path, realization_from_dict)


def write_realization(F, path):
    dump(realization_to_dict(F), path)


def read_solution(path):
    return _read(path, solution_from_dict)


def write_solution(X, verification, path):
    dump(solution_to_dict(X, verification), path)

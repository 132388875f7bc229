"""JSON schemas for series, tuples, representation specs, and models.

Complex scalars travel as [re, im] pairs, matrices as row-major nested
lists of those pairs (plain numbers are accepted on input for real
entries), and matrix tuples as {"d", "n", "matrices"}. Numbers must be
finite floats, so an integer literal past the float range is refused; a
series' "real_free", when present, must be a JSON boolean. Parsers
validate eagerly and raise SchemaError naming the JSON path of the
offending field, so CLI users see "$.terms[3].word" instead of a
traceback from three layers down. Serializers always emit the strict
two-component form; non-finite floats become null.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .herglotz import HerglotzModel
from .matcore import MatrixTuple, SchemaError
from .nevanlinna import RepresentationSpec
from .series import FreeSeries, require_real_free


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a schema error at $."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"$: {exc}") from exc


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _get(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key]


def _as_number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, f"expected a number, got {type(x).__name__}")
    try:
        x = float(x)
    except OverflowError:
        _fail(path, "number is too large for a float")
    if not math.isfinite(x):
        _fail(path, "number must be finite")
    return x


def _as_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {type(x).__name__}")
    return x


def _as_complex(x, path: str) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(_as_number(x, path), 0.0)
    if isinstance(x, list) and len(x) == 2:
        return complex(_as_number(x[0], path + "[0]"), _as_number(x[1], path + "[1]"))
    _fail(path, "expected a number or an [re, im] pair")


def _as_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{r}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{r}]", f"row length {len(row)} differs from {width}")
        rows.append([_as_complex(x, f"{path}[{r}][{c}]") for c, x in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _as_vector(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty list")
    return np.array([_as_complex(x, f"{path}[{i}]") for i, x in enumerate(obj)])


def _as_matrix_list(obj, path: str) -> tuple[np.ndarray, ...] | None:
    if obj is None:
        return None
    if not isinstance(obj, list):
        _fail(path, "expected a list of matrices")
    return tuple(_as_matrix(M, f"{path}[{i}]") for i, M in enumerate(obj))


def _terms_in_bulk(terms: list, d: int, degree: int) -> dict[tuple[int, ...], complex] | None:
    """The series terms read with a few whole-list passes: word -> complex(re,
    im) when every term is an object with a list of int letters in 1..d, no
    word longer than degree or there twice and finite int or float re and im,
    else None (also when any step raises), so that the per-term loop names
    the first bad term and the constructor the first long word."""
    try:
        words = [term["word"] for term in terms]
        res = [term["re"] for term in terms]
        ims = [term.get("im", 0.0) for term in terms]
        letters = list(itertools.chain.from_iterable(words))
        values = res + ims
        if (
            set(map(type, words)) <= {list}
            and set(map(type, letters)) <= {int}
            and (not letters or 1 <= min(letters) and max(letters) <= d and max(map(len, words)) <= degree)
            and set(map(type, values)) <= {int, float}
            and all(map(math.isfinite, values))  # an int past the float range raises
        ):
            coeffs = dict(zip(map(tuple, words), map(complex, res, ims)))
            if len(coeffs) == len(terms):
                return coeffs
    except (KeyError, TypeError, OverflowError):
        pass
    return None


def parse_series(path: str) -> FreeSeries:
    data = _load(path)
    d = _as_int(_get(data, "d", "$"), "$.d")
    degree = _as_int(_get(data, "degree", "$"), "$.degree")
    real_free = data.get("real_free", False)
    if not isinstance(real_free, bool):
        _fail("$.real_free", f"expected a boolean, got {type(real_free).__name__}")
    decay = data.get("decay_rate")
    if decay is not None:
        decay = _as_number(decay, "$.decay_rate")
    terms = _get(data, "terms", "$")
    if not isinstance(terms, list):
        _fail("$.terms", "expected a list")
    coeffs = _terms_in_bulk(terms, d, degree)
    if coeffs is not None:
        f = _build(FreeSeries._from_checked, d=d, degree=degree, coeffs=coeffs, real_free=real_free, decay_rate=decay)
    else:  # some term is bad: name the first one in file order
        coeffs = {}
        for t, term in enumerate(terms):
            tpath = f"$.terms[{t}]"
            raw = _get(term, "word", tpath)
            if not isinstance(raw, list):
                _fail(tpath + ".word", "expected a list of letters")
            word = tuple(_as_int(x, f"{tpath}.word[{i}]") for i, x in enumerate(raw))
            for i, letter in enumerate(word):
                if not 1 <= letter <= d:
                    _fail(f"{tpath}.word[{i}]", f"letter {letter} outside 1..{d}")
            if word in coeffs:
                _fail(tpath + ".word", f"duplicate word {list(word)}")
            re = _as_number(_get(term, "re", tpath), tpath + ".re")
            im = _as_number(term.get("im", 0.0), tpath + ".im")
            coeffs[word] = complex(re, im)
        f = _build(FreeSeries, d=d, degree=degree, coeffs=coeffs, real_free=real_free, decay_rate=decay)
    if real_free:
        _build(require_real_free, f, path)
    return f


def parse_tuple(path: str) -> MatrixTuple:
    data = _load(path)
    d = _as_int(_get(data, "d", "$"), "$.d")
    n = _as_int(_get(data, "n", "$"), "$.n")
    mats = _get(data, "matrices", "$")
    if not isinstance(mats, list) or len(mats) != d:
        _fail("$.matrices", f"expected a list of {d} matrices")
    parsed = []
    for i, M in enumerate(mats):
        A = _as_matrix(M, f"$.matrices[{i}]")
        if A.shape != (n, n):
            _fail(f"$.matrices[{i}]", f"expected shape {n}x{n}, got {A.shape[0]}x{A.shape[1]}")
        parsed.append(A)
    return _build(MatrixTuple, tuple(parsed))


def parse_matrix(path: str) -> np.ndarray:
    """A bare matrix file (used for interpolation targets)."""
    return _as_matrix(_load(path), "$")


def parse_spec(path: str) -> RepresentationSpec | HerglotzModel:
    """Dispatch on keys: "kind" means representation, "U" means model."""
    data = _load(path)
    if not isinstance(data, dict):
        _fail("$", "expected an object")
    if "kind" in data:
        return _parse_representation(data)
    if "U" in data:
        return _parse_model(data)
    _fail("$", 'expected a representation (key "kind") or a Herglotz model (key "U")')


def _parse_representation(data: dict) -> RepresentationSpec:
    kind = _as_int(_get(data, "kind", "$"), "$.kind")
    m = _as_int(_get(data, "m", "$"), "$.m")
    a = _as_number(data.get("a", 0.0), "$.a")
    A = _as_matrix(_get(data, "A", "$"), "$.A")
    v = _as_vector(_get(data, "v", "$"), "$.v")
    Y = _as_matrix_list(data.get("Y"), "$.Y")
    P = _as_matrix_list(data.get("P"), "$.P")
    dimN = data.get("dimN")
    if dimN is not None:
        dimN = _as_int(dimN, "$.dimN")
    return _build(RepresentationSpec, kind=kind, a=a, m=m, A=A, v=v, Y=Y, P=P, dimN=dimN)


def _parse_model(data: dict) -> HerglotzModel:
    d = _as_int(_get(data, "d", "$"), "$.d")
    m = _as_int(_get(data, "m", "$"), "$.m")
    U = _as_matrix(_get(data, "U", "$"), "$.U")
    v = _as_vector(_get(data, "v", "$"), "$.v")
    a = _as_number(data.get("a", 0.0), "$.a")
    return _build(HerglotzModel, d=d, m=m, U=U, v=v, a=a)


def complex_to_json(z: complex) -> list[float] | None:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None
    return [z.real, z.imag]


def float_to_json(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M)
    return [[complex_to_json(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_json(x) for x in np.asarray(v).reshape(-1)]


def tuple_to_json(X: MatrixTuple) -> dict:
    return {"d": X.d, "n": X.n, "matrices": [matrix_to_json(M) for M in X.mats]}


def series_to_json(f: FreeSeries) -> dict:
    terms = [
        {"word": list(w), "re": float(c.real), "im": float(c.imag)}
        for w, c in sorted(f.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {
        "d": f.d,
        "degree": f.degree,
        "real_free": f.real_free,
        "decay_rate": float_to_json(f.decay_rate),
        "terms": terms,
    }


def dump_report(report: dict) -> str:
    """Canonical byte-stable rendering: sorted keys, two-space indent."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"

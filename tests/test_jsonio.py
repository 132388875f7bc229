import json

import numpy as np
import pytest

from freepick.herglotz import HerglotzModel
from freepick.jsonio import (
    complex_to_json,
    dump_report,
    matrix_to_json,
    parse_matrix,
    parse_series,
    parse_spec,
    parse_tuple,
    series_to_json,
    tuple_to_json,
)
from freepick.matcore import SchemaError
from freepick.nevanlinna import RepresentationSpec
from freepick.series import FreeSeries


def write(tmp_path, name: str, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# -------------------------------------------------------------------- parsing


def test_series_roundtrip(tmp_path, halfres_series):
    path = write(tmp_path, "series.json", series_to_json(halfres_series))
    back = parse_series(path)
    assert back.d == halfres_series.d
    assert back.degree == halfres_series.degree
    assert back.real_free
    assert back.decay_rate == halfres_series.decay_rate
    assert back.coeffs == halfres_series.coeffs


def test_tuple_roundtrip(tmp_path):
    X = parse_tuple(
        write(
            tmp_path,
            "tuple.json",
            {"d": 2, "n": 2, "matrices": [[[0, [0, 1]], [1, 0]], [[1, 0], [0, [2, -1]]]]},
        )
    )
    assert X.d == 2 and X.n == 2
    assert X.mats[0][0, 1] == 1j
    assert X.mats[1][1, 1] == 2 - 1j
    back = parse_tuple(write(tmp_path, "tuple2.json", tuple_to_json(X)))
    for A, B in zip(X.mats, back.mats):
        np.testing.assert_array_equal(A, B)


def test_missing_key_names_path(tmp_path):
    with pytest.raises(SchemaError, match=r"\$: missing required key 'degree'"):
        parse_series(write(tmp_path, "s.json", {"d": 1, "terms": []}))


def test_letter_out_of_range_names_term(tmp_path):
    payload = {"d": 1, "degree": 2, "terms": [{"word": [1, 2], "re": 1.0}]}
    with pytest.raises(SchemaError, match=r"\$\.terms\[0\]\.word\[1\]"):
        parse_series(write(tmp_path, "s.json", payload))


def test_duplicate_word_rejected(tmp_path):
    payload = {
        "d": 1,
        "degree": 2,
        "terms": [{"word": [1], "re": 1.0}, {"word": [1], "re": 2.0}],
    }
    with pytest.raises(SchemaError, match="duplicate word"):
        parse_series(write(tmp_path, "s.json", payload))


def test_symmetry_checked_when_real_free_claimed(tmp_path):
    payload = {
        "d": 2,
        "degree": 2,
        "real_free": True,
        "terms": [{"word": [1, 2], "re": 1.0}],
    }
    with pytest.raises(SchemaError, match="symmetry"):
        parse_series(write(tmp_path, "s.json", payload))


def test_word_keys_past_int64_are_a_schema_error(tmp_path):
    payload = {
        "d": 2,
        "degree": 64,
        "real_free": True,
        "terms": [{"word": [1] * 64, "re": 1.0}],
    }
    with pytest.raises(SchemaError, match=r"^\$: word keys overflow int64 for d=2 at degree 64"):
        parse_series(write(tmp_path, "s.json", payload))


def test_ragged_matrix_names_row(tmp_path):
    payload = {"d": 1, "n": 2, "matrices": [[[1, 0], [1]]]}
    with pytest.raises(SchemaError, match=r"\$\.matrices\[0\]\[1\]"):
        parse_tuple(write(tmp_path, "t.json", payload))


def test_bad_complex_entry(tmp_path):
    payload = {"d": 1, "n": 1, "matrices": [[[[1, 2, 3]]]]}
    with pytest.raises(SchemaError, match="re, im"):
        parse_tuple(write(tmp_path, "t.json", payload))


def test_wrong_matrix_count(tmp_path):
    payload = {"d": 2, "n": 1, "matrices": [[[1]]]}
    with pytest.raises(SchemaError, match="list of 2 matrices"):
        parse_tuple(write(tmp_path, "t.json", payload))


def test_nonfinite_number_rejected(tmp_path):
    p = tmp_path / "t.json"
    p.write_text('{"d": 1, "n": 1, "matrices": [[[NaN]]]}')
    with pytest.raises(SchemaError, match="finite"):
        parse_tuple(str(p))


def test_missing_file_is_schema_error():
    with pytest.raises(SchemaError, match="cannot read"):
        parse_tuple("/nonexistent/nowhere.json")


def test_invalid_json_is_schema_error(tmp_path):
    p = tmp_path / "t.json"
    p.write_text("{half a")
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_tuple(str(p))


def test_parse_matrix(tmp_path):
    M = parse_matrix(write(tmp_path, "m.json", [[1, [0, 2]], [0, 1]]))
    np.testing.assert_array_equal(M, np.array([[1, 2j], [0, 1]]))


# ------------------------------------------------------------------- dispatch


def test_spec_dispatch_representation(fixtures_dir):
    spec = parse_spec(str(fixtures_dir / "type1_rep.json"))
    assert isinstance(spec, RepresentationSpec)
    assert spec.kind == 1
    assert spec.d == 2


def test_spec_dispatch_model(fixtures_dir):
    model = parse_spec(str(fixtures_dir / "moebius_model.json"))
    assert isinstance(model, HerglotzModel)
    assert model.d == 1 and model.m == 1


def test_spec_dispatch_kind4(fixtures_dir):
    spec = parse_spec(str(fixtures_dir / "type4_rep.json"))
    assert spec.kind == 4
    assert spec.dimN == 1


def test_spec_requires_discriminating_key(tmp_path):
    with pytest.raises(SchemaError, match='"kind".*"U"'):
        parse_spec(write(tmp_path, "spec.json", {"d": 1}))


def test_bad_decomposition_reported_as_schema_error(tmp_path):
    payload = {
        "kind": 2,
        "m": 1,
        "A": [[0.0]],
        "v": [1.0],
        "Y": [[[0.5]], [[0.4]]],
    }
    with pytest.raises(SchemaError, match="identity"):
        parse_spec(write(tmp_path, "spec.json", payload))


def test_nonunitary_model_reported_as_schema_error(tmp_path):
    payload = {"d": 1, "m": 1, "U": [[2.0]], "v": [1.0]}
    with pytest.raises(SchemaError, match="unitary"):
        parse_spec(write(tmp_path, "spec.json", payload))


# ------------------------------------------------------------------- emitting


def test_complex_to_json_forms():
    assert complex_to_json(1.5) == [1.5, 0.0]
    assert complex_to_json(2j) == [0.0, 2.0]
    assert complex_to_json(complex("nan")) is None


def test_matrix_to_json_nested_pairs():
    out = matrix_to_json(np.array([[1.0, 1j]]))
    assert out == [[[1.0, 0.0], [0.0, 1.0]]]


def test_series_terms_sorted_by_graded_order():
    f = FreeSeries(d=2, degree=2, coeffs={(2, 1): 1.0, (1,): 2.0, (): 3.0})
    words = [t["word"] for t in series_to_json(f)["terms"]]
    assert words == [[], [1], [2, 1]]


def test_dump_report_is_byte_stable():
    a = dump_report({"b": 1, "a": [1.5, None]})
    b = dump_report({"a": [1.5, None], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, None], "b": 1}


def test_dump_report_refuses_nan():
    with pytest.raises(ValueError):
        dump_report({"x": float("nan")})

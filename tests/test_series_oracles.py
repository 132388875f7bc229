"""The per-term parser loop, kept as the oracle for the whole-list check of
parse_series and the trusted path it hands clean terms to.

On any document, corrupted or not, parse_series and its oracle give an equal
series (the same fields, the same keys in the same order, int letters, the
same value bits, signed zeros included) or the same exception type and text.
"""

import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freepick import jsonio
from freepick.hardy import min_norm_interpolate
from freepick.jsonio import parse_matrix, parse_series, parse_tuple
from freepick.matcore import SchemaError
from freepick.series import FreeSeries, require_real_free


def loop_parse(path: str) -> FreeSeries:
    """parse_series with the per-term loop over the terms."""
    data = jsonio._load(path)
    d = jsonio._as_int(jsonio._get(data, "d", "$"), "$.d")
    degree = jsonio._as_int(jsonio._get(data, "degree", "$"), "$.degree")
    real_free = data.get("real_free", False)
    if not isinstance(real_free, bool):
        jsonio._fail("$.real_free", f"expected a boolean, got {type(real_free).__name__}")
    decay = data.get("decay_rate")
    if decay is not None:
        decay = jsonio._as_number(decay, "$.decay_rate")
    terms = jsonio._get(data, "terms", "$")
    if not isinstance(terms, list):
        jsonio._fail("$.terms", "expected a list")
    coeffs = {}
    for t, term in enumerate(terms):
        tpath = f"$.terms[{t}]"
        raw = jsonio._get(term, "word", tpath)
        if not isinstance(raw, list):
            jsonio._fail(tpath + ".word", "expected a list of letters")
        word = tuple(jsonio._as_int(x, f"{tpath}.word[{i}]") for i, x in enumerate(raw))
        for i, letter in enumerate(word):
            if not 1 <= letter <= d:
                jsonio._fail(f"{tpath}.word[{i}]", f"letter {letter} outside 1..{d}")
        if word in coeffs:
            jsonio._fail(tpath + ".word", f"duplicate word {list(word)}")
        re = jsonio._as_number(jsonio._get(term, "re", tpath), tpath + ".re")
        im = jsonio._as_number(term.get("im", 0.0), tpath + ".im")
        coeffs[word] = complex(re, im)
    f = jsonio._build(FreeSeries, d=d, degree=degree, coeffs=coeffs, real_free=real_free, decay_rate=decay)
    if real_free:
        jsonio._build(require_real_free, f, path)
    return f


def fingerprint(coeffs: dict) -> list:
    """Keys in order with their letter types, and each value's type and bits."""
    return [
        (w, tuple(map(type, w)), type(c), struct.pack("<2d", c.real, c.imag))
        for w, c in coeffs.items()
    ]


def outcome(make):
    """make()'s result, or the type and text of what it raised; no warning
    may be issued."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return make()
        except Exception as exc:
            return type(exc), str(exc)


def assert_same_outcome(ours, oracle, case=None):
    if isinstance(oracle, tuple) or isinstance(ours, tuple):
        assert ours == oracle, case
    else:
        assert (ours.d, ours.degree, ours.real_free, ours.decay_rate) == (
            oracle.d, oracle.degree, oracle.real_free, oracle.decay_rate,
        ), case
        assert fingerprint(ours.coeffs) == fingerprint(oracle.coeffs), case


FLOATS = st.floats(allow_nan=False, allow_infinity=False)

# corrupted JSON terms: letters, words, whole terms, values, missing keys
JSON_LETTERS = [0, -1, True, False, 1.5, 2.0, "1", None, [1]]
JSON_WORDS = [1, "12", "", None, {}, {"1": 1}, True]
JSON_TERMS = [5, [1], "x", None, True, {}]
JSON_VALUES = [float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 10**300, 3, -0.0, True, False, "1", None, [1, 2]]
# header fields the constructor refuses (d, degree, a rate that is not
# positive) and two rates it keeps, each applied after the terms are drawn
HEADER_CHANGES = [("d", 0), ("d", -1), ("degree", -1), ("decay_rate", 0), ("decay_rate", -1.0), ("decay_rate", 0.5), ("decay_rate", 2)]


@st.composite
def corrupted_documents(draw):
    d = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    if draw(st.integers(0, 3)) == 0:  # only empty words: no letter to refuse a bad d
        words = [[] for _ in range(draw(st.integers(1, 2)))]
    else:
        words = draw(st.lists(st.lists(st.integers(1, d), max_size=degree), min_size=1, max_size=8))
    terms = []
    for w in words:
        term = {"word": w, "re": draw(FLOATS)}
        if draw(st.booleans()):
            term["im"] = draw(FLOATS)
        terms.append(term)
    kinds = ["letter", "letter", "word", "term", "value", "value", "missing", "duplicate", "long"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if not terms:
            break
        t = draw(st.integers(0, len(terms) - 1))
        term = terms[t]
        if not isinstance(term, dict) or not isinstance(term.get("word"), list):
            continue
        if kind == "letter" and term["word"]:
            term["word"][draw(st.integers(0, len(term["word"]) - 1))] = draw(st.sampled_from([d + 1, *JSON_LETTERS]))
        elif kind == "word":
            term["word"] = draw(st.sampled_from(JSON_WORDS))
        elif kind == "term":
            terms[t] = draw(st.sampled_from(JSON_TERMS))
        elif kind == "value":
            term[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(JSON_VALUES))
        elif kind == "missing":
            term.pop(draw(st.sampled_from(["word", "re", "im"])), None)
        elif kind == "duplicate":
            other = draw(st.sampled_from(terms))
            if isinstance(other, dict) and isinstance(other.get("word"), list):
                term["word"] = list(other["word"])
        elif kind == "long":
            term["word"] = term["word"] + [1] * (degree + 1 - len(term["word"]))
    # a claimed real_free is mostly refused for its symmetry, so claim it seldom
    document = {"d": d, "degree": degree, "real_free": draw(st.integers(0, 3)) == 3, "terms": terms}
    document.update(draw(st.lists(st.sampled_from(HEADER_CHANGES), max_size=2)))
    return document


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_documents())
def test_parser_matches_the_per_term_loop(tmp_path, document):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert_same_outcome(outcome(lambda: parse_series(str(path))), outcome(lambda: loop_parse(str(path))))


# ------------------------------------------------- every one-step corruption


def one_change_documents():
    """Every series document one corruption away from a clean one, at each
    of its terms or in its header, and the header changes of a document
    whose only word is empty."""
    d, degree = 2, 3
    base = [{"word": [], "re": 0.5}, {"word": [1, 2], "re": -0.0, "im": 1.5}, {"word": [2, 2, 1], "re": 3, "im": -0.0}]

    def variants(term):
        if term["word"]:
            for new in [d + 1, *JSON_LETTERS]:
                yield {**term, "word": [new, *term["word"][1:]]}
        for new in JSON_WORDS:
            yield {**term, "word": new}
        yield from JSON_TERMS
        for key in ("re", "im"):
            for new in JSON_VALUES:
                yield {**term, key: new}
        for key in ("word", "re", "im"):
            yield {k: v for k, v in term.items() if k != key}
        for other in base:
            yield {**term, "word": other["word"]}
        yield {**term, "word": [1] * (degree + 1)}

    for t, term in enumerate(base):
        for new in variants(term):
            yield {"d": d, "degree": degree, "terms": [*base[:t], new, *base[t + 1 :]]}
    for terms in (base, base[:1]):
        for key, value in HEADER_CHANGES:
            yield {"d": d, "degree": degree, "terms": terms, key: value}


def test_every_one_step_corruption_of_a_document_matches_the_loop(tmp_path):
    path = str(tmp_path / "s.json")
    for document in one_change_documents():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert_same_outcome(outcome(lambda: parse_series(path)), outcome(lambda: loop_parse(path)), document)


# --------------------------------------------- clean input skips __post_init__


def refuse(self):
    raise AssertionError("FreeSeries.__post_init__ ran")


def test_clean_series_never_run_the_constructor(fixtures_dir, monkeypatch):
    """Clean files (the real-free halfres too) and interpolants enter
    FreeSeries through the trusted path alone, unchanged by it."""
    paths = [str(fixtures_dir / name) for name in ("d2res_series.json", "halfres_series.json")]
    X = parse_tuple(str(fixtures_dir / "jordan_point.json"))
    target = parse_matrix(str(fixtures_dir / "jordan_target.json"))
    expected = [parse_series(path) for path in paths] + [min_norm_interpolate(X, target, 12)]
    assert expected[1].real_free
    monkeypatch.setattr(FreeSeries, "__post_init__", refuse)
    got = [parse_series(path) for path in paths] + [min_norm_interpolate(X, target, 12)]
    for ours, oracle, case in zip(got, expected, [*paths, "interpolant"]):
        assert_same_outcome(ours, oracle, case)


def test_a_bad_letter_is_named_before_any_constructor_runs(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"d": 2, "degree": 3, "terms": [{"word": [], "re": 1.0}, {"word": [1, 3], "re": 0.5}]}))
    monkeypatch.setattr(FreeSeries, "__post_init__", refuse)
    with pytest.raises(SchemaError, match=r"^\$\.terms\[1\]\.word\[1\]: letter 3 outside 1\.\.2$"):
        parse_series(str(path))

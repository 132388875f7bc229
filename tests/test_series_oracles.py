"""The per-word constructor loop and the per-term parser loop, kept as oracles
for the whole-list checks of FreeSeries and parse_series.

On any input, corrupted or not, the library and its oracle give an equal
series (the same keys in the same order, int letters, the same value bits,
signed zeros included) or the same exception type and text.
"""

import json
import math
import struct
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freepick import jsonio
from freepick.jsonio import parse_series
from freepick.series import FreeSeries, require_real_free
from freepick.words import check_alphabet

_BOOLS = {bool, np.bool_}


def loop_series(d, degree, coeffs) -> dict:
    """The constructor's per-word loop: the clean dict it stores."""
    if d < 1 or degree < 0:
        raise ValueError(f"need d >= 1 and degree >= 0, got d={d}, degree={degree}")
    clean = {}
    for w, c in coeffs.items():
        letters = tuple(map(int, w))
        if letters != tuple(w) or not _BOOLS.isdisjoint(map(type, w)):
            raise ValueError(f"word {list(w)} has a letter that is not an integer")
        w = letters
        check_alphabet(w, d)
        if len(w) > degree:
            raise ValueError(f"word {list(w)} is longer than the degree {degree}")
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"coefficient of {list(w)} is not finite")
        clean[w] = c
    return clean


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
    elif isinstance(oracle, dict):
        assert fingerprint(ours) == fingerprint(oracle), case
    else:
        assert (ours.d, ours.degree, ours.real_free, ours.decay_rate) == (
            oracle.d, oracle.degree, oracle.real_free, oracle.decay_rate,
        ), case
        assert fingerprint(ours.coeffs) == fingerprint(oracle.coeffs), case


FLOATS = st.floats(allow_nan=False, allow_infinity=False)

# the ways a stored word or value is corrupted, each with its candidates
BAD_LETTERS = [0, -1, 10**20, True, np.bool_(True), 1.5, 2.0, np.int64(1), np.int32(2), np.float64(1.0), "1"]
BAD_VALUES = [
    float("nan"), float("inf"), complex(0.0, -math.inf), complex(math.nan, 0.0), 10**400, -(10**400), 10**300,
    "1.5", "abc", "1+2j", True, False, 3, np.complex128(1 - 2j), np.float64(-0.0), np.int64(5), complex(-0.0, -0.0),
]


class Word(tuple):
    pass


# keys that are no tuple but hold int letters: the loop stores them as tuples
BAD_KEYS = [Word, bytes, frozenset, lambda w: "".join(map(str, w))]


@st.composite
def corrupted_dicts(draw):
    d = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    words = draw(st.lists(st.lists(st.integers(1, d), max_size=degree).map(tuple), unique=True, max_size=8))
    items = [[w, complex(draw(FLOATS), draw(FLOATS))] for w in words]
    for kind in draw(st.lists(st.sampled_from(["letter", "value", "key", "long"]), max_size=3)):
        if not items:
            break
        item = draw(st.sampled_from(items))
        if kind == "letter" and item[0]:
            w = list(item[0])
            w[draw(st.integers(0, len(w) - 1))] = draw(st.sampled_from([d + 1, *BAD_LETTERS]))
            item[0] = tuple(w)
        elif kind == "value":
            item[1] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "key" and all(type(x) is int and 0 <= x < 256 for x in item[0]):
            item[0] = draw(st.sampled_from(BAD_KEYS))(item[0])
        elif kind == "long" and isinstance(item[0], tuple):
            item[0] = item[0] + (1,) * (degree + 1 - len(item[0]) + draw(st.integers(0, 1)))
    return d, degree, dict(items)


@settings(max_examples=400, deadline=None)
@given(corrupted_dicts())
def test_constructor_matches_the_per_word_loop(case):
    d, degree, coeffs = case
    ours = outcome(lambda: FreeSeries(d=d, degree=degree, coeffs=coeffs).coeffs)
    assert_same_outcome(ours, outcome(lambda: loop_series(d, degree, coeffs)))


# corrupted JSON terms: letters, words, whole terms, values, missing keys
JSON_LETTERS = [0, -1, True, False, 1.5, 2.0, "1", None, [1]]
JSON_WORDS = [1, "12", "", None, {}, {"1": 1}, True]
JSON_TERMS = [5, [1], "x", None, True, {}]
JSON_VALUES = [float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 10**300, 3, -0.0, True, False, "1", None, [1, 2]]


@st.composite
def corrupted_documents(draw):
    d = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
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
    return {"d": d, "degree": degree, "real_free": draw(st.integers(0, 3)) == 3, "terms": terms}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_documents())
def test_parser_matches_the_per_term_loop(tmp_path, document):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert_same_outcome(outcome(lambda: parse_series(str(path))), outcome(lambda: loop_parse(str(path))))


# ------------------------------------------------- every one-step corruption


def one_change_dicts():
    """(d, degree, coeffs) for every dict one corruption away from a clean one,
    at each of its words."""
    d, degree = 2, 3
    base = {(): 0.5, (1, 2): complex(-0.0, 1.5), (2, 2, 1): 3.0}

    def replaced(w, new_w, new_c):
        return {(new_w if k == w else k): (new_c if k == w else c) for k, c in base.items()}

    for w, c in base.items():
        for new in [d + 1, *BAD_LETTERS] if w else []:
            yield d, degree, replaced(w, (new, *w[1:]), c)
        for new in BAD_VALUES:
            yield d, degree, replaced(w, w, new)
        for make in BAD_KEYS:
            yield d, degree, replaced(w, make(w), c)
        yield d, degree, replaced(w, w + (1,) * (degree + 1 - len(w)), c)


def one_change_documents():
    """Every series document one corruption away from a clean one, at each
    of its terms."""
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


def test_every_one_step_corruption_of_a_dict_matches_the_loop():
    for d, degree, coeffs in one_change_dicts():
        ours = outcome(lambda: FreeSeries(d=d, degree=degree, coeffs=coeffs).coeffs)
        assert_same_outcome(ours, outcome(lambda: loop_series(d, degree, coeffs)), coeffs)


def test_every_one_step_corruption_of_a_document_matches_the_loop(tmp_path):
    path = str(tmp_path / "s.json")
    for document in one_change_documents():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert_same_outcome(outcome(lambda: parse_series(path)), outcome(lambda: loop_parse(path)), document)

"""The pencil and its contractions against the routes they replace.

The localizing derivative, the Hamburger reconstruction and the Choi matrix
are computed from the monomial stack and the coefficient pencil by
tensordot/einsum contractions. The oracles below are the direct dense
formulas: m_left (B_k (x) H_k) m for the derivative,
m* (F_k (x) I)(I (x) H_k)(F_k (x) I) m for the reconstruction and one block
derivative per matrix unit E_pq for the Choi matrix, each with monomials
from the suffix-sharing word evaluator.

The pencil itself is scattered from integer word keys, and validate's
symmetry scan is one searchsorted pass over keys. Their oracles are the dict
loops they replace: one coefficient lookup per pencil cell, and a walk over
the stored words that judges each pair {w, w*} once. Both must agree
exactly, not to a tolerance.

eval_series is a right Horner pass over the series' suffix trie. Its oracle
is the sum it replaces, sum_w c_w X^w with X^w from the suffix-sharing word
evaluator; the two add the terms in different orders, so they agree to
EVAL_RTOL rather than exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import MatrixTuple, sample
from freepick.monotone import HamburgerModel, choi_at, hamburger_factor
from freepick import words
from freepick.series import (
    FreeSeries,
    SeriesDiagnostics,
    derivative,
    eval_series,
    localizing_matrix,
    validate,
)
from freepick.words import enumerate_words, eval_words, involute, word_count

RTOL = 1e-12
EVAL_RTOL = 1e-13


def word_sum(f: FreeSeries, X: MatrixTuple) -> np.ndarray:
    vals = eval_words(X, f.coeffs.keys())
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for w, c in f.coeffs.items():
        acc += c * vals[w]
    return acc


def dict_localizing_matrix(f: FreeSeries, k: int, L: int) -> np.ndarray:
    order = enumerate_words(f.d, L)
    count = len(order)
    M = np.zeros((count, count), dtype=np.complex128)
    for i, I in enumerate(order.words):
        left = involute(I) + (k,)
        for j, J in enumerate(order.words):
            c = f.coeffs.get(left + J)
            if c is not None:
                M[i, j] = c
    return M


def dict_validate(f: FreeSeries) -> SeriesDiagnostics:
    sym = []
    if f.real_free:
        seen = set()
        for w, c in f.coeffs.items():
            pair = (w, involute(w))
            if pair[1] in seen or pair[0] in seen:
                continue
            seen.update(pair)
            gap = abs(f.coeff(involute(w)) - np.conj(c))
            if gap > 1e-12 * max(1.0, abs(c)):
                sym.append((min(pair), float(gap)))
    decay = []
    if f.decay_rate is not None:
        for w, c in f.coeffs.items():
            bound = f.decay_rate ** (-len(w))
            if abs(c) > bound * (1 + 1e-12):
                decay.append((w, float(abs(c) - bound)))
    return SeriesDiagnostics(tuple(sorted(sym)), tuple(sorted(decay)))


def kron_localizing_derivative(f: FreeSeries, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    order = enumerate_words(X.d, max(f.degree - 1, 0))
    vals = eval_words(X, order.words)
    m = np.vstack([vals[w] for w in order.words])
    m_left = np.hstack([vals[involute(w)] for w in order.words])
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for k in range(1, f.d + 1):
        B = localizing_matrix(f, k, order.degree)
        acc += m_left @ np.kron(B, H.mats[k - 1]) @ m
    return acc


def kron_reconstruct(model: HamburgerModel, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    order = enumerate_words(X.d, model.degree)
    vals = eval_words(X, order.words)
    m = np.vstack([vals[w] for w in order.words])
    eye_n = np.eye(X.n)
    eye_c = np.eye(len(order))
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for F, Hk in zip(model.factors, H.mats):
        S = np.kron(F, eye_n)
        acc += m.conj().T @ S @ np.kron(eye_c, Hk) @ S @ m
    return acc


def block_choi(f: FreeSeries, X: MatrixTuple, k: int) -> np.ndarray:
    n = X.n
    zero = np.zeros((n, n))
    C = np.zeros((n * n, n * n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            E = np.zeros((n, n))
            E[p, q] = 1.0
            H = MatrixTuple(tuple(E if i == k - 1 else zero for i in range(f.d)))
            C[p * n : (p + 1) * n, q * n : (q + 1) * n] = derivative(f, X, H, method="block")
    return C


def assert_rel_close(got: np.ndarray, want: np.ndarray, rtol: float = RTOL) -> None:
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= rtol * scale


def assert_eval_matches_word_sum(f: FreeSeries, X: MatrixTuple) -> None:
    got = eval_series(f, X).value
    assert got.shape == (X.n, X.n) and got.dtype == np.complex128
    assert_rel_close(got, word_sum(f, X), EVAL_RTOL)


# ------------------------------------------------------------------ inputs


def random_real_free(d: int, degree: int, rng: np.random.Generator) -> FreeSeries:
    """Dense series with c_{w*} = conj(c_w) and |c_w| <= 2^{-|w|}."""
    coeffs = {}
    for w in enumerate_words(d, degree).words:
        if involute(w) in coeffs:
            coeffs[w] = np.conj(coeffs[involute(w)])
        elif involute(w) == w:
            coeffs[w] = rng.uniform(-1, 1) / 2.0 ** len(w)
        else:
            coeffs[w] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2.0 ** (len(w) + 1)
    return FreeSeries(d=d, degree=degree, coeffs=coeffs, real_free=True)


def hermitian_point(n: int, d: int, radius: float, seed: int) -> MatrixTuple:
    base = sample("hermitian_tuple", n, d, seed)
    return MatrixTuple(tuple(M * (radius / max(np.linalg.norm(M, 2), 1e-30)) for M in base.mats))


def general_tuple(n: int, d: int, rng: np.random.Generator) -> MatrixTuple:
    return MatrixTuple(
        tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d))
    )


def hermitian_factors(d: int, L: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    count = len(enumerate_words(d, L))
    out = []
    for _ in range(d):
        A = rng.standard_normal((count, count)) + 1j * rng.standard_normal((count, count))
        out.append(A @ A.conj().T / count)
    return tuple(out)


def random_dense(d: int, degree: int, rng: np.random.Generator) -> FreeSeries:
    coeffs = {
        w: complex(rng.standard_normal(), rng.standard_normal())
        for w in enumerate_words(d, degree).words
    }
    return FreeSeries(d=d, degree=degree, coeffs=coeffs)


def deep_sparse(rng: np.random.Generator) -> FreeSeries:
    """Like the benchmark's deep series: 30 random words up to degree 24,
    their reversals and (1,)^24, in two letters."""
    words = [tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(0, 25)))) for _ in range(30)]
    coeffs = {}
    for w in words + [(1,) * 24]:
        if w not in coeffs:
            c = complex(rng.standard_normal(), 0.0 if involute(w) == w else rng.standard_normal())
            coeffs[w] = c
            coeffs[involute(w)] = c.conjugate()
    return FreeSeries(d=2, degree=24, coeffs=coeffs, real_free=True)


def block_point(X: MatrixTuple, H: MatrixTuple) -> MatrixTuple:
    """The 2n x 2n tuple [[X_i, H_i], [0, X_i]] of the block derivative."""
    zero = np.zeros((X.n, X.n))
    return MatrixTuple(tuple(np.block([[Xi, Hi], [zero, Xi]]) for Xi, Hi in zip(X.mats, H.mats)))


def eval_points(d: int, rng: np.random.Generator) -> list[MatrixTuple]:
    """n = 1, a general n = 3 tuple and the 2n block point built from it."""
    X = MatrixTuple(tuple(0.4 * M for M in general_tuple(3, d, rng).mats))
    return [
        MatrixTuple(tuple(0.5 * M for M in general_tuple(1, d, rng).mats)),
        X,
        block_point(X, general_tuple(3, d, rng)),
    ]


def assert_pencils_equal(f: FreeSeries, levels) -> None:
    for L in levels:
        for k in range(1, f.d + 1):
            assert np.array_equal(localizing_matrix(f, k, L), dict_localizing_matrix(f, k, L)), (k, L)


def seeded_cases(halfres, d2res):
    rng = np.random.default_rng(2024)
    return [
        (halfres, 5, hermitian_point(3, 1, 0.3, seed=1)),
        (d2res, 3, hermitian_point(3, 2, 0.15, seed=2)),
        (random_real_free(2, 5, rng), 2, hermitian_point(3, 2, 0.4, seed=3)),
        (random_real_free(3, 4, rng), 2, hermitian_point(2, 3, 0.3, seed=4)),
    ]


# ------------------------------------------------------------ seeded checks


def test_eval_matches_word_sum_on_fixtures(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(14)
    for f in (x3_series, halfres_series, d2res_series):
        for X in eval_points(f.d, rng):
            assert_eval_matches_word_sum(f, X)
    X = hermitian_point(3, 1, 0.3, seed=1)
    assert_eval_matches_word_sum(halfres_series, block_point(X, sample("psd_direction", 3, 1, seed=2)))


def test_eval_matches_word_sum_on_dense_series():
    rng = np.random.default_rng(15)
    for d, degree in ((1, 12), (2, 7), (3, 4)):
        f = random_dense(d, degree, rng)
        for X in eval_points(d, rng):
            assert_eval_matches_word_sum(f, X)


def test_eval_matches_word_sum_on_deep_sparse_series():
    rng = np.random.default_rng(16)
    f = deep_sparse(rng)
    for X in eval_points(2, rng):
        assert_eval_matches_word_sum(f, X)


def test_eval_past_the_key_limit_with_a_short_word():
    # word_count(2, 64) passes int64, so the keys cannot be built; the trie can
    f = FreeSeries(d=2, degree=64, coeffs={(1,) * 64: 1.0, (2,): 0.5, (1, 2) * 20: -2.0, (): 1j})
    with pytest.raises(ValueError, match="d=2 at degree 64"):
        f.keys
    rng = np.random.default_rng(17)
    for X in eval_points(2, rng):
        assert_eval_matches_word_sum(f, X)
    X = MatrixTuple((np.array([[0.5]]), np.array([[0.25]])))
    assert eval_series(f, X).value[0, 0] == pytest.approx(0.5**64 + 0.125 - 2.0 * 0.125**20 + 1j, rel=1e-15)


def test_eval_empty_and_zero_series():
    rng = np.random.default_rng(18)
    for d in (1, 2, 3):
        for X in eval_points(d, rng):
            for coeffs in ({}, {(): 0.0, (1,) * 3: 0.0}):
                got = eval_series(FreeSeries(d=d, degree=3, coeffs=coeffs), X).value
                assert np.array_equal(got, np.zeros((X.n, X.n)))


def test_eval_with_zero_coefficients_and_unstored_suffixes():
    # no suffix of (1, 2, 1, 2) or (3, 3, 2, 1) is stored but (), and some
    # stored words hold 0
    coeffs = {
        (1, 2, 1, 2): 1.5 - 0.5j,
        (3, 3, 2, 1): -2.0,
        (2, 1, 2): 0.0,
        (): 0.25,
        (1,): 0.0,
        (2, 2, 3): 1j,
        (3, 2, 2, 3): 0.75,
    }
    f = FreeSeries(d=3, degree=5, coeffs=coeffs)
    rng = np.random.default_rng(19)
    for X in eval_points(3, rng):
        assert_eval_matches_word_sum(f, X)


def trie_suffixes(f: FreeSeries) -> list[list[tuple]]:
    """The word of every trie node, depth by depth, read back from the levels."""
    out = [[()]]
    for level in f.suffix_trie[1:]:
        first = np.arange(level.size) if level.first is None else level.first
        run = np.searchsorted(first, np.arange(level.size), side="right") - 1
        parent = run if level.parent is None else level.parent[run]
        letter = np.broadcast_to(level.letter, (level.size,))
        out.append([(int(k) + 1,) + out[-1][p] for k, p in zip(letter, parent)])
    return out


def assert_minimal_trie(f: FreeSeries) -> None:
    """One node per distinct suffix, ordered by the suffix read right to left
    (parent first, then letter), carrying the stored coefficients."""
    suffixes = {w[len(w) - l :] for w in f.coeffs for l in range(len(w) + 1)} | {()}
    got = trie_suffixes(f)
    assert len(got) == max(map(len, suffixes)) + 1
    for l, (nodes, level) in enumerate(zip(got, f.suffix_trie)):
        assert nodes == sorted((s for s in suffixes if len(s) == l), key=lambda s: s[::-1])
        assert level.size == len(nodes)
        stored = [s in f.coeffs for s in nodes]
        if level.coeff is None:
            assert not any(stored)
        else:
            assert level.coeff.tolist() == [f.coeff(s) for s in nodes]


def test_trie_is_minimal_and_ordered(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(22)
    cases = [x3_series, halfres_series, d2res_series, deep_sparse(rng), random_dense(3, 3, rng)]
    cases.append(FreeSeries(d=2, degree=4, coeffs={(1, 2): 1.0, (2, 1): 2.0, (1, 1): 3.0, (2, 2, 1, 2): 4.0}))
    cases.append(FreeSeries(d=2, degree=3, coeffs={}))
    for f in cases:
        assert_minimal_trie(f)


def test_eval_builds_the_trie_once_per_series(d2res_series, monkeypatch):
    calls = []
    letter_array = words.letter_array

    def counting(*args):
        calls.append(1)
        return letter_array(*args)

    monkeypatch.setattr(words, "letter_array", counting)
    f = FreeSeries(d=2, degree=d2res_series.degree, coeffs=d2res_series.coeffs)
    rng = np.random.default_rng(20)
    X, H = general_tuple(2, 2, rng), general_tuple(2, 2, rng)
    first = eval_series(f, X).value
    derivative(f, X, H, method="block")
    derivative(f, X, H, method="fd", richardson=True)
    assert len(calls) == 1
    assert np.array_equal(eval_series(f, X).value, first)
    assert len(calls) == 1
    FreeSeries(d=2, degree=f.degree, coeffs=f.coeffs).suffix_trie
    assert len(calls) == 2


def test_eval_letter_mismatch_message(x3_series):
    X = sample("hermitian_tuple", 2, 2, seed=0)
    with pytest.raises(ValueError, match=r"^series in 1 letters evaluated at a 2-tuple$"):
        eval_series(x3_series, X)
    f = FreeSeries(d=3, degree=2, coeffs={})
    with pytest.raises(ValueError, match=r"^series in 3 letters evaluated at a 2-tuple$"):
        eval_series(f, X)


def test_eval_does_not_use_the_word_evaluator(halfres_series, d2res_series, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_series called words.eval_words")

    monkeypatch.setattr(words, "eval_words", refuse)
    rng = np.random.default_rng(21)
    for f in (halfres_series, d2res_series, deep_sparse(rng)):
        X, H = general_tuple(2, f.d, rng), general_tuple(2, f.d, rng)
        eval_series(f, X)
        derivative(f, X, H, method="block")
        derivative(f, X, H, method="fd")


def test_pencil_matches_dict_loop_on_fixtures(x3_series, halfres_series, d2res_series):
    for f in (x3_series, halfres_series, d2res_series):
        assert_pencils_equal(f, range(f.degree + 2))


def test_pencil_matches_dict_loop_on_dense_series():
    rng = np.random.default_rng(11)
    for d, degree in ((1, 12), (2, 6), (3, 4)):
        f = random_dense(d, degree, rng)
        assert_pencils_equal(f, range(degree + 2))


def test_pencil_matches_dict_loop_on_deep_sparse_series():
    # the dict loop costs count^2 lookups per letter, so L stops at 9
    # (1023 words); longer words still cross the |I|, |J| <= L filter here
    f = deep_sparse(np.random.default_rng(12))
    assert max(map(len, f.coeffs)) == 24
    assert_pencils_equal(f, range(10))


def test_validate_matches_dict_scan_on_injected_violations():
    c = 0.3 - 0.7j
    coeffs = {
        (): 2.0 + 1e-3j,  # palindrome with an imaginary part
        (1, 2, 1): 1.0 + 0.5j,  # palindrome
        (2, 2): 4.0,  # clean palindrome
        (2, 1, 1): 0.25 + 0.25j,  # reversal (1, 1, 2) missing
        (1, 2): c,  # clean pair
        (2, 1): c.conjugate(),
        (2, 2, 1): 5.0 + 5.0j,  # gap just under the threshold
        (1, 2, 2): 5.0 - 5.0j + 0.9e-12 * abs(5 + 5j),
        (1, 1, 1, 2): 5.0 + 5.0j,  # gap just over the threshold
        (2, 1, 1, 1): 5.0 - 5.0j + 1.1e-12 * abs(5 + 5j),
        (1, 2, 2, 2): 0.5e-12j,  # gap 0.9e-12 passes: the threshold floor is 1e-12
        (2, 2, 2, 1): 0.4e-12j,
        (2, 1, 2, 2): 1e-3,  # reversal (2, 2, 1, 2) inserted second, unequal
        (2, 2, 1, 2): 2e-3,
    }
    f = FreeSeries(d=2, degree=4, coeffs=coeffs, real_free=True, decay_rate=1.5)
    got = validate(f)
    assert got == dict_validate(f)
    flagged = [w for w, _ in got.symmetry_violations]
    assert flagged == [(), (1, 1, 1, 2), (1, 1, 2), (1, 2, 1), (2, 1, 2, 2)]


def test_validate_matches_dict_scan_on_seeded_series(halfres_series, d2res_series):
    rng = np.random.default_rng(13)
    cases = [halfres_series, d2res_series, deep_sparse(rng), random_real_free(3, 4, rng)]
    cases.append(FreeSeries(d=2, degree=3, coeffs={}, real_free=True))
    for f in cases:
        assert validate(f) == dict_validate(f)


def test_localizing_derivative_matches_kron_formula(halfres_series, d2res_series):
    for f, _L, X in seeded_cases(halfres_series, d2res_series):
        for seed in (5, 6):
            H = sample("hermitian_tuple", X.n, X.d, seed)
            got = derivative(f, X, H, method="localizing")
            assert_rel_close(got, kron_localizing_derivative(f, X, H))


def test_localizing_derivative_matches_kron_formula_off_selfadjoint(d2res_series):
    rng = np.random.default_rng(7)
    X = MatrixTuple(tuple(0.1 * M for M in general_tuple(3, 2, rng).mats))
    H = general_tuple(3, 2, rng)
    for f in (d2res_series, random_real_free(2, 5, rng)):
        assert_rel_close(derivative(f, X, H, method="localizing"), kron_localizing_derivative(f, X, H))


def test_reconstruct_matches_kron_formula(halfres_series, d2res_series):
    for f, L, X in seeded_cases(halfres_series, d2res_series)[:2]:
        model = hamburger_factor(f, L)
        H = sample("psd_direction", X.n, X.d, seed=8)
        assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))
    rng = np.random.default_rng(9)
    for d, L in ((2, 3), (3, 2)):
        model = HamburgerModel(degree=L, factors=hermitian_factors(d, L, rng), certificate=None)
        X, H = general_tuple(2, d, rng), general_tuple(2, d, rng)
        assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))


def test_choi_matches_block_derivative_loop(halfres_series, d2res_series):
    for f, _L, X in seeded_cases(halfres_series, d2res_series):
        rep = choi_at(f, X, tol=1e-8)
        for coord in rep.coordinates:
            assert_rel_close(coord.choi, block_choi(f, X, coord.k))


# -------------------------------------------------------- hypothesis checks

shapes = dict(
    d=st.integers(min_value=1, max_value=3),
    L=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_localizing_derivative_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    f = random_real_free(d, L, rng)
    X = MatrixTuple(tuple(0.5 * M for M in general_tuple(n, d, rng).mats))
    H = general_tuple(n, d, rng)
    assert_rel_close(derivative(f, X, H, method="localizing"), kron_localizing_derivative(f, X, H))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_reconstruct_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    model = HamburgerModel(degree=L, factors=hermitian_factors(d, L, rng), certificate=None)
    X = MatrixTuple(tuple(0.5 * M for M in general_tuple(n, d, rng).mats))
    H = general_tuple(n, d, rng)
    assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_choi_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    f = random_real_free(d, L, rng)
    X = hermitian_point(n, d, 0.5, seed % 2**31)
    rep = choi_at(f, X)
    for coord in rep.coordinates:
        assert_rel_close(coord.choi, block_choi(f, X, coord.k))


def cap_level(d: int, degree: int) -> int:
    """Largest L <= degree + 1 with at most 130 words, so the dict loop stays cheap."""
    L = degree + 1
    while word_count(d, L) > 130:
        L -= 1
    return L


@st.composite
def sparse_series(draw, real_free=False):
    d = draw(st.integers(min_value=1, max_value=3))
    degree = draw(st.integers(min_value=0, max_value=8))
    word = st.lists(st.integers(min_value=1, max_value=d), max_size=degree).map(tuple)
    coeff = st.sampled_from([0.0, 1.0, -2.5, 0.5j, 0.25 - 0.75j, 3e-13, 1e-12j])
    coeffs = draw(st.dictionaries(word, coeff, max_size=24))
    return FreeSeries(d=d, degree=degree, coeffs=coeffs, real_free=real_free)


@settings(max_examples=100, deadline=None)
@given(sparse_series(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_oracle_hypothesis(f, n, seed):
    X = MatrixTuple(tuple(0.6 * M for M in general_tuple(n, f.d, np.random.default_rng(seed)).mats))
    assert_eval_matches_word_sum(f, X)
    assert_minimal_trie(f)


@settings(max_examples=60, deadline=None)
@given(sparse_series())
def test_pencil_oracle_hypothesis(f):
    assert_pencils_equal(f, range(cap_level(f.d, f.degree) + 1))


@settings(max_examples=100, deadline=None)
@given(sparse_series(real_free=True), st.data())
def test_validate_oracle_hypothesis(f, data):
    # make about half of the pairs symmetric, then nudge some of them
    coeffs = dict(f.coeffs)
    for w in list(coeffs):
        if data.draw(st.booleans()):
            coeffs[involute(w)] = np.conj(coeffs[w]) * data.draw(st.sampled_from([1.0, 1.0 + 5e-13, 1.0 + 2e-12]))
    g = FreeSeries(d=f.d, degree=f.degree, coeffs=coeffs, real_free=True)
    assert validate(g) == dict_validate(g)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick import words
from freepick.matcore import BudgetError, MatrixTuple, haar_unitary, direct_sum, sample
from freepick.words import (
    EMPTY,
    WORD_BUDGET,
    check_alphabet,
    enumerate_words,
    eval_words,
    involute,
    letter_array,
    max_degree,
    monomial_stack,
    reversed_letters,
    reversed_stack,
    suffix_positions,
    word_count,
)

words_st = st.lists(st.integers(min_value=1, max_value=3), max_size=6).map(tuple)


def test_enumeration_single_letter():
    order = enumerate_words(1, 3)
    assert order.words == ((), (1,), (1, 1), (1, 1, 1))


def test_enumeration_two_letters_graded_lex():
    order = enumerate_words(2, 2)
    assert len(order) == 7
    assert order.words == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))


def test_enumeration_degree_zero():
    assert enumerate_words(3, 0).words == ((),)


def test_order_length_builds_no_words():
    order = enumerate_words(1, 15000)
    assert len(order) == 15001
    assert "words" not in vars(order)


def test_empty_word_is_position_zero():
    order = enumerate_words(2, 3)
    assert order.words.index(EMPTY) == 0


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
def test_keys_are_graded_lex_positions(d, L):
    order = enumerate_words(d, L)
    letters = letter_array(order.words, L)
    forward = suffix_positions(d, letters)
    backward = suffix_positions(d, reversed_letters(letters))
    index = {w: i for i, w in enumerate(order.words)}
    for r, w in enumerate(order.words):
        start = L - len(w)
        assert [forward[r, start + q] for q in range(len(w) + 1)] == [index[w[q:]] for q in range(len(w) + 1)]
        assert backward[r, start] == index[involute(w)]


def test_suffix_positions_stop_at_the_word_budget():
    # a suffix one letter past max_degree reads WORD_BUDGET, which indexes no order
    for d in (1, 2, 3):
        top = max_degree(d, WORD_BUDGET)
        rows = [(d,) * top, (d,) * (top + 1), (1,) + (d,) * top]
        letters = letter_array(rows, top + 1)
        pos = suffix_positions(d, letters)
        last = word_count(d, top) - 1  # (d,) * top ends the order of degree top
        assert pos[0, 1:].tolist() == [word_count(d, top - c) - 1 for c in range(top + 1)]
        assert pos[0, 1] == last
        assert pos[1, 0] == pos[2, 0] == WORD_BUDGET
        assert pos[1, 1] == pos[2, 1] == last
        assert len(enumerate_words(d, top)) == last + 1 <= WORD_BUDGET


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
def test_word_count_formula(d, L):
    assert len(enumerate_words(d, L)) == word_count(d, L)


def test_budget_error_names_degrees():
    # word_count(10, 4) = 11111 <= 100000 < word_count(10, 5) = 111111
    message = r"^words of length <= 6 in 10 letters exceed the budget of 100000 words; the largest degree within it is 4$"
    with pytest.raises(BudgetError, match=message):
        enumerate_words(10, 6)


def test_budget_error_past_the_digit_limit(monkeypatch):
    # word_count(2, 14284) has more than 4300 digits, so formatting it used to
    # raise ValueError; word_count(2, 10**8) alone took about a second
    def refuse(*args):
        raise AssertionError("the budget check built a word count")

    monkeypatch.setattr(words, "word_count", refuse)
    for L in (14284, 10**8):
        with pytest.raises(BudgetError, match=rf"^words of length <= {L} in 2 letters .* the largest degree within it is 15$"):
            enumerate_words(2, L)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_max_degree_is_the_largest_within_the_limit(d, limit):
    top = max_degree(d, limit)
    assert top >= -1
    assert top == -1 or word_count(d, top) <= limit
    assert word_count(d, top + 1) > limit


def test_max_degree_at_the_edges():
    assert (max_degree(2, 2**63 - 1), max_degree(3, 2**63 - 1)) == (62, 39)
    assert max_degree(1, 2**63 - 1) == 2**63 - 2
    assert max_degree(2, 0) == max_degree(1, 0) == -1
    # limits whose bound is an exact power, where log(243, 3) and
    # log(1000, 10) come out just under 5 and 3
    assert (max_degree(3, 121), max_degree(10, 111)) == (4, 2)
    assert (max_degree(3, 120), max_degree(10, 110)) == (3, 1)
    # and one just under a power, where log(2^60 - 1, 2) rounds up to 60
    assert max_degree(2, 2**60 - 2) == 58


def test_budget_admits_the_largest_degree_within_it():
    # word_count(99999, 1) = 100000 is the budget exactly; an order's length
    # needs only d and degree, so no word is built
    assert len(enumerate_words(99999, 1)) == 100000
    with pytest.raises(BudgetError, match="the largest degree within it is 1$"):
        enumerate_words(99999, 2)


def test_involution_fixtures():
    assert involute((1, 2)) == (2, 1)
    assert involute(EMPTY) == EMPTY
    assert involute((1, 2, 3)) == (3, 2, 1)


@given(words_st)
def test_involution_is_an_involution(w):
    assert involute(involute(w)) == w


@given(words_st, words_st)
def test_involution_antihomomorphism(u, w):
    assert involute(u + w) == involute(w) + involute(u)


def test_check_alphabet():
    check_alphabet((1, 2), 2)
    with pytest.raises(ValueError):
        check_alphabet((3,), 2)
    with pytest.raises(ValueError):
        check_alphabet((0,), 2)


def power(X: MatrixTuple, w) -> np.ndarray:
    """X^w, read from the row of w in the monomial stack."""
    order = enumerate_words(X.d, len(w))
    return monomial_stack(X, order)[order.words.index(w)]


def eval_word(X: MatrixTuple, w) -> np.ndarray:
    """X^w, by the recursion X^e = I and X^{x_k w} = X_k X^w."""
    return np.eye(X.n, dtype=np.complex128) if not w else X.mats[w[0] - 1] @ eval_word(X, w[1:])


def test_eval_word_order_of_factors():
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[1.0, 0.0], [0.0, 2.0]])
    X = MatrixTuple((X1, X2))
    np.testing.assert_allclose(power(X, (1, 2, 1)), X1 @ X2 @ X1)


def test_eval_word_empty_is_identity():
    X = MatrixTuple((np.full((3, 3), 5.0),))
    np.testing.assert_array_equal(power(X, EMPTY), np.eye(3))


def test_eval_word_scalar_power():
    X = MatrixTuple((np.array([[0.5]]),))
    assert power(X, (1, 1))[0, 0] == pytest.approx(0.25)


def test_eval_word_jordan_block_powers():
    lam = 0.4
    X = MatrixTuple((np.array([[lam, lam], [0.0, lam]]),))
    for n in range(1, 8):
        expected = np.array([[lam**n, n * lam**n], [0.0, lam**n]])
        np.testing.assert_allclose(power(X, (1,) * n), expected, atol=1e-14)


def test_eval_word_adjoint_compatibility():
    X = sample("hermitian_tuple", 3, 2, seed=5)
    Y = MatrixTuple(tuple(M + 0.3j * np.eye(3) for M in X.mats))
    w = (1, 2, 2, 1, 2)
    np.testing.assert_allclose(
        power(Y, w).conj().T, power(Y.adjoint(), involute(w)), atol=1e-12
    )


def test_eval_word_respects_direct_sums():
    X = sample("hermitian_tuple", 2, 2, seed=1)
    Y = sample("hermitian_tuple", 3, 2, seed=2)
    w = (2, 1, 1)
    S = power(direct_sum(X, Y), w)
    np.testing.assert_allclose(S[:2, :2], power(X, w), atol=1e-12)
    np.testing.assert_allclose(S[2:, 2:], power(Y, w), atol=1e-12)
    assert np.abs(S[:2, 2:]).max() < 1e-14


def test_eval_word_unitary_similarity():
    X = sample("hermitian_tuple", 3, 2, seed=9)
    U = haar_unitary(3, np.random.default_rng(4))
    conj = MatrixTuple(tuple(U.conj().T @ M @ U for M in X.mats))
    w = (1, 2, 1, 1)
    np.testing.assert_allclose(
        power(conj, w), U.conj().T @ power(X, w) @ U, atol=1e-12
    )


def test_eval_words_matches_eval_word():
    X = sample("hermitian_tuple", 2, 2, seed=3)
    order = enumerate_words(2, 4)
    table = eval_words(X, order.words)
    for w in order.words:
        np.testing.assert_allclose(table[w], eval_word(X, w), atol=1e-13)


def test_eval_word_alphabet_mismatch():
    X = MatrixTuple((np.eye(2),))
    with pytest.raises(ValueError, match="word order in 2 letters evaluated at a 1-tuple"):
        monomial_stack(X, enumerate_words(2, 1))
    with pytest.raises(ValueError, match="letter 2 in word"):
        eval_words(X, [(2,)])


def oracle_monomial_stack(X: MatrixTuple, order) -> np.ndarray:
    """X^I by one broadcast product X_k @ X^w per level: numpy makes one
    n x n GEMM per word, so every value rounds as eval_words rounds it."""
    mats = X.mats[:, None]
    levels = [np.eye(X.n, dtype=np.complex128)[None]]
    for _ in range(order.degree):
        levels.append((mats @ levels[-1]).reshape(X.d * len(levels[-1]), X.n, X.n))
    return np.concatenate(levels)


# 4 sqrt(2): twice (two computed stacks) sqrt(2) (complex modulus), see below
STACK_ROUNDING = 4 * np.sqrt(2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_monomial_stack_within_rounding_of_the_word_oracles(d, L, n, seed):
    """The stack equals eval_words and the broadcast oracle within
    c |w| (n + 2) u (|X|^w) entrywise, u = 2^-53 and |X| the entrywise absolute tuple.

    The stack multiplies the words of a level by one letter in one tall GEMM,
    the oracles one n x n GEMM per word, so the sums of each entry run in
    other orders. Higham (Accuracy and Stability of Numerical Algorithms,
    ch. 3): the real and imaginary parts of an entry of a complex product AB
    are real inner products of length 2n, so in any order, with or without
    fused multiply-adds, each is within gamma_2n of its sum of absolute
    terms, and the modulus of the error is within sqrt(2) gamma_2n (|A||B|)
    with gamma_k = k u / (1 - k u). The first product of a word is with I and
    exact, so a word of length l is l - 1 such products, and by induction its
    computed value is within ((1 + sqrt(2) gamma_2n)^(l - 1) - 1) |X|^w of
    the exact one. Two computed stacks are apart by at most twice that, to
    first order 4 sqrt(2) (l - 1) n u |X|^w, and (l - 1) n <= l (n + 2) leaves
    room for the second order terms and the rounding of |X|^w. So c = 4 sqrt(2).
    """
    rng = np.random.default_rng(seed)
    X = MatrixTuple(rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n)))
    order = enumerate_words(d, L)
    values = eval_words(X, order.words)
    oracle = oracle_monomial_stack(X, order)
    assert np.array_equal(oracle, np.stack([values[w] for w in order.words]))
    stack = monomial_stack(X, order)
    assert stack.shape == oracle.shape and stack.dtype == np.complex128 and stack.flags.c_contiguous
    lengths = np.array([len(w) for w in order.words])[:, None, None]
    bound = STACK_ROUNDING * lengths * (n + 2) * (np.finfo(float).eps / 2) * oracle_monomial_stack(MatrixTuple(np.abs(X.mats)), order).real
    assert (np.abs(stack - oracle) <= bound).all()
    # the empty word and the letters are exact
    assert np.array_equal(stack[0], np.eye(n))
    assert L == 0 or np.array_equal(stack[1 : d + 1], X.mats)


def test_reversed_stack_reverses_every_word():
    rng = np.random.default_rng(4)
    for d, L, n in ((1, 0, 3), (1, 5, 2), (2, 4, 1), (2, 4, 3), (3, 3, 2)):
        X = MatrixTuple(rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n)))
        order = enumerate_words(d, L)
        values = eval_words(X, [involute(w) for w in order.words])
        want = np.stack([values[involute(w)] for w in order.words])
        np.testing.assert_allclose(reversed_stack(X, order), want, rtol=0, atol=1e-13 * (1 + np.abs(want).max()))
    with pytest.raises(ValueError, match="word order in 2 letters evaluated at a 1-tuple"):
        reversed_stack(MatrixTuple((np.eye(2),)), enumerate_words(2, 1))


def test_monomial_stack_rejects_mismatched_order():
    X = sample("hermitian_tuple", 2, 2, seed=3)
    with pytest.raises(ValueError, match="3 letters"):
        monomial_stack(X, enumerate_words(3, 2))

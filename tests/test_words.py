import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick import words
from freepick.matcore import BudgetError, MatrixTuple, haar_unitary, direct_sum, sample
from freepick.words import (
    KEY_LIMIT,
    EMPTY,
    check_alphabet,
    enumerate_words,
    eval_words,
    involute,
    letter_array,
    max_degree,
    monomial_stack,
    reversed_letters,
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
    assert list(order.involution_positions()) == [index[involute(w)] for w in order.words]


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
def test_word_count_formula(d, L):
    assert len(enumerate_words(d, L)) == word_count(d, L)


def test_budget_error_names_degrees():
    # word_count(10, 2) = 111 <= 1000 < word_count(10, 3) = 1111
    message = r"^words of length <= 6 in 10 letters exceed the budget of 1000 words; the largest degree within it is 2$"
    with pytest.raises(BudgetError, match=message):
        enumerate_words(10, 6, budget=1000)


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
    assert (max_degree(2, KEY_LIMIT), max_degree(3, KEY_LIMIT)) == (62, 39)
    assert max_degree(1, KEY_LIMIT) == KEY_LIMIT - 1
    assert max_degree(2, 0) == max_degree(1, 0) == -1
    # limits whose bound is an exact power, where log(243, 3) and
    # log(1000, 10) come out just under 5 and 3
    assert (max_degree(3, 121), max_degree(10, 111)) == (4, 2)
    assert (max_degree(3, 120), max_degree(10, 110)) == (3, 1)
    # and one just under a power, where log(2^60 - 1, 2) rounds up to 60
    assert max_degree(2, 2**60 - 2) == 58


def test_budget_admits_the_largest_degree_within_it():
    assert len(enumerate_words(10, 2, budget=111)) == 111
    with pytest.raises(BudgetError, match="the largest degree within it is 2$"):
        enumerate_words(10, 3, budget=1110)


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


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_monomial_stack_equals_suffix_sharing_values(d, L, n, seed):
    rng = np.random.default_rng(seed)
    X = MatrixTuple(
        tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d))
    )
    order = enumerate_words(d, L)
    values = eval_words(X, order.words)
    stack = monomial_stack(X, order)
    assert np.array_equal(stack, np.stack([values[w] for w in order.words]))


def test_monomial_stack_rejects_mismatched_order():
    X = sample("hermitian_tuple", 2, 2, seed=3)
    with pytest.raises(ValueError, match="3 letters"):
        monomial_stack(X, enumerate_words(3, 2))

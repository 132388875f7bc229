import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import BudgetError, MatrixTuple, haar_unitary, direct_sum, sample
from freepick.words import (
    EMPTY,
    check_alphabet,
    enumerate_words,
    eval_word,
    eval_words,
    involute,
    monomial_stack,
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
    assert order.position(EMPTY) == 0


def test_position_unknown_word():
    order = enumerate_words(2, 1)
    with pytest.raises(KeyError):
        order.position((1, 1))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
def test_word_count_formula(d, L):
    assert len(enumerate_words(d, L)) == word_count(d, L)


def test_budget_error_names_count():
    with pytest.raises(BudgetError, match=str(word_count(10, 6))):
        enumerate_words(10, 6, budget=1000)


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


def test_eval_word_order_of_factors():
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[1.0, 0.0], [0.0, 2.0]])
    X = MatrixTuple((X1, X2))
    np.testing.assert_allclose(eval_word(X, (1, 2, 1)), X1 @ X2 @ X1)


def test_eval_word_empty_is_identity():
    X = MatrixTuple((np.full((3, 3), 5.0),))
    np.testing.assert_array_equal(eval_word(X, EMPTY), np.eye(3))


def test_eval_word_scalar_power():
    X = MatrixTuple((np.array([[0.5]]),))
    assert eval_word(X, (1, 1))[0, 0] == pytest.approx(0.25)


def test_eval_word_jordan_block_powers():
    lam = 0.4
    X = MatrixTuple((np.array([[lam, lam], [0.0, lam]]),))
    for n in range(1, 8):
        expected = np.array([[lam**n, n * lam**n], [0.0, lam**n]])
        np.testing.assert_allclose(eval_word(X, (1,) * n), expected, atol=1e-14)


def test_eval_word_adjoint_compatibility():
    X = sample("hermitian_tuple", 3, 2, seed=5)
    Y = MatrixTuple(tuple(M + 0.3j * np.eye(3) for M in X.mats))
    w = (1, 2, 2, 1, 2)
    np.testing.assert_allclose(
        eval_word(Y, w).conj().T, eval_word(Y.adjoint(), involute(w)), atol=1e-12
    )


def test_eval_word_respects_direct_sums():
    X = sample("hermitian_tuple", 2, 2, seed=1)
    Y = sample("hermitian_tuple", 3, 2, seed=2)
    w = (2, 1, 1)
    S = eval_word(direct_sum(X, Y), w)
    np.testing.assert_allclose(S[:2, :2], eval_word(X, w), atol=1e-12)
    np.testing.assert_allclose(S[2:, 2:], eval_word(Y, w), atol=1e-12)
    assert np.abs(S[:2, 2:]).max() < 1e-14


def test_eval_word_unitary_similarity():
    X = sample("hermitian_tuple", 3, 2, seed=9)
    U = haar_unitary(3, np.random.default_rng(4))
    conj = MatrixTuple(tuple(U.conj().T @ M @ U for M in X.mats))
    w = (1, 2, 1, 1)
    np.testing.assert_allclose(
        eval_word(conj, w), U.conj().T @ eval_word(X, w) @ U, atol=1e-12
    )


def test_eval_words_matches_eval_word():
    X = sample("hermitian_tuple", 2, 2, seed=3)
    order = enumerate_words(2, 4)
    table = eval_words(X, order.words)
    for w in order.words:
        np.testing.assert_allclose(table[w], eval_word(X, w), atol=1e-13)


def test_eval_word_alphabet_mismatch():
    X = MatrixTuple((np.eye(2),))
    with pytest.raises(ValueError):
        eval_word(X, (2,))


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

"""The shared kernel build and FreeSeries.from_vector against the routes they replace.

szego_kernels and min_norm_interpolate share one build: the unconjugated
monomial stack S, K = conj(S) and the Gram S^T K. The interpolant is read
back through FreeSeries.from_vector instead of a dict comprehension and the
per-word constructor. The oracles below are those replaced routes: K from a
conj of the stack, the Gram K*K from a second conj copy, the eigvalsh rank,
the eigh pseudo-inverse, and the `if v != 0.0` dict handed to FreeSeries.
Both routes form the same products in the same order, so every array is
np.array_equal to its oracle and every series equals its oracle in value,
signed zeros and insertion order.
"""

import math

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.hardy import (
    FEASIBILITY_RTOL,
    GRAM_RANK_RTOL,
    gram_projection,
    min_norm_interpolate,
    szego_kernels,
)
from freepick.jsonio import parse_matrix, parse_tuple
from freepick.matcore import InfeasibleError, MatrixTuple, hermitianize, sample
from freepick.series import FreeSeries, eval_series
from freepick.words import enumerate_words, monomial_stack

# ------------------------------------------------------------------- oracles


def oracle_series(order, c) -> FreeSeries:
    coeffs = {w: v for w, v in zip(order.words, c.tolist()) if v != 0.0}
    return FreeSeries(d=order.d, degree=order.degree, coeffs=coeffs)


def oracle_frame(X: MatrixTuple, L: int):
    order = enumerate_words(X.d, L)
    K = monomial_stack(X, order).conj().reshape(len(order), X.n * X.n)
    gram = K.conj().T @ K
    vals = la.eigvalsh(hermitianize(gram))
    top = max(float(vals[-1]), 0.0)
    rank = int(np.sum(vals > GRAM_RANK_RTOL * top)) if top > 0 else 0
    return order, K, gram, rank


def oracle_pinv(gram: np.ndarray) -> np.ndarray:
    vals, vecs = la.eigh(hermitianize(gram))
    top = max(float(vals[-1]), 0.0)
    cutoff = GRAM_RANK_RTOL * top
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.conj().T


def oracle_interpolant(X: MatrixTuple, target: np.ndarray, L: int) -> FreeSeries:
    order, K, gram, _ = oracle_frame(X, L)
    t = np.asarray(target, dtype=np.complex128).reshape(-1)
    g = oracle_pinv(gram) @ t
    residual = float(la.norm(gram @ g - t))
    if residual > FEASIBILITY_RTOL * (1.0 + float(la.norm(t))):
        raise InfeasibleError(f"residual {residual:.3e}")
    return oracle_series(order, K @ g)


def assert_same_series(f: FreeSeries, ref: FreeSeries) -> None:
    assert f == ref
    assert list(f.coeffs.items()) == list(ref.coeffs.items())
    # == reads -0.0 as 0.0; the bytes keep the signs of zero parts
    assert f.values.tobytes() == ref.values.tobytes()


def assert_same_frame(X: MatrixTuple, L: int) -> None:
    order, K, gram, rank = oracle_frame(X, L)
    frame = szego_kernels(X, L)
    assert frame.order.words == order.words
    assert np.array_equal(frame.K, K)
    assert np.array_equal(frame.gram, gram)
    assert frame.rank == rank
    assert np.array_equal(gram_projection(frame), K @ oracle_pinv(gram) @ K.conj().T)


def assert_same_interpolant(X: MatrixTuple, target: np.ndarray, L: int) -> None:
    try:
        ref = oracle_interpolant(X, target, L)
    except InfeasibleError:
        with pytest.raises(InfeasibleError, match="kernel span"):
            min_norm_interpolate(X, target, L)
        return
    assert_same_series(min_norm_interpolate(X, target, L), ref)


def jordan_fixture(fixtures_dir):
    X = parse_tuple(str(fixtures_dir / "jordan_point.json"))
    return X, parse_matrix(str(fixtures_dir / "jordan_target.json"))


def random_target(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# -------------------------------------------------------------- from_vector


def order_and_vector(d: int, L: int, seed: int):
    order = enumerate_words(d, L)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(order)) + 1j * rng.standard_normal(len(order))
    return order, c


def test_from_vector_drops_signed_zeros():
    order = enumerate_words(2, 3)
    c = np.arange(len(order), dtype=np.complex128) + 0.5j
    c[[0, 3, 7]] = 0.0
    c[1] = complex(-0.0, 0.0)
    c[4] = complex(0.0, -0.0)
    c[5] = complex(-0.0, -0.0)
    c[6] = complex(-0.0, 2.0)  # kept, with its -0.0 real part
    c[8] = complex(3.0, -0.0)  # kept, with its -0.0 imaginary part
    f = FreeSeries.from_vector(order, c)
    assert_same_series(f, oracle_series(order, c))
    assert order.words[6] in f.coeffs and math.copysign(1.0, f.coeffs[order.words[6]].real) == -1.0
    assert all(w not in f.coeffs for w in [order.words[i] for i in (0, 1, 3, 4, 5, 7)])


def test_from_vector_of_zeros_is_the_empty_series():
    order = enumerate_words(3, 2)
    for zero in (0.0, -0.0, complex(-0.0, -0.0)):
        f = FreeSeries.from_vector(order, np.full(len(order), zero, dtype=np.complex128))
        assert_same_series(f, oracle_series(order, np.zeros(len(order), dtype=np.complex128)))
        assert f.coeffs == {} and (f.d, f.degree) == (3, 2)


@pytest.mark.parametrize("d, L", [(1, 0), (1, 6), (2, 4), (3, 3)])
def test_from_vector_matches_the_dict_route(d, L):
    order, c = order_and_vector(d, L, seed=10 * d + L)
    c[::3] = 0.0
    assert_same_series(FreeSeries.from_vector(order, c), oracle_series(order, c))


def test_from_vector_takes_real_vectors():
    order = enumerate_words(2, 2)
    c = np.linspace(-1.0, 1.0, len(order))
    assert_same_series(FreeSeries.from_vector(order, c), oracle_series(order, c.astype(np.complex128)))


@pytest.mark.parametrize(
    "bad",
    [
        {5: np.nan},
        {9: np.inf, 5: complex(0.0, -np.inf)},
        {0: complex(np.nan, 0.0)},
        {2: 0.0, 11: complex(-np.inf, np.nan)},
    ],
    ids=["nan", "first-of-two", "empty-word", "late"],
)
def test_from_vector_rejects_non_finite_entries(bad):
    order, c = order_and_vector(2, 3, seed=1)
    for i, v in bad.items():
        c[i] = v
    with pytest.raises(ValueError) as want:
        oracle_series(order, c)
    with pytest.raises(ValueError) as got:
        FreeSeries.from_vector(order, c)
    assert str(got.value) == str(want.value)
    assert "is not finite" in str(got.value)


def test_from_vector_rejects_a_vector_of_the_wrong_length():
    order = enumerate_words(2, 2)
    with pytest.raises(ValueError, match="over an order of 7 words"):
        FreeSeries.from_vector(order, np.ones(6))
    with pytest.raises(ValueError, match="over an order of 7 words"):
        FreeSeries.from_vector(order, np.ones((7, 1)))


def test_from_vector_series_behaves_like_a_constructed_one():
    order, c = order_and_vector(2, 4, seed=3)
    c[1::4] = 0.0
    f, ref = FreeSeries.from_vector(order, c), oracle_series(order, c)
    assert np.array_equal(f.keys, ref.keys)
    X = sample("contraction_tuple", 3, 2, seed=4)
    assert np.array_equal(eval_series(f, X).value, eval_series(ref, X).value)


# ------------------------------------------------------ frame and interpolant


def test_jordan_fixture_matches_the_oracles(fixtures_dir):
    X, target = jordan_fixture(fixtures_dir)
    for L in (0, 1, 12, 60):
        assert_same_frame(X, L)
        assert_same_interpolant(X, target, L)


def test_jordan_infeasible_target_matches_the_oracle(fixtures_dir):
    X, target = jordan_fixture(fixtures_dir)
    bad = np.array(target, dtype=np.complex128)
    bad[1, 0] = 0.5
    assert_same_interpolant(X, bad, 30)


@pytest.mark.parametrize("d, L, n", [(1, 7, 3), (2, 8, 4), (2, 5, 2), (3, 4, 3), (3, 6, 2)])
def test_random_points_match_the_oracles(d, L, n):
    X = sample("contraction_tuple", n, d, seed=100 * d + 10 * L + n)
    assert_same_frame(X, L)
    assert_same_interpolant(X, random_target(n, seed=L), L)
    # a target in the kernel span is always feasible
    f0 = FreeSeries.from_vector(*order_and_vector(d, L, seed=n))
    assert_same_interpolant(X, eval_series(f0, X).value, L)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    L=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["contraction_tuple", "hermitian_tuple"]),
)
def test_oracles_hypothesis(d, L, n, seed, kind):
    X = sample(kind, n, d, seed=seed)
    assert_same_frame(X, L)
    assert_same_interpolant(X, random_target(n, seed), L)
    order, c = order_and_vector(d, L, seed)
    c[np.random.default_rng(seed).random(len(c)) < 0.3] = complex(-0.0, 0.0)
    assert_same_series(FreeSeries.from_vector(order, c), oracle_series(order, c))


# ------------------------------------------------------------------- n = 0


def test_empty_frame_has_rank_zero():
    X = MatrixTuple((np.zeros((0, 0)), np.zeros((0, 0))))
    frame = szego_kernels(X, 3)
    assert frame.K.shape == (15, 0)
    assert frame.gram.shape == (0, 0)
    assert frame.rank == 0
    assert np.array_equal(gram_projection(frame), np.zeros((15, 15)))


def test_empty_target_interpolates_to_the_empty_series():
    X = MatrixTuple((np.zeros((0, 0)),))
    f = min_norm_interpolate(X, np.zeros((0, 0)), 4)
    assert f == FreeSeries(d=1, degree=4, coeffs={})

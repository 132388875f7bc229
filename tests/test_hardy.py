import numpy as np
import pytest

from freepick.hardy import (
    frame_export,
    gram_projection,
    min_norm_interpolate,
    reproduce_check,
    szego_kernels,
)
from freepick.matcore import InfeasibleError, MatrixTuple, sample
from freepick.series import FreeSeries, eval_series
from freepick.words import enumerate_words

LAM = 0.4
Q = LAM * LAM


def jordan(lam: float = LAM) -> MatrixTuple:
    return MatrixTuple((np.array([[lam, lam], [0.0, lam]]),))


def closed_form_gram() -> np.ndarray:
    # Gram of (k^11, k^12) at the Jordan point: entries are the geometric
    # sums sum q^m, sum m q^m, sum m^2 q^m
    return np.array(
        [
            [1 / (1 - Q), Q / (1 - Q) ** 2],
            [Q / (1 - Q) ** 2, Q * (1 + Q) / (1 - Q) ** 3],
        ]
    )


def random_series(d: int, degree: int, seed: int) -> FreeSeries:
    rng = np.random.default_rng(seed)
    order = enumerate_words(d, degree)
    coeffs = {
        w: complex(rng.standard_normal(), rng.standard_normal()) / 2.0 ** len(w)
        for w in order.words
    }
    return FreeSeries(d=d, degree=degree, coeffs=coeffs)


# -------------------------------------------------------------------- kernels


def test_jordan_kernel_entries():
    frame = szego_kernels(jordan(), 8)
    for m in range(9):
        w = (1,) * m
        idx = frame.order.words.index(w)
        assert frame.kernel(0, 0)[idx] == pytest.approx(LAM**m)
        assert frame.kernel(0, 1)[idx] == pytest.approx(m * LAM**m)
    assert np.abs(frame.kernel(1, 0)).max() == 0
    np.testing.assert_allclose(frame.kernel(1, 1), frame.kernel(0, 0))


def test_jordan_rank_collapses():
    frame = szego_kernels(jordan(), 8)
    assert frame.rank == 2


def test_zero_point_kernels_are_deltas():
    X = MatrixTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    frame = szego_kernels(X, 2)
    assert frame.rank == 1
    e0 = np.zeros(len(frame.order))
    e0[frame.order.words.index(())] = 1.0
    np.testing.assert_allclose(frame.kernel(0, 0), e0)
    np.testing.assert_allclose(frame.kernel(1, 1), e0)
    assert np.abs(frame.kernel(0, 1)).max() == 0


def test_generic_pair_has_full_rank():
    X = sample("contraction_tuple", 2, 2, seed=3)
    frame = szego_kernels(X, 3)
    assert frame.rank == 4


def test_single_matrix_rank_obeys_cayley_hamilton():
    # powers of one 2x2 matrix stay inside span{I, X}, so the kernel rows
    # span a plane no matter how high the degree
    X = sample("contraction_tuple", 2, 1, seed=3)
    frame = szego_kernels(X, 6)
    assert frame.rank == 2


def test_kernel_accessor_matches_columns():
    X = sample("contraction_tuple", 2, 2, seed=4)
    frame = szego_kernels(X, 2)
    for i in range(2):
        for j in range(2):
            np.testing.assert_array_equal(frame.kernel(i, j), frame.K[:, i * 2 + j])


# --------------------------------------------------------------- reproduction


def test_reproduces_coordinate_series():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0})
    assert reproduce_check(szego_kernels(jordan(), 4), f) < 1e-15


def test_reproduces_random_series():
    X = sample("contraction_tuple", 3, 2, seed=5)
    frame = szego_kernels(X, 4)
    f = random_series(2, 4, seed=6)
    assert reproduce_check(frame, f) < 1e-12


def test_jordan_corner_pairing_is_scaled_derivative():
    frame = szego_kernels(jordan(), 12)
    f = random_series(1, 12, seed=7)
    coeffs = [f.coeff((1,) * m) for m in range(13)]
    pairing = complex(frame.kernel(0, 1).conj() @ [f.coeff(w) for w in frame.order.words])
    derivative_at_lam = sum(m * c * LAM ** (m - 1) for m, c in enumerate(coeffs) if m)
    assert pairing == pytest.approx(LAM * derivative_at_lam, rel=1e-12)


def test_degree_overflow_rejected():
    frame = szego_kernels(jordan(), 2)
    with pytest.raises(ValueError, match="exceeds the frame degree"):
        reproduce_check(frame, random_series(1, 3, seed=8))


def test_letter_count_mismatch_rejected():
    # a one-letter series' keys would land on other words of a two-letter frame
    frame = szego_kernels(sample("hermitian_tuple", 2, 2, seed=3), 3)
    with pytest.raises(ValueError, match="1 letters paired with a frame in 2 letters"):
        reproduce_check(frame, random_series(1, 3, seed=8))


# ----------------------------------------------------------------------- gram


def test_jordan_gram_closed_forms():
    frame = szego_kernels(jordan(), 60)
    G2 = closed_form_gram()
    # kernel columns (0,0) and (0,1) sit at positions 0 and 1
    np.testing.assert_allclose(frame.gram[:2, :2].real, G2, atol=1e-10)
    assert np.abs(frame.gram[:2, :2].imag).max() < 1e-14
    assert frame.gram[0, 1] == pytest.approx(np.conj(frame.gram[1, 0]))


def test_gram_truncation_tail_is_geometric():
    low = szego_kernels(jordan(), 8).gram[0, 0].real
    exact = 1 / (1 - Q)
    assert abs(low - exact) <= Q**9 / (1 - Q) * (1 + 1e-9) + 1e-15


def test_projection_is_an_orthogonal_projection():
    X = sample("contraction_tuple", 2, 1, seed=9)
    frame = szego_kernels(X, 4)
    P = gram_projection(frame)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-10)
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    assert np.trace(P).real == pytest.approx(frame.rank, abs=1e-8)
    np.testing.assert_allclose(P @ frame.K, frame.K, atol=1e-10)


# -------------------------------------------------------------- interpolation


def test_jordan_interpolation_gives_min_norm_combination():
    target = np.array([[2.0, 1.2], [0.0, 2.0]])
    f = min_norm_interpolate(jordan(), target, 60)
    np.testing.assert_allclose(eval_series(f, jordan()).value, target, atol=1e-8)
    # the interpolant is mu_1 k^11 + mu_2 k^12 with mu solving the 2x2
    # closed-form system against (f(lambda), lambda f'(lambda)) = (2, 1.2)
    mu = np.linalg.solve(closed_form_gram(), np.array([2.0, 1.2]))
    frame = szego_kernels(jordan(), 60)
    c = np.array([f.coeff(w) for w in frame.order.words])
    combo = mu[0] * frame.kernel(0, 0) + mu[1] * frame.kernel(0, 1)
    np.testing.assert_allclose(c, combo, atol=1e-8)


def test_interpolant_is_orthogonal_to_the_null_directions():
    target = np.array([[2.0, 1.2], [0.0, 2.0]])
    f = min_norm_interpolate(jordan(), target, 30)
    frame = szego_kernels(jordan(), 30)
    c = np.array([f.coeff(w) for w in frame.order.words])
    P = gram_projection(frame)
    np.testing.assert_allclose(P @ c, c, atol=1e-10)
    rng = np.random.default_rng(10)
    e = rng.standard_normal(len(frame.order))
    g = e - P @ e  # evaluates to zero at the point
    assert abs(c.conj() @ g) < 1e-10 * (1 + np.linalg.norm(c) * np.linalg.norm(g))
    assert np.linalg.norm(c) <= np.linalg.norm(c + g) + 1e-12


def test_interpolation_beats_any_given_interpolant():
    X = sample("contraction_tuple", 2, 2, seed=11)
    f0 = random_series(2, 3, seed=12)
    target = eval_series(f0, X).value
    f = min_norm_interpolate(X, target, 3)
    np.testing.assert_allclose(eval_series(f, X).value, target, atol=1e-8)
    order = enumerate_words(2, 3)
    norm_f = np.linalg.norm([f.coeff(w) for w in order.words])
    norm_f0 = np.linalg.norm([f0.coeff(w) for w in order.words])
    assert norm_f <= norm_f0 + 1e-10


def test_lower_corner_target_is_infeasible():
    bad = np.array([[2.0, 1.2], [0.5, 2.0]])
    with pytest.raises(InfeasibleError, match="kernel span"):
        min_norm_interpolate(jordan(), bad, 30)


def test_interpolation_at_zero_point():
    X = MatrixTuple((np.zeros((2, 2)),))
    f = min_norm_interpolate(X, 3.0 * np.eye(2), 4)
    assert f.coeff(()) == pytest.approx(3.0)
    assert all(abs(f.coeff(w)) < 1e-14 for w in enumerate_words(1, 4).words if w)
    with pytest.raises(InfeasibleError):
        min_norm_interpolate(X, np.array([[3.0, 1.0], [0.0, 3.0]]), 4)


def test_target_shape_validated():
    with pytest.raises(ValueError, match="target"):
        min_norm_interpolate(jordan(), np.eye(3), 4)


# --------------------------------------------------------------------- export


def test_frame_export_shape():
    out = frame_export(szego_kernels(jordan(), 3))
    assert out["d"] == 1
    assert out["n"] == 2
    assert out["degree"] == 3
    assert out["rank"] == 2
    assert len(out["kernels"]) == 4
    by_pos = {(k["i"], k["j"]): k["entries"] for k in out["kernels"]}
    assert by_pos[(1, 0)] == []
    assert len(by_pos[(0, 0)]) == 4

import re
import warnings

import numpy as np
import pytest

from freepick.matcore import MatrixTuple, direct_sum, sample
from freepick.words import WORD_BUDGET, max_degree
from freepick.series import (
    BLOCK,
    COMMUTATOR,
    DIRECT_SUM_DERIVATIVE,
    FD,
    FD_STEP,
    LOCALIZING,
    TENSOR_DERIVATIVE,
    FreeSeries,
    axiom_verify,
    check_identity,
    derivative,
    eval_series,
    monomial_vector,
    require_real_free,
    series_evaluator,
    validate,
)


def scalar(x: float | complex) -> MatrixTuple:
    return MatrixTuple((np.array([[x]], dtype=np.complex128),))


def random_series(d: int, degree: int, seed: int, real_free: bool = False) -> FreeSeries:
    from freepick.words import enumerate_words, involute

    rng = np.random.default_rng(seed)
    order = enumerate_words(d, degree)
    coeffs = {}
    for w in order.words:
        c = complex(rng.standard_normal(), 0.0 if real_free else rng.standard_normal())
        c /= 2.0 ** len(w)
        coeffs[w] = c
    if real_free:
        coeffs = {w: 0.5 * (coeffs[w] + np.conj(coeffs[involute(w)])) for w in order.words}
    return FreeSeries(d=d, degree=degree, coeffs=coeffs, real_free=real_free)


# ---------------------------------------------------------------- construction


def test_word_longer_than_degree_rejected():
    with pytest.raises(ValueError, match="longer than the degree"):
        FreeSeries(d=1, degree=1, coeffs={(1, 1): 1.0})


def test_letter_out_of_alphabet_rejected():
    with pytest.raises(ValueError, match=r"^letter 2 in word \[2\] is outside 1\.\.1$"):
        FreeSeries(d=1, degree=2, coeffs={(2,): 1.0})


def test_non_integer_letter_rejected():
    # int() used to truncate 1.9 to 1 and store the coefficient at (2, 1)
    for word in ((2, 1.9), (True,), ("1",)):
        with pytest.raises(ValueError, match="not an integer"):
            FreeSeries(d=2, degree=2, coeffs={word: 2.0})
    f = FreeSeries(d=2, degree=2, coeffs={(2, 1.0): 2.0, (np.int64(1),): 1.0})
    assert f.coeffs == {(2, 1): 2.0, (1,): 1.0}


def test_deep_series_validates_and_evaluates():
    # no position table reaches degree 64: the symmetry scan pairs words by lookup
    f = FreeSeries(d=2, degree=64, coeffs={(1,) * 64: 1.0, (1, 2) * 20: 0.5, (2, 1) * 20: 0.5}, real_free=True)
    X = MatrixTuple((np.array([[0.5]]), np.array([[0.25]])))
    assert eval_series(f, X).value[0, 0] == pytest.approx(0.5**64 + 0.125**20, rel=1e-15)
    assert validate(f).ok
    g = FreeSeries(d=2, degree=64, coeffs={(1, 2) * 20: 0.5, (2, 1) * 20: 0.25}, real_free=True)
    assert validate(g).symmetry_violations == (((1, 2) * 20, 0.25),)


def test_keys_stop_at_the_word_budget():
    # a word longer than max_degree(d, WORD_BUDGET) reads WORD_BUDGET, whatever its degree
    assert max_degree(2, WORD_BUDGET) == 15
    top = FreeSeries(d=2, degree=63, coeffs={(2,) * 15: 1.0, (2,) * 16: 1.0, (2,) * 62: 1.0, (1,) * 63: 1.0})
    assert top.keys.tolist() == [2**16 - 2, WORD_BUDGET, WORD_BUDGET, WORD_BUDGET]
    assert FreeSeries(d=3, degree=40, coeffs={(3,) * 10: 1.0, (1,) * 40: 1.0}).keys.tolist() == [3**11 // 2 - 1, WORD_BUDGET]
    assert FreeSeries(d=1, degree=5000, coeffs={(1,) * 5000: 1.0}).keys.tolist() == [5000]


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError, match="not finite"):
        FreeSeries(d=1, degree=1, coeffs={(1,): float("nan")})


def test_nonpositive_decay_rate_rejected():
    with pytest.raises(ValueError):
        FreeSeries(d=1, degree=1, coeffs={(1,): 1.0}, decay_rate=0.0)


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        (dict(coeffs={(): 1.0, (1,): complex(1.0, float("inf"))}), ValueError, "coefficient of [1] is not finite"),
        (dict(coeffs={(1,): 10**400}), OverflowError, "int too large to convert to float"),
        (dict(coeffs={(1,): "x"}), ValueError, "complex() arg is a malformed string"),
        (dict(d=0), ValueError, "need d >= 1 and degree >= 0, got d=0, degree=2"),
        (dict(degree=-1, coeffs={}), ValueError, "need d >= 1 and degree >= 0, got d=1, degree=-1"),
        (dict(decay_rate=-1.0), ValueError, "decay_rate must be positive when given"),
        (dict(decay_rate=float("nan")), ValueError, "decay_rate must be positive when given"),
    ],
    ids=["nonfinite", "huge", "string", "d", "degree", "negative-rate", "nan-rate"],
)
def test_every_constructor_rejection_has_its_message(kwargs, error, message):
    kwargs = {"d": 1, "degree": 2, "coeffs": {(1,): 1.0}, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            FreeSeries(**kwargs)


def test_the_first_bad_word_in_insertion_order_is_named():
    long, outside = {(1, 1, 1): 1.0}, {(3,): float("nan")}
    with pytest.raises(ValueError, match=r"^word \[1, 1, 1\] is longer than the degree 2$"):
        FreeSeries(d=2, degree=2, coeffs={(): 1.0, **long, **outside})
    with pytest.raises(ValueError, match=r"^letter 3 in word \[3\] is outside 1\.\.2$"):
        FreeSeries(d=2, degree=2, coeffs={(): 1.0, **outside, **long})


def test_missing_coefficient_is_zero(x3_series):
    assert x3_series.coeff((1,)) == 0
    assert x3_series.coeff((1, 1, 1)) == 1


# ------------------------------------------------------------------ validation


def test_validate_identity_series_is_clean():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0}, real_free=True)
    assert validate(f).ok


def test_validate_flags_symmetry_violation():
    f = FreeSeries(d=2, degree=2, coeffs={(1, 2): 1.0, (2, 1): 0.0}, real_free=True)
    diag = validate(f)
    assert not diag.ok
    words = [w for w, _ in diag.symmetry_violations]
    assert (1, 2) in words


def test_validate_flags_decay_violation():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0}, decay_rate=2.0)
    diag = validate(f)
    assert diag.decay_violations == (((1,), pytest.approx(0.5)),)


def test_validate_decay_bound_past_the_float_range():
    # 0.001 ** -120 = 1e360 is no float: the bound reads inf and flags nothing
    f = FreeSeries(d=1, degree=120, coeffs={(1,) * 120: 1.0, (1,): 5000.0, (): 0.5}, real_free=True, decay_rate=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = validate(f)
    assert diag.symmetry_violations == ()
    assert diag.decay_violations == (((1,), 4000.0),)


def test_validate_accepts_resolvent_decay(halfres_series, d2res_series):
    assert validate(halfres_series).ok
    assert validate(d2res_series).ok


def test_require_real_free():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0})
    with pytest.raises(ValueError, match="real_free"):
        require_real_free(f, "this check")
    g = FreeSeries(d=2, degree=2, coeffs={(1, 2): 1.0}, real_free=True)
    with pytest.raises(ValueError, match="symmetry"):
        require_real_free(g, "this check")


# ------------------------------------------------------------------ evaluation


def test_cube_at_worked_pair(x3_series, ones_pair):
    X, Y = ones_pair
    np.testing.assert_allclose(eval_series(x3_series, X).value, np.full((2, 2), 4.0), atol=1e-12)
    np.testing.assert_allclose(
        eval_series(x3_series, Y).value, np.array([[13.0, 8.0], [8.0, 5.0]]), atol=1e-12
    )


def test_eval_d_mismatch(x3_series):
    with pytest.raises(ValueError, match="letters"):
        eval_series(x3_series, sample("hermitian_tuple", 2, 2, seed=0))


def test_resolvent_truncation_within_tail_bound(halfres_series):
    res = eval_series(halfres_series, scalar(0.5))
    exact = 1.0 / (2.0 - 0.5)
    assert abs(res.value[0, 0] - exact) <= res.tail_bound
    assert res.tail_bound < 1e-6


def test_tail_bound_infinite_without_rate(x3_series, ones_pair):
    assert eval_series(x3_series, ones_pair[0]).tail_bound == float("inf")


def test_tail_bound_infinite_outside_radius(halfres_series):
    # d * ||X|| / rate = 2.5 / 2 >= 1
    assert eval_series(halfres_series, scalar(2.5)).tail_bound == float("inf")


def test_value_only_callers_take_no_tail_bound(d2res_series, monkeypatch):
    # the tail bound's SVD (MatrixTuple.max_norm) is skipped wherever the
    # bound is not read, and every value stays bit for bit what it was
    from freepick.hardy import reproduce_check, szego_kernels
    from freepick.monotone import sample_monotone_test

    f = d2res_series
    X = MatrixTuple(0.1 * sample("hermitian_tuple", 2, 2, seed=3).mats)
    Y = MatrixTuple(0.1 * sample("hermitian_tuple", 2, 2, seed=4).mats)
    A = sample("hermitian_tuple", 2, 1, seed=5).mats[0]
    aux = {COMMUTATOR: A, DIRECT_SUM_DERIVATIVE: Y, TENSOR_DERIVATIVE: (Y, np.diag([1.0, 2.0]))}
    frame = szego_kernels(X, f.degree)

    def run():
        return (
            series_evaluator(f)(X),
            [check_identity(f, kind, X, a) for kind, a in aux.items()],
            reproduce_check(frame, f),
            sample_monotone_test(f, 2, trials=4, seed=1),
        )

    want = run()
    assert np.array_equal(want[0], eval_series(f, X).value)
    # sample_monotone_test reads one perturbation radius per trial, no more
    norm, radii = MatrixTuple.max_norm, []

    def counted(P):
        radii.append(P)
        return norm(P)

    monkeypatch.setattr(MatrixTuple, "max_norm", counted)
    got = run()
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:] and len(radii) == 4


def test_tail_bound_dominates_partial_tails():
    full = {(1,) * n: 2.0 ** (-(n + 1)) for n in range(13)}
    low = FreeSeries(d=1, degree=6, coeffs={w: c for w, c in full.items() if len(w) <= 6}, decay_rate=2.0)
    high = FreeSeries(d=1, degree=12, coeffs=full, decay_rate=2.0)
    X = scalar(0.7)
    gap = np.abs(eval_series(low, X).value - eval_series(high, X).value).max()
    assert gap <= eval_series(low, X).tail_bound


def test_real_free_series_preserves_selfadjointness(halfres_series):
    X = sample("hermitian_tuple", 3, 1, seed=11)
    X = MatrixTuple((X.mats[0] / (2 * X.max_norm()),))
    val = eval_series(halfres_series, X).value
    assert np.abs(val - val.conj().T).max() < 1e-12


def test_multiletter_resolvent_matches_geometric_sum(d2res_series):
    Z = MatrixTuple((np.array([[0.3]]), np.array([[0.2]])))
    got = eval_series(d2res_series, Z).value[0, 0]
    exact = 1.0 / (2.0 - 0.6 * 0.3 - 0.4 * 0.2)
    assert abs(got - exact) <= eval_series(d2res_series, Z).tail_bound


# ------------------------------------------------------------ monomial vectors


def test_monomial_vector_scalar():
    m = monomial_vector(scalar(0.5), 2)
    np.testing.assert_allclose(m, np.array([[1.0], [0.5], [0.25]]))


def test_monomial_vector_at_zero():
    X = MatrixTuple((np.zeros((2, 2)),))
    m = monomial_vector(X, 1)
    np.testing.assert_array_equal(m[:2], np.eye(2))
    np.testing.assert_array_equal(m[2:], np.zeros((2, 2)))


def test_monomial_vector_block_count(jordan_point):
    m = monomial_vector(jordan_point, 3)
    assert m.shape == (4 * 2, 2)


# ------------------------------------------------------------------ derivative


def test_square_derivative_is_anticommutator():
    f = FreeSeries(d=1, degree=2, coeffs={(1, 1): 1.0}, real_free=True)
    rng = np.random.default_rng(3)
    X = MatrixTuple((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),))
    H = MatrixTuple((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),))
    expected = X.mats[0] @ H.mats[0] + H.mats[0] @ X.mats[0]
    for method in (BLOCK, LOCALIZING):
        np.testing.assert_allclose(derivative(f, X, H, method=method), expected, atol=1e-12)


def test_cube_derivative_worked_value(x3_series, ones_pair):
    X, _ = ones_pair
    H = MatrixTuple((np.array([[0.0, 1.0], [1.0, 0.0]]),))
    np.testing.assert_allclose(derivative(x3_series, X, H), np.full((2, 2), 6.0), atol=1e-12)


def test_resolvent_derivative_matches_scalar_sum(halfres_series):
    # at a scalar point the derivative is the termwise derivative
    # sum_n n c_n x^{n-1}; c_n x^{n-1} = 4^{-n} at x = 0.5.
    expected = sum(n * 0.25**n for n in range(1, 13))
    got = derivative(halfres_series, scalar(0.5), scalar(1.0))
    assert got[0, 0] == pytest.approx(expected, abs=1e-14)


def test_jordan_corner_carries_the_derivative(halfres_series):
    lam = 0.4
    J = MatrixTuple((np.array([[lam, 1.0], [0.0, lam]]),))
    val = eval_series(halfres_series, J).value
    expected = sum(n * 2.0 ** (-(n + 1)) * lam ** (n - 1) for n in range(1, 13))
    assert val[0, 1] == pytest.approx(expected, abs=1e-14)
    assert val[1, 0] == 0


def test_three_methods_agree_seeded():
    for t in range(6):
        d = 1 + t % 2
        f = random_series(d, 4, seed=100 + t)
        X = sample("contraction_tuple", 2 + t % 2, d, seed=t)
        H = sample("psd_direction", 2 + t % 2, d, seed=t + 1)
        base = derivative(f, X, H, method=BLOCK)
        loc = derivative(f, X, H, method=LOCALIZING)
        fd = derivative(f, X, H, method=FD)
        scale = 1 + np.abs(base).max()
        assert np.abs(base - loc).max() / scale < 1e-12
        assert np.abs(base - fd).max() / scale < 1e-7


def test_localizing_agrees_off_the_selfadjoint_locus():
    f = random_series(2, 4, seed=7)
    rng = np.random.default_rng(8)
    X = MatrixTuple(tuple(0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for _ in range(2)))
    H = MatrixTuple(tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)))
    a = derivative(f, X, H, method=BLOCK)
    b = derivative(f, X, H, method=LOCALIZING)
    assert np.abs(a - b).max() < 1e-12 * (1 + np.abs(a).max())


def test_derivative_linear_in_direction():
    f = random_series(2, 4, seed=21)
    X = sample("contraction_tuple", 3, 2, seed=2)
    H1 = sample("hermitian_tuple", 3, 2, seed=3)
    H2 = sample("hermitian_tuple", 3, 2, seed=4)
    combo = MatrixTuple(tuple(0.3 * a - 1.7 * b for a, b in zip(H1.mats, H2.mats)))
    lhs = derivative(f, X, combo)
    rhs = 0.3 * derivative(f, X, H1) - 1.7 * derivative(f, X, H2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_derivative_selfadjoint_for_real_free(halfres_series):
    X = sample("hermitian_tuple", 3, 1, seed=5)
    X = MatrixTuple((0.4 * X.mats[0] / X.max_norm(),))
    H = sample("psd_direction", 3, 1, seed=6)
    D = derivative(halfres_series, X, H)
    assert np.abs(D - D.conj().T).max() < 1e-12


def test_richardson_tightens_fd(halfres_series):
    X, H = scalar(0.5), scalar(1.0)
    exact = derivative(halfres_series, X, H, method=BLOCK)
    plain = derivative(halfres_series, X, H, method=FD)
    refined = derivative(halfres_series, X, H, method=FD, richardson=True)
    assert abs(refined[0, 0] - exact[0, 0]) <= abs(plain[0, 0] - exact[0, 0])


def test_fd_is_the_central_difference_of_two_evaluations(x3_series, halfres_series, d2res_series):
    # the fd route folds f(X +- tH) without building the shifted tuples or
    # their tail bounds; its value is the old formula's, bit for bit
    sparse = FreeSeries(
        d=2,
        degree=6,
        coeffs={(): 0.25, (2,): 0.5, (2, 1): 1.0, (1, 2, 2): -1.0, (1, 2, 1, 2): 1.0, (1, 1, 2, 1): 1.0, (2, 2, 1, 2, 1, 1): -0.5},
    )
    rng = np.random.default_rng(41)
    for f in (x3_series, halfres_series, d2res_series, sparse):
        for n in (1, 3):
            X, H = (MatrixTuple(0.2 * (rng.standard_normal((f.d, n, n)) + 1j * rng.standard_normal((f.d, n, n)))) for _ in range(2))

            def central(t):
                plus = eval_series(f, MatrixTuple(X.mats + t * H.mats)).value
                minus = eval_series(f, MatrixTuple(X.mats - t * H.mats)).value
                return (plus - minus) / (2 * t)

            assert np.array_equal(derivative(f, X, H, method=FD), central(FD_STEP))
            refined = (4 * central(FD_STEP / 2) - central(FD_STEP)) / 3
            assert np.array_equal(derivative(f, X, H, method=FD, richardson=True), refined)


def test_derivative_validation_errors(x3_series):
    X = sample("hermitian_tuple", 2, 1, seed=0)
    H2 = sample("hermitian_tuple", 2, 2, seed=0)
    H3 = sample("hermitian_tuple", 3, 1, seed=0)
    with pytest.raises(ValueError, match="mismatched lengths"):
        derivative(x3_series, X, H2)
    with pytest.raises(ValueError, match="mismatched sizes"):
        derivative(x3_series, X, H3)
    with pytest.raises(ValueError, match="unknown method"):
        derivative(x3_series, X, X, method="adjoint")


def test_localizing_warns_outside_small_polydisk(halfres_series):
    X, H = scalar(1.5), scalar(1.0)
    with pytest.warns(UserWarning, match="polydisk"):
        derivative(halfres_series, X, H, method=LOCALIZING)


# ------------------------------------------------------------------ identities


def test_commutator_identity_trivial_for_coordinate():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0}, real_free=True)
    X = sample("hermitian_tuple", 3, 1, seed=1)
    A = sample("hermitian_tuple", 3, 1, seed=2).mats[0]
    rep = check_identity(f, COMMUTATOR, X, A)
    assert rep.passed
    assert rep.residual < 1e-13


def test_identity_suite_seeded():
    for t in range(8):
        d = 1 + t % 2
        f = random_series(d, 4, seed=50 + t)
        X = sample("hermitian_tuple", 2, d, seed=t)
        A = sample("hermitian_tuple", 2, d, seed=t + 40)
        reports = [
            check_identity(f, COMMUTATOR, X, A.mats[0]),
            check_identity(f, DIRECT_SUM_DERIVATIVE, X, sample("hermitian_tuple", 2, d, seed=t + 80)),
            check_identity(f, TENSOR_DERIVATIVE, X, (A, sample("hermitian_tuple", 3, 1, seed=t + 120).mats[0])),
        ]
        for rep in reports:
            assert rep.passed, (t, rep)
            assert rep.residual <= 1e-8


def test_tensor_identity_with_identity_factor(x3_series, ones_pair):
    X, _ = ones_pair
    A = MatrixTuple((np.array([[0.0, 1.0], [1.0, 0.0]]),))
    rep = check_identity(x3_series, TENSOR_DERIVATIVE, X, (A, np.eye(3)))
    assert rep.passed


def test_identity_validation_errors(x3_series, ones_pair):
    X, _ = ones_pair
    with pytest.raises(ValueError, match="unknown identity"):
        check_identity(x3_series, "chain_rule", X, None)
    with pytest.raises(ValueError):
        check_identity(x3_series, COMMUTATOR, X, np.eye(3))
    with pytest.raises(ValueError):
        check_identity(x3_series, DIRECT_SUM_DERIVATIVE, X, np.eye(2))


# ------------------------------------------------------------------ axiom fuzz


def test_symmetry_scan_runs_once_per_series():
    f = random_series(2, 3, seed=4, real_free=True)
    require_real_free(f, "x")
    scan = vars(f)["_symmetry_violations"]
    assert scan == () and validate(f).symmetry_violations is scan
    g = FreeSeries(d=1, degree=2, coeffs={(1,): 1j}, real_free=True)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^x: coefficient symmetry fails at word \[1\] \(gap 2\.000e\+00\)$"):
            require_real_free(g, "x")
    assert validate(g).symmetry_violations is vars(g)["_symmetry_violations"]


def test_series_evaluator_passes_axioms():
    f = random_series(2, 3, seed=17)
    report = axiom_verify(series_evaluator(f), d=2, trials=24, seed=1)
    assert report.passed
    assert report.max_direct_sum < 1e-10
    assert report.max_similarity < 1e-10
    assert report.errors == ()


def test_constant_one_is_a_free_function():
    report = axiom_verify(lambda X: np.eye(X.n), d=1, trials=12, seed=0)
    assert report.passed


def test_entrywise_abs_fails_similarity():
    f = random_series(1, 3, seed=9)
    ev = series_evaluator(f)
    report = axiom_verify(lambda X: np.abs(ev(X)), d=1, trials=24, seed=0)
    assert not report.passed
    assert report.max_similarity > 1e-6


def test_transpose_conjugation_fails_direct_sum():
    # f(X) = X_1 X_2 - X_2 X_1 entrywise-squared respects sizes but not sums
    def ev(X: MatrixTuple) -> np.ndarray:
        M = X.mats[0]
        return M * M  # Hadamard square is not a free function

    report = axiom_verify(ev, d=1, trials=24, seed=3)
    assert not report.passed


def test_axiom_errors_are_recorded_not_raised():
    def ev(X: MatrixTuple) -> np.ndarray:
        if X.n == 2:
            raise RuntimeError("size two refused")
        return np.eye(X.n)

    report = axiom_verify(ev, d=1, trials=9, seed=0)
    assert report.errors
    assert any("size two refused" in e for e in report.errors)
    assert not report.passed

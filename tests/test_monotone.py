import numpy as np
import pytest

from freepick.matcore import DomainError, MatrixTuple, sample
from freepick.monotone import (
    CERTIFIED_PSD,
    REFUTED,
    certify_monotone,
    choi_at,
    hamburger_factor,
    localizing_matrix,
    sample_monotone_test,
)
from freepick.series import FreeSeries, derivative


def scaled_hermitian(n: int, d: int, radius: float, seed: int) -> MatrixTuple:
    base = sample("hermitian_tuple", n, d, seed)
    return MatrixTuple(
        tuple(M * (radius / max(abs(np.linalg.eigvalsh(M)))) for M in base.mats)
    )


# ----------------------------------------------------------- localizing matrix


def test_cube_hankel_fixture(x3_series):
    M = localizing_matrix(x3_series, 1, 2)
    np.testing.assert_array_equal(
        M.real, np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    )
    assert np.abs(M.imag).max() == 0


def test_letter_out_of_range(x3_series):
    with pytest.raises(ValueError, match="letter"):
        localizing_matrix(x3_series, 2, 2)


def test_cube_refuted_with_unit_witness(x3_series):
    cert = certify_monotone(x3_series, 2)
    assert cert.verdict == REFUTED
    assert not cert.certified
    assert cert.coefficient_horizon == 5
    w = cert.witness
    assert w.k == 1
    assert w.min_eig == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.norm(w.vector) == pytest.approx(1.0, abs=1e-12)
    form = w.vector.conj() @ cert.matrices[0] @ w.vector
    assert form.real == pytest.approx(w.min_eig, abs=1e-12)


def test_certify_requires_real_free():
    f = FreeSeries(d=1, degree=2, coeffs={(1, 1): 1.0})
    with pytest.raises(ValueError, match="real_free"):
        certify_monotone(f, 2)


def test_resolvent_certificate_rank_one(halfres_series):
    cert = certify_monotone(halfres_series, 5)
    assert cert.verdict == CERTIFIED_PSD
    assert cert.witness is None
    vals = np.linalg.eigvalsh(cert.matrices[0])
    # outer product of (2^{-(i+1)})_i: top eigenvalue (1 - 4^{-6})/3
    assert vals[-1] == pytest.approx((1 - 0.25**6) / 3, abs=1e-13)
    assert vals[-2] <= 1e-10 * vals[-1]
    assert vals[0] >= -1e-12


def test_two_letter_certificate_rank_one(d2res_series):
    cert = certify_monotone(d2res_series, 3)
    assert cert.certified
    y = (0.6, 0.4)
    gram = 0.25 * sum((0.25 * (0.6**2 + 0.4**2)) ** level for level in range(4))
    for k, M in enumerate(cert.matrices):
        vals = np.linalg.eigvalsh(M)
        assert vals[0] >= -1e-12
        assert vals[-1] == pytest.approx(y[k] * gram, abs=1e-13)
        assert vals[-2] <= 1e-10 * vals[-1]


def test_horizon_overflow_breaks_the_certificate(halfres_series):
    # at L = 6 the entries reach degree 13 where the truncation stores 0,
    # which dents the rank-one Hankel structure into a refutation
    cert = certify_monotone(halfres_series, 6)
    assert cert.verdict == REFUTED
    assert cert.coefficient_horizon == 13
    assert -1e-3 < cert.witness.min_eig < -1e-8


# ----------------------------------------------------------------- hamburger


def test_factor_refuses_refuted_series(x3_series):
    with pytest.raises(DomainError, match="min_eig"):
        hamburger_factor(x3_series, 2)


def test_factor_square_roots_the_matrices(halfres_series):
    model = hamburger_factor(halfres_series, 5)
    F = model.factors[0]
    np.testing.assert_allclose(F, F.conj().T, atol=1e-12)
    np.testing.assert_allclose(F @ F, model.certificate.matrices[0], atol=1e-12)
    assert np.linalg.eigvalsh(F)[0] >= -1e-12


def test_affine_reconstruction_is_exact():
    f = FreeSeries(d=2, degree=1, coeffs={(): 0.3, (1,): 2.0, (2,): 1.0}, real_free=True)
    X = sample("hermitian_tuple", 3, 2, seed=6)
    H = sample("psd_direction", 3, 2, seed=7)
    got = hamburger_factor(f, 3).reconstruct(X, H)
    np.testing.assert_allclose(got, derivative(f, X, H), atol=1e-12)


def test_reconstruction_converges_in_degree(halfres_series):
    X = scaled_hermitian(2, 1, 0.3, seed=3)
    H = sample("psd_direction", 2, 1, seed=4)
    exact = derivative(halfres_series, X, H)
    errs = [
        np.abs(hamburger_factor(halfres_series, L).reconstruct(X, H) - exact).max()
        for L in (2, 4, 5)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5


def test_reconstruction_matches_resolvent_closed_form():
    # for 1/(2-x) the derivative is (2-x)^{-1} H (2-x)^{-1}; a degree-25
    # truncation keeps the L=12 coefficient horizon exactly full
    f = FreeSeries(
        d=1,
        degree=25,
        coeffs={(1,) * n: 2.0 ** (-(n + 1)) for n in range(26)},
        real_free=True,
        decay_rate=2.0,
    )
    X = MatrixTuple((np.array([[0.3]]),))
    H = MatrixTuple((np.array([[1.0]]),))
    got = hamburger_factor(f, 12).reconstruct(X, H)
    assert got[0, 0].real == pytest.approx(1.0 / 1.7**2, abs=1e-6)
    assert abs(got[0, 0].imag) < 1e-12


def test_reconstruction_rejects_mismatched_tuples(d2res_series):
    model = hamburger_factor(d2res_series, 2)
    X = scaled_hermitian(2, 2, 0.2, seed=8)
    one_letter = MatrixTuple((np.eye(2),))
    with pytest.raises(ValueError, match="mismatched lengths"):
        model.reconstruct(X, one_letter)
    with pytest.raises(ValueError, match="mismatched lengths"):
        model.reconstruct(scaled_hermitian(2, 1, 0.2, seed=8), one_letter)
    with pytest.raises(ValueError, match="mismatched sizes"):
        model.reconstruct(X, sample("psd_direction", 3, 2, seed=9))


def test_reconstruction_is_selfadjoint_on_psd_directions(d2res_series):
    X = scaled_hermitian(2, 2, 0.2, seed=8)
    H = sample("psd_direction", 2, 2, seed=9)
    R = hamburger_factor(d2res_series, 3).reconstruct(X, H)
    assert np.abs(R - R.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(R)[0] >= -1e-12


# ---------------------------------------------------------------------- choi


def test_coordinate_series_choi_is_rank_one():
    f = FreeSeries(d=1, degree=1, coeffs={(1,): 1.0}, real_free=True)
    rep = choi_at(f, sample("hermitian_tuple", 3, 1, seed=5))
    coord = rep.coordinates[0]
    assert rep.all_cp
    assert coord.report.min_eig >= -1e-12
    assert len(coord.kraus) == 1
    V = coord.kraus[0]
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)
    assert coord.reconstruction_residual <= 1e-12


def test_cube_choi_at_diagonal_point(x3_series):
    a = np.array([0.3, 0.3 * np.sqrt(2.0)])
    X = MatrixTuple((np.diag(a),))
    rep = choi_at(x3_series, X)
    coord = rep.coordinates[0]
    assert not rep.all_cp
    assert coord.kraus == ()
    assert coord.reconstruction_residual is None
    # at diagonal X the Choi matrix is m_pq = a_p^2 + a_p a_q + a_q^2 on the
    # doubled-diagonal subspace and zero elsewhere
    m = a[:, None] ** 2 + np.outer(a, a) + a[None, :] ** 2
    expected_min = min(np.linalg.eigvalsh(m).min(), 0.0)
    assert coord.report.min_eig == pytest.approx(expected_min, abs=1e-12)
    assert coord.report.min_eig < -1e-3
    built = np.zeros((4, 4))
    for p in range(2):
        for q in range(2):
            E = np.zeros((2, 2))
            E[p, q] = 1.0
            built += m[p, q] * np.kron(E, E)
    np.testing.assert_allclose(coord.choi, built, atol=1e-12)


def test_certified_fixture_choi_is_cp(halfres_series):
    for seed in (0, 31, 62):
        X = scaled_hermitian(3, 1, 0.3, seed)
        rep = choi_at(halfres_series, X)
        assert rep.all_cp
        assert rep.min_eig >= -1e-8
        for coord in rep.coordinates:
            assert coord.reconstruction_residual <= 1e-8
            assert len(coord.kraus) >= 1


def test_two_letter_fixture_choi_is_cp(d2res_series):
    X = scaled_hermitian(3, 2, 0.15, seed=11)
    rep = choi_at(d2res_series, X)
    assert rep.all_cp
    assert rep.min_eig >= -1e-8
    assert all(c.reconstruction_residual <= 1e-8 for c in rep.coordinates)


def test_choi_rejects_mismatched_lengths(d2res_series):
    with pytest.raises(ValueError, match="mismatched lengths"):
        choi_at(d2res_series, scaled_hermitian(2, 1, 0.1, seed=1))


def test_choi_at_size_zero_is_cp(d2res_series):
    rep = choi_at(d2res_series, MatrixTuple(np.zeros((2, 0, 0))))
    assert len(rep.coordinates) == 2
    assert all(c.kraus == () for c in rep.coordinates)
    assert rep.all_cp


def test_choi_domain_gates(halfres_series):
    with pytest.raises(DomainError, match="self-adjoint"):
        choi_at(halfres_series, MatrixTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),)))
    with pytest.raises(DomainError, match="radius"):
        choi_at(halfres_series, MatrixTuple((np.diag([2.5, 0.0]),)))


# -------------------------------------------------------------------- sampling


def test_sampled_monotonicity_clean_for_resolvent(halfres_series):
    rep = sample_monotone_test(halfres_series, 2, trials=50, seed=0)
    assert rep.clean
    assert rep.violations == 0
    assert rep.worst_min_eig >= -1e-9


def test_sampled_monotonicity_catches_cube(x3_series):
    rep = sample_monotone_test(x3_series, 2, trials=50, seed=0)
    assert not rep.clean
    assert rep.violations > 0
    assert rep.worst_min_eig < -1e-3


def test_sampling_requires_real_free():
    f = FreeSeries(d=1, degree=2, coeffs={(1, 1): 1j})
    with pytest.raises(ValueError, match="real_free"):
        sample_monotone_test(f, 2, trials=1)

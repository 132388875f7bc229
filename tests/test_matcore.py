import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import (
    DISK_TO_HALF,
    HALF_TO_DISK,
    AsymmetryError,
    MatrixTuple,
    SingularityError,
    as_complex_matrix,
    cayley,
    direct_sum,
    haar_unitary,
    hermitianize,
    imag_part,
    psd_min_eig,
    sample,
    spectral_norm,
    spectral_norms,
)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
def test_as_complex_matrix_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="^M has non-finite entries$"):
        as_complex_matrix(np.array([[1.0, bad]]), "M")


def test_imag_part_scalar_i():
    assert imag_part(np.array([[1j]]))[0, 0] == pytest.approx(1.0)


def test_imag_part_hermitian_is_zero():
    H = np.array([[2.0, 1 + 1j], [1 - 1j, -1.0]])
    assert np.abs(imag_part(H)).max() < 1e-15


def test_imag_part_upper_triangular():
    M = np.array([[2 + 3j, 1.0], [0.0, 2 + 3j]])
    expected = np.array([[3.0, -0.5j], [0.5j, 3.0]])
    np.testing.assert_allclose(imag_part(M), expected, atol=1e-15)


def test_imag_part_of_adjoint_flips_sign():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(imag_part(M.conj().T), -imag_part(M), atol=1e-15)


def test_psd_counterexample_gap():
    rep = psd_min_eig(np.array([[9.0, 4.0], [4.0, 1.0]]), 1e-9)
    assert not rep.is_psd
    assert rep.min_eig < 0
    # det = 9*1 - 16 = -7, so exactly one negative eigenvalue
    assert np.linalg.det(np.array([[9.0, 4.0], [4.0, 1.0]])) == pytest.approx(-7.0)


def test_psd_identity():
    rep = psd_min_eig(np.eye(3), 1e-9)
    assert rep.is_psd and rep.min_eig == pytest.approx(1.0)


def test_psd_boundary_rank_deficient():
    rep = psd_min_eig(np.diag([1.0, 0.0]), 1e-9)
    assert rep.is_psd
    assert rep.min_eig == pytest.approx(0.0, abs=1e-15)


def test_psd_verdict_monotone_in_tol():
    H = np.diag([1.0, -1e-6])
    loose = psd_min_eig(H, 1e-3)
    tight = psd_min_eig(H, 1e-9)
    assert loose.is_psd and not tight.is_psd


def test_psd_rejects_asymmetric_input():
    with pytest.raises(AsymmetryError):
        psd_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)


def test_matrix_tuple_validation():
    with pytest.raises(ValueError, match=r"^coordinate 2 has shape \(3, 3\), expected \(2, 2\)$"):
        MatrixTuple((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match=r"^coordinate 1 has shape \(2, 3\), expected \(2, 2\)$"):
        MatrixTuple((np.ones((2, 3)),))
    with pytest.raises(ValueError, match=r"^coordinate 1 has non-finite entries$"):
        MatrixTuple((np.array([[np.inf]]),))
    with pytest.raises(ValueError, match=r"^a matrix tuple needs at least one coordinate$"):
        MatrixTuple(())
    with pytest.raises(ValueError, match=r"^coordinate 2 must be 2-dimensional, got shape \(3,\)$"):
        MatrixTuple((np.eye(3), np.ones(3)))


def test_matrix_tuple_copies_the_callers_arrays():
    A = np.array([[1.0, 2j], [0.5, -1.0]])
    X = MatrixTuple((A, np.eye(2)))
    A[0, 0] = 7.0
    assert X.mats[0][0, 0] == 1.0


def test_matrix_tuple_is_one_stack():
    X = MatrixTuple(([[1, 2], [3, 4]], np.eye(2)))
    assert X.mats.shape == (2, 2, 2) and X.mats.dtype == np.complex128
    assert (X.d, X.n, len(tuple(X.mats))) == (2, 2, 2)
    np.testing.assert_array_equal(X.mats[1], np.eye(2))


def test_spectral_norms_equal_la_norm_per_matrix():
    rng = np.random.default_rng(3)
    for shape in ((1, 1, 1), (2, 3, 3), (3, 8, 8), (2, 4, 2, 5)):
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norms = spectral_norms(S)
        assert norms.shape == shape[:-2]
        assert norms.ravel().tolist() == [np.linalg.norm(M, 2) for M in S.reshape(-1, *shape[-2:])]
    assert spectral_norms(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    X = MatrixTuple((np.diag([1.0, -3.0]), 2 * np.eye(2)))
    assert X.max_norm() == 3.0 and MatrixTuple((np.zeros((0, 0)),)).max_norm() == 0.0


def test_matrix_tuple_adjoint_and_selfadjointness():
    X = MatrixTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))
    assert not X.is_selfadjoint()
    assert X.adjoint().mats[0][1, 0] == 1.0
    H = MatrixTuple((np.array([[1.0, 2.0], [2.0, -1.0]]),))
    assert H.is_selfadjoint()


def test_direct_sum_scalars():
    X = MatrixTuple((np.array([[2.0]]),))
    Y = MatrixTuple((np.array([[3.0]]),))
    S = direct_sum(X, Y)
    np.testing.assert_allclose(S.mats[0], np.diag([2.0, 3.0]))


def test_direct_sum_mismatched_d():
    X = MatrixTuple((np.eye(1),))
    Y = MatrixTuple((np.eye(1), np.eye(1)))
    with pytest.raises(ValueError):
        direct_sum(X, Y)


def test_direct_sum_associative_up_to_permutation():
    a, b, c = (MatrixTuple((np.array([[float(k)]]),)) for k in (1, 2, 3))
    left = direct_sum(direct_sum(a, b), c).mats[0]
    right = direct_sum(a, direct_sum(b, c)).mats[0]
    np.testing.assert_allclose(left, right)


def test_cayley_zero_to_i_and_back():
    X = MatrixTuple((np.zeros((1, 1)),))
    Z = cayley(X, DISK_TO_HALF)
    assert Z.mats[0][0, 0] == pytest.approx(1j)
    back = cayley(Z, HALF_TO_DISK)
    assert abs(back.mats[0][0, 0]) < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_cayley_roundtrip_on_contractions(seed):
    X = sample("contraction_tuple", 3, 2, seed)
    back = cayley(cayley(X, DISK_TO_HALF), HALF_TO_DISK)
    for Xi, Bi in zip(X.mats, back.mats):
        assert spectral_norm(Xi - Bi) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_cayley_maps_contractions_into_half_plane(seed):
    X = sample("contraction_tuple", 3, 2, seed)
    Z = cayley(X, DISK_TO_HALF)
    for Zi in Z.mats:
        assert np.linalg.eigvalsh(imag_part(Zi)).min() > 0


@pytest.mark.parametrize("direction", [DISK_TO_HALF, HALF_TO_DISK])
def test_cayley_at_size_zero(direction):
    Z = cayley(MatrixTuple(np.zeros((2, 0, 0))), direction)
    assert Z.mats.shape == (2, 0, 0) and Z.mats.dtype == np.complex128


def test_cayley_singularity_names_coordinate():
    X = MatrixTuple((np.zeros((1, 1)), np.array([[1.0]])))
    with pytest.raises(SingularityError, match="2"):
        cayley(X, DISK_TO_HALF)


def test_haar_unitary_is_unitary_and_seeded():
    U = haar_unitary(5, np.random.default_rng(7))
    assert spectral_norm(U.conj().T @ U - np.eye(5)) < 1e-12
    V = haar_unitary(5, np.random.default_rng(7))
    np.testing.assert_array_equal(U, V)


def test_sample_haar_scalar_has_unit_modulus():
    u = sample("haar_unitary", 1, 1, seed=3)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_sample_pi_point_membership(seed):
    Z = sample("pi_point", 2, 2, seed)
    for Zi in Z.mats:
        assert np.linalg.eigvalsh(imag_part(Zi)).min() >= 0.05 - 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_sample_contraction_radius(seed):
    X = sample("contraction_tuple", 3, 2, seed)
    assert X.max_norm() <= 0.9 + 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_sample_psd_direction_is_psd(seed):
    H = sample("psd_direction", 3, 2, seed)
    for Hi in H.mats:
        assert np.linalg.eigvalsh(hermitianize(Hi)).min() >= -1e-12


def test_sample_hermitian_tuple_is_selfadjoint():
    X = sample("hermitian_tuple", 4, 3, seed=11)
    assert X.is_selfadjoint()


def test_sample_determinism():
    A = sample("pi_point", 3, 2, seed=42)
    B = sample("pi_point", 3, 2, seed=42)
    for Ma, Mb in zip(A.mats, B.mats):
        np.testing.assert_array_equal(Ma, Mb)


def test_sample_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sample("bogus", 2, 1, seed=0)


@settings(max_examples=40)
@given(st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False))
def test_cayley_scalar_halfplane_image(z):
    X = MatrixTuple((np.array([[z]]),))
    Z = cayley(X, DISK_TO_HALF)
    assert Z.mats[0][0, 0].imag > 0

import numpy as np
import pytest

from freepick.herglotz import (
    CAYLEY_FORM,
    FORMS,
    HERGLOTZ_TO_PICK,
    PICK_TO_HERGLOTZ,
    RESOLVENT_FORM,
    HerglotzModel,
    eval_herglotz,
    herglotz_evaluator,
    lurking_unitary_reduce,
    pick_herglotz_bridge,
    schur_cayley,
)
from freepick.jsonio import parse_spec
from freepick.matcore import (
    DomainError,
    MatrixTuple,
    SingularityError,
    haar_unitary,
    sample,
    spectral_norm,
)
from freepick.nevanlinna import RepresentationSpec, representation_evaluator
from test_resolvent_oracles import delta


def scalar_model(u: complex, a: float = 0.0) -> HerglotzModel:
    return HerglotzModel(d=1, m=1, U=np.array([[u]]), v=np.array([1.0]), a=a)


def haar_model(d: int, m: int, seed: int) -> HerglotzModel:
    rng = np.random.default_rng(seed)
    U = haar_unitary(d * m, rng)
    v = rng.standard_normal(d * m) + 1j * rng.standard_normal(d * m)
    return HerglotzModel(d=d, m=m, U=U, v=v / np.linalg.norm(v))


def contraction(d: int, n: int, seed: int) -> MatrixTuple:
    return sample("contraction_tuple", n, d, seed)


# ------------------------------------------------------------------ validation


def test_model_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        HerglotzModel(d=1, m=2, U=np.eye(2) * 2.0, v=np.array([1.0, 0.0]))


def test_model_rejects_nonunit_vector():
    with pytest.raises(ValueError, match="unit vector"):
        HerglotzModel(d=1, m=2, U=np.eye(2), v=np.array([1.0, 1.0]))


def test_model_rejects_wrong_sizes():
    with pytest.raises(ValueError, match="dm x dm"):
        HerglotzModel(d=2, m=2, U=np.eye(3), v=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="length 2"):
        HerglotzModel(d=1, m=2, U=np.eye(2), v=np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        HerglotzModel(d=0, m=2, U=np.eye(0), v=np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_model_rejects_nonfinite_vector(bad):
    # abs(nan - 1) > tol is False, so a NaN used to pass the unit-norm check
    with pytest.raises(ValueError, match="v has non-finite"):
        HerglotzModel(d=1, m=2, U=np.eye(2), v=np.array([bad, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_nonfinite_shift(bad):
    with pytest.raises(ValueError, match="a must be finite"):
        HerglotzModel(d=1, m=1, U=np.eye(1), v=np.array([1.0]), a=bad)


def test_array_holding_objects_compare_by_identity():
    # generated field equality would compare the ndarray fields and raise
    for make in (
        lambda: scalar_model(1j),
        lambda: MatrixTuple((np.eye(2),)),
        lambda: RepresentationSpec(kind=1, a=0.0, m=1, A=np.eye(1), v=np.ones(1), Y=(np.eye(1),)),
    ):
        a, b = make(), make()
        assert a == a and a != b and len({a, b}) == 2


# --------------------------------------------------------------------- delta


def test_delta_is_blockwise_diagonal():
    X = MatrixTuple((np.array([[0.2]]), np.array([[0.5]])))
    np.testing.assert_allclose(delta(X, 1), np.diag([0.2, 0.5]))


def test_delta_repeats_each_coordinate():
    X = MatrixTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),))
    D = delta(X, 2)
    np.testing.assert_allclose(D[:2, :2], X.mats[0])
    np.testing.assert_allclose(D[2:, 2:], X.mats[0])
    assert np.abs(D[:2, 2:]).max() == 0


def test_delta_norm_is_max_coordinate_norm():
    X = contraction(3, 2, seed=5)
    assert spectral_norm(delta(X, 2)) == pytest.approx(X.max_norm(), abs=1e-12)


# ---------------------------------------------------------------- evaluation


def test_scalar_moebius_fixtures():
    X = MatrixTuple((np.array([[0.5]]),))
    plus = scalar_model(1.0)
    minus = scalar_model(-1.0)
    for form in FORMS:
        assert eval_herglotz(plus, X, form)[0, 0] == pytest.approx(3.0)
        assert eval_herglotz(minus, X, form)[0, 0] == pytest.approx(1.0 / 3.0)


def test_scalar_forms_differ_for_complex_unitary():
    X = MatrixTuple((np.array([[0.5]]),))
    model = scalar_model(1j)
    c = eval_herglotz(model, X, CAYLEY_FORM)[0, 0]
    r = eval_herglotz(model, X, RESOLVENT_FORM)[0, 0]
    assert c == pytest.approx((1 + 0.5j) / (1 - 0.5j))
    assert r == pytest.approx((1j + 0.5) / (1j - 0.5))
    assert abs(c - r) > 0.5


def test_center_value_is_identity():
    model = haar_model(2, 3, seed=1)
    X = MatrixTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    for form in FORMS:
        np.testing.assert_allclose(eval_herglotz(model, X, form), np.eye(2), atol=1e-12)


def test_resolvent_shift_enters_imaginary_part():
    model = scalar_model(1.0, a=2.0)
    X = MatrixTuple((np.array([[0.0]]),))
    h = eval_herglotz(model, X, RESOLVENT_FORM)[0, 0]
    assert h == pytest.approx(1.0 - 2.0j)


def test_unknown_form_rejected():
    model = scalar_model(1.0)
    X = MatrixTuple((np.array([[0.0]]),))
    with pytest.raises(ValueError, match="form"):
        eval_herglotz(model, X, "pick")


def test_contraction_gate():
    model = scalar_model(1.0)
    with pytest.raises(DomainError, match="strict contractions"):
        eval_herglotz(model, MatrixTuple((np.array([[1.0]]),)))


@pytest.mark.parametrize("form", FORMS)
def test_eval_at_size_zero(form, fixtures_dir):
    # as eval_series and the derivatives do, an n = 0 tuple gives a 0 x 0 value
    for model in (parse_spec(str(fixtures_dir / "moebius_model.json")), haar_model(2, 2, seed=3)):
        h = eval_herglotz(model, MatrixTuple(np.zeros((model.d, 0, 0))), form)
        assert h.shape == (0, 0) and h.dtype == np.complex128


def test_coordinate_count_gate():
    model = haar_model(2, 1, seed=2)
    with pytest.raises(ValueError, match="coordinates"):
        eval_herglotz(model, MatrixTuple((np.array([[0.1]]),)))


def test_real_part_positive_sampled():
    worst = np.inf
    for seed in range(5):
        model = haar_model(1 + seed % 2, 1 + seed % 3, seed=seed)
        for t in range(5):
            X = contraction(model.d, 1 + t % 3, seed=100 * seed + t)
            for form in FORMS:
                h = eval_herglotz(model, X, form)
                worst = min(worst, np.linalg.eigvalsh((h + h.conj().T) / 2).min())
    assert worst >= -1e-10


# -------------------------------------------------------------------- bridges


def test_constant_pick_function_bridges_to_constant():
    h = pick_herglotz_bridge(lambda Z: 1j * np.eye(Z.n), PICK_TO_HERGLOTZ)
    X = contraction(1, 2, seed=3)
    np.testing.assert_allclose(h(X), np.eye(2), atol=1e-14)


def test_moebius_bridge_recovers_coordinate():
    # h(x) = (1+x)/(1-x) on the disk lifts to f(z) = z on the half-plane
    f = pick_herglotz_bridge(herglotz_evaluator(scalar_model(1.0)), HERGLOTZ_TO_PICK)
    Z = MatrixTuple((np.array([[2j]]),))
    assert f(Z)[0, 0] == pytest.approx(2j, abs=1e-12)
    Z2 = MatrixTuple((np.array([[0.7 + 1.3j]]),))
    assert f(Z2)[0, 0] == pytest.approx(0.7 + 1.3j, abs=1e-12)


def test_bridge_round_trip():
    spec = RepresentationSpec(
        kind=1,
        a=0.0,
        m=2,
        A=np.diag([1.0, -1.0]),
        v=np.array([0.6, 0.8]),
        Y=(np.diag([0.5, 0.25]), np.diag([0.5, 0.75])),
    )
    f = representation_evaluator(spec)
    back = pick_herglotz_bridge(
        pick_herglotz_bridge(f, PICK_TO_HERGLOTZ), HERGLOTZ_TO_PICK
    )
    for seed in range(4):
        Z = sample("pi_point", 2, 2, seed=seed)
        np.testing.assert_allclose(back(Z), f(Z), atol=1e-9)


def test_bridge_direction_validated():
    with pytest.raises(ValueError, match="direction"):
        pick_herglotz_bridge(lambda Z: Z, "sideways")


# ---------------------------------------------------------------------- schur


def test_schur_of_identity_vanishes():
    phi = schur_cayley(lambda X: np.eye(X.n))
    X = contraction(1, 3, seed=4)
    np.testing.assert_allclose(phi(X), np.zeros((3, 3)), atol=1e-14)


def test_schur_of_scalar_moebius_is_coordinate():
    phi = schur_cayley(herglotz_evaluator(scalar_model(1.0)))
    X = MatrixTuple((np.array([[0.3]]),))
    assert phi(X)[0, 0] == pytest.approx(0.3, abs=1e-13)


def test_schur_contractive_sampled():
    for seed in range(4):
        model = haar_model(2, 2, seed=10 + seed)
        phi = schur_cayley(herglotz_evaluator(model))
        for t in range(4):
            X = contraction(2, 2, seed=40 * seed + t)
            assert spectral_norm(phi(X)) <= 1 + 1e-9


# ------------------------------------------------------------------- lurking


def test_lurking_reduction_scalar_fixture():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = lurking_unitary_reduce(W, 1)
    assert U.shape == (1, 1)
    assert U[0, 0] == pytest.approx(-1.0)


def test_lurking_reduction_block_diagonal():
    # decoupled blocks: A = u1, B = C = 0, D = u2 reduces to u2
    W = np.diag([np.exp(0.4j), np.exp(-1.1j)])
    U = lurking_unitary_reduce(W, 1)
    assert U[0, 0] == pytest.approx(np.exp(-1.1j))


def test_lurking_preserves_unitarity_sampled():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        size = 3 + seed % 4
        W = haar_unitary(size, rng)
        top = 1 + seed % (size - 1)
        U = lurking_unitary_reduce(W, top)
        q = size - top
        assert U.shape == (q, q)
        assert spectral_norm(U.conj().T @ U - np.eye(q)) <= 1e-9


def test_lurking_rejects_nonisometry():
    with pytest.raises(DomainError, match="isometry"):
        lurking_unitary_reduce(np.eye(2) * 1.1, 1)


def test_lurking_needs_invertible_corner():
    with pytest.raises(SingularityError):
        lurking_unitary_reduce(np.diag([-1.0, 1.0]), 1)


def test_lurking_split_validated():
    with pytest.raises(ValueError, match="top_dim"):
        lurking_unitary_reduce(np.eye(2), 2)
    with pytest.raises(ValueError, match="top_dim"):
        lurking_unitary_reduce(np.eye(2), 0)

import numpy as np
import pytest

from freepick.jsonio import parse_spec
from freepick.matcore import DomainError, MatrixTuple, SingularityError, imag_part, sample
from freepick.nevanlinna import (
    AsymptoticProbe,
    RepresentationSpec,
    SequenceSummary,
    asymptotic_probe,
    classify_type,
    eval_representation,
    pi_sampler,
    pick_positivity_check,
    representation_evaluator,
    scalar_evaluator,
)
from freepick.series import axiom_verify
from test_resolvent_oracles import delta_Y


def scalar_spec(kind: int, alpha: float, a: float = 0.0) -> RepresentationSpec:
    return RepresentationSpec(
        kind=kind, a=a, m=1, A=np.array([[alpha]]), v=np.array([1.0]), Y=(np.eye(1),)
    )


def diag_spec(kind: int, a: float = 0.0) -> RepresentationSpec:
    Y1 = np.diag([0.2, 0.5, 0.7])
    return RepresentationSpec(
        kind=kind,
        a=a,
        m=3,
        A=np.diag([1.0, 2.0, 3.0]),
        v=np.full(3, 1 / np.sqrt(3.0)),
        Y=(Y1, np.eye(3) - Y1),
    )


def split_spec(a: float = 0.0) -> RepresentationSpec:
    return RepresentationSpec(
        kind=4,
        a=a,
        m=3,
        A=np.array([[0.5, 0.1], [0.1, -0.3]]),
        v=np.array([0.8, 0.36, 0.48]),
        P=(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])),
        dimN=1,
    )


def half_point(z: complex, d: int, n: int = 1) -> MatrixTuple:
    return MatrixTuple(tuple(z * np.eye(n) for _ in range(d)))


# ------------------------------------------------------------------ validation


def test_kind_out_of_range():
    with pytest.raises(ValueError, match="kind"):
        scalar_spec(5, 1.0)


def test_kind1_forces_vanishing_constant():
    with pytest.raises(ValueError, match="a = 0"):
        scalar_spec(1, 1.0, a=0.5)


def test_y_kind_validation_errors():
    with pytest.raises(ValueError, match="positive decomposition"):
        RepresentationSpec(kind=2, a=0.0, m=1, A=np.eye(1), v=[1.0])
    with pytest.raises(ValueError, match="not PSD"):
        RepresentationSpec(kind=2, a=0.0, m=1, A=np.eye(1), v=[1.0], Y=(-np.eye(1),))
    with pytest.raises(ValueError, match="identity"):
        RepresentationSpec(kind=2, a=0.0, m=1, A=np.eye(1), v=[1.0], Y=(0.5 * np.eye(1),))
    with pytest.raises(ValueError, match="Hermitian"):
        RepresentationSpec(
            kind=2, a=0.0, m=2, A=np.array([[0.0, 1.0], [0.0, 0.0]]), v=[1.0, 0.0],
            Y=(np.eye(2),),
        )
    with pytest.raises(ValueError, match="projections"):
        RepresentationSpec(
            kind=2, a=0.0, m=1, A=np.eye(1), v=[1.0], Y=(np.eye(1),), P=(np.eye(1),)
        )
    with pytest.raises(ValueError, match="length-1"):
        RepresentationSpec(kind=2, a=0.0, m=1, A=np.eye(1), v=[1.0, 2.0], Y=(np.eye(1),))


def test_projection_kind_validation_errors():
    P_pair = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="dimN"):
        RepresentationSpec(kind=4, a=0.0, m=2, A=np.eye(1), v=[1.0, 0.0], P=P_pair, dimN=3)
    with pytest.raises(ValueError, match="K block"):
        RepresentationSpec(kind=4, a=0.0, m=2, A=np.eye(2), v=[1.0, 0.0], P=P_pair, dimN=1)
    with pytest.raises(ValueError, match="idempotent"):
        RepresentationSpec(
            kind=4, a=0.0, m=2, A=np.eye(1), v=[1.0, 0.0],
            P=(np.diag([0.5, 0.0]), np.diag([0.5, 1.0])), dimN=1,
        )
    with pytest.raises(ValueError, match="not zero"):
        RepresentationSpec(
            kind=4, a=0.0, m=2, A=np.zeros((0, 0)), v=[1.0, 0.0],
            P=(np.eye(2), np.eye(2)), dimN=2,
        )
    with pytest.raises(ValueError, match="requires projections"):
        RepresentationSpec(kind=4, a=0.0, m=2, A=np.eye(1), v=[1.0, 0.0], dimN=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_nonfinite_matrices(bad):
    A = np.diag([1.0, bad])
    with pytest.raises(ValueError, match="^A has non-finite"):
        RepresentationSpec(kind=2, a=0.0, m=2, A=A, v=[1.0, 0.0], Y=(np.eye(2),))
    Y2 = np.diag([0.0, bad])
    with pytest.raises(ValueError, match="^Y_2 has non-finite"):
        RepresentationSpec(kind=2, a=0.0, m=2, A=np.eye(2), v=[1.0, 0.0], Y=(np.eye(2), Y2))
    P1 = np.diag([bad, 0.0])
    with pytest.raises(ValueError, match="^P_1 has non-finite"):
        RepresentationSpec(
            kind=4, a=0.0, m=2, A=np.eye(1), v=[1.0, 0.0], P=(P1, np.diag([0.0, 1.0])), dimN=1
        )


@pytest.mark.parametrize("kind", [2, 3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_nonfinite_constant(kind, bad):
    with pytest.raises(ValueError, match="a must be finite"):
        if kind == 4:
            split_spec(a=bad)
        else:
            diag_spec(kind, a=bad)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_y_kinds_reject_dimN(kind):
    with pytest.raises(ValueError, match="dimN"):
        RepresentationSpec(kind=kind, a=0.0, m=1, A=np.eye(1), v=[1.0], Y=(np.eye(1),), dimN=0)


def test_ill_conditioned_kind3_constant_is_refused():
    # I - iA has singular values sqrt(1 + lambda^2): condition number about 1e13
    spec = RepresentationSpec(kind=3, a=0.0, m=2, A=np.diag([0.0, 1e13]), v=[0.6, 0.8], Y=(np.eye(2),))
    with pytest.raises(SingularityError, match=r"^kind-3 constant I - iA has condition number 1\.000e\+13 > 1e\+12$"):
        eval_representation(spec, half_point(1j, 1))


def test_spec_shape_properties():
    spec = diag_spec(1)
    assert spec.d == 2
    assert len(spec.decomposition) == 2
    split = split_spec()
    assert split.d == 2


# ----------------------------------------------------------------- delta and h


def test_delta_combines_coordinates():
    spec = RepresentationSpec(
        kind=2, a=0.0, m=1, A=np.zeros((1, 1)), v=[1.0],
        Y=(np.array([[0.3]]), np.array([[0.7]])),
    )
    Z = MatrixTuple((np.array([[2.0j]]), np.array([[4.0j]])))
    np.testing.assert_allclose(delta_Y(spec, Z), np.array([[0.3 * 2j + 0.7 * 4j]]))


def test_delta_coordinate_mismatch():
    spec = diag_spec(1)
    with pytest.raises(ValueError, match="coordinates"):
        delta_Y(spec, half_point(1j, 3))


def test_delta_shape():
    spec = diag_spec(1)
    assert delta_Y(spec, half_point(1j, 2, n=2)).shape == (6, 6)


def test_scalar_resolvent_worked_value():
    h = scalar_evaluator(scalar_spec(1, 2.0))
    assert h(1j) == pytest.approx((2 + 1j) / 5)


def test_constant_shift_between_kinds():
    h1 = scalar_evaluator(scalar_spec(1, 2.0))
    h2 = scalar_evaluator(scalar_spec(2, 2.0, a=5.0))
    assert h2(1j) == pytest.approx(h1(1j) + 5.0)


def test_twisted_scalar_formula():
    # m = 1 reduces the twisted resolvent to (1 + alpha z)/(alpha - z)
    h = scalar_evaluator(scalar_spec(3, 2.0, a=0.5))
    assert h(1j) == pytest.approx(0.5 + 1j)
    z = 0.7 + 0.9j
    assert h(z) == pytest.approx(0.5 + (1 + 2 * z) / (2 - z))


def test_pure_top_block_is_linear():
    spec = RepresentationSpec(
        kind=4, a=0.25, m=1, A=np.zeros((0, 0)), v=[1.0], P=(np.eye(1),), dimN=1
    )
    h = scalar_evaluator(spec)
    assert h(4j) == pytest.approx(0.25 + 4j)
    assert h(1.5 + 2j) == pytest.approx(0.25 + 1.5 + 2j)


def test_split_spec_matches_blockwise_formula():
    spec = split_spec(a=0.3)
    h = scalar_evaluator(spec)
    vN, vK = spec.v[:1], spec.v[1:]
    A = spec.A

    def direct(z: complex) -> complex:
        B = np.eye(2) - 1j * A
        inner = B @ np.linalg.solve(A - z * np.eye(2), (z * A + np.eye(2)) @ np.linalg.solve(B, vK))
        return 0.3 + z * float(vN.real @ vN.real) + complex(vK.conj() @ inner)

    for z in (1j, 2j, 0.4 + 1.1j, -0.8 + 0.2j):
        assert h(z) == pytest.approx(direct(z), rel=1e-12)


def test_matrix_point_diagonal_consistency():
    spec = diag_spec(1)
    z = 0.3 + 1.2j
    H = eval_representation(spec, half_point(z, 2, n=3))
    h = scalar_evaluator(spec)(z)
    np.testing.assert_allclose(H, h * np.eye(3), atol=1e-12)


def test_imaginary_part_is_psd_at_a_point():
    spec = split_spec()
    Z = sample("pi_point", 3, 2, seed=4)
    H = eval_representation(spec, Z)
    assert np.linalg.eigvalsh(imag_part(H)).min() > -1e-12


def test_half_plane_gate():
    spec = diag_spec(1)
    with pytest.raises(DomainError, match="half-plane"):
        eval_representation(spec, half_point(1.0 + 0j, 2))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_eval_at_size_zero(kind, fixtures_dir):
    # as eval_series and the derivatives do, an n = 0 tuple gives a 0 x 0 value
    spec = parse_spec(str(fixtures_dir / f"type{kind}_rep.json"))
    h = eval_representation(spec, MatrixTuple(np.zeros((spec.d, 0, 0))))
    assert h.shape == (0, 0) and h.dtype == np.complex128


# ------------------------------------------------------------- classification


def test_probe_grid_is_geometric():
    probe = asymptotic_probe(scalar_evaluator(scalar_spec(1, 2.0)), smax=8.0)
    assert probe.grid == (1.0, 2.0, 4.0, 8.0)


@pytest.mark.parametrize("smax", [float("inf"), float("nan"), 0.5])
def test_probe_needs_a_finite_horizon_of_at_least_one(smax):
    with pytest.raises(ValueError, match="smax must be finite and at least 1"):
        asymptotic_probe(scalar_evaluator(scalar_spec(1, 2.0)), smax=smax)


def test_bounded_resolvent_classifies_first():
    probe = asymptotic_probe(scalar_evaluator(diag_spec(1)))
    verdict = classify_type(probe)
    assert verdict.type == 1
    assert not verdict.inconclusive
    assert probe.scaled_modulus.converged
    assert probe.scaled_modulus.limit == pytest.approx(1.0, abs=1e-3)
    # the weaker criteria hold too; the classifier keeps the lowest
    assert probe.damped_imag.converged
    assert probe.damped_imag.limit == 0.0


def test_constant_shift_classifies_second():
    probe = asymptotic_probe(scalar_evaluator(diag_spec(2, a=1.0)))
    verdict = classify_type(probe)
    assert verdict.type == 2
    assert probe.scaled_imag.limit == pytest.approx(1.0, abs=1e-3)
    assert not probe.scaled_modulus.converged


def test_twisted_kind_collapses_to_second():
    # with A bounded the twist keeps v inside the domain, so the growth
    # matches type 2: s Im h -> sum |v_k|^2 (1 + lambda_k^2)
    probe = asymptotic_probe(scalar_evaluator(diag_spec(3, a=0.5)))
    verdict = classify_type(probe)
    assert verdict.type == 2
    assert probe.scaled_imag.limit == pytest.approx(17.0 / 3.0, rel=1e-3)


def test_split_spec_classifies_fourth():
    probe = asymptotic_probe(scalar_evaluator(split_spec()))
    verdict = classify_type(probe)
    assert verdict.type == 4
    assert not verdict.inconclusive
    assert probe.damped_imag.converged
    assert probe.damped_imag.limit == pytest.approx(0.64, abs=1e-3)


def test_unsettled_probe_is_flagged():
    wobble = SequenceSummary(values=(1.0, 2.0, 1.0), limit=None, converged=False)
    probe = AsymptoticProbe(
        grid=(1.0, 2.0, 4.0),
        scaled_modulus=wobble,
        scaled_imag=wobble,
        damped_imag=wobble,
    )
    verdict = classify_type(probe)
    assert verdict.type == 4
    assert verdict.inconclusive


# ------------------------------------------------------------------ positivity


def test_pick_positivity_fixture_specs():
    for spec in (diag_spec(1), diag_spec(2, a=1.0), diag_spec(3, a=0.5), split_spec()):
        report = pick_positivity_check(spec, samples=30, seed=0)
        assert report.passed, spec.kind
        assert report.min_imag_eig >= -1e-9
        assert report.levels == (1, 2, 3)


def test_pick_positivity_needs_levels():
    with pytest.raises(ValueError, match="levels"):
        pick_positivity_check(diag_spec(1), samples=3, levels=())


def test_pick_positivity_deterministic():
    a = pick_positivity_check(diag_spec(1), samples=12, seed=7)
    b = pick_positivity_check(diag_spec(1), samples=12, seed=7)
    assert a.min_imag_eig == b.min_imag_eig


def test_representation_satisfies_free_axioms():
    spec = diag_spec(1)
    report = axiom_verify(
        representation_evaluator(spec), d=2, trials=21, seed=2, sampler=pi_sampler(2)
    )
    assert report.passed
    assert report.max_direct_sum <= 1e-9
    assert report.max_similarity <= 1e-9

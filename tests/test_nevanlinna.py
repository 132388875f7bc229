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
from test_fuzzer_oracles import counting_batches
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


Y_BASE = dict(
    kind=2, a=0.0, m=2, A=np.diag([1.0, 2.0]), v=[1.0, 0.0],
    Y=(np.diag([0.3, 0.6]), np.diag([0.7, 0.4])),
)
P_BASE = dict(
    kind=4, a=0.0, m=3, A=np.array([[0.5, 0.1], [0.1, -0.3]]), v=[0.8, 0.36, 0.48],
    P=(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])), dimN=1,
)
NOT_HERMITIAN_2 = np.array([[1.0, 1.0], [0.0, 2.0]])
NOT_PSD_Y = (np.diag([-0.1, 0.6]), np.diag([1.1, 0.4]))
REJECTIONS = [
    # fields shared by every kind
    (Y_BASE, dict(kind=5), "kind must be 1..4, got 5", "kind-range"),
    (Y_BASE, dict(a=np.nan), "a must be finite, got nan", "a-nonfinite"),
    (Y_BASE, dict(v=[1.0, 0.0, 0.0]), "v must be a length-2 vector, got shape (3,)", "v-length"),
    (Y_BASE, dict(v=[np.inf, 0.0]), "v has non-finite entries", "v-nonfinite"),
    (Y_BASE, dict(kind=1, a=0.5), "kind 1 requires a = 0", "kind1-constant"),
    # kinds 1-3, one fault each
    (Y_BASE, dict(Y=None), "kind 2 requires a positive decomposition Y", "y-missing"),
    (Y_BASE, dict(kind=3, Y=None), "kind 3 requires a positive decomposition Y", "y-missing-kind3"),
    (Y_BASE, dict(P=(np.eye(2),)), "Y-kinds do not take projections P", "y-forbids-P"),
    (Y_BASE, dict(dimN=0), "Y-kinds do not take dimN", "y-forbids-dimN"),
    (Y_BASE, dict(A=np.diag([1.0, np.nan])), "A has non-finite entries", "y-A-nonfinite"),
    (Y_BASE, dict(Y=(np.eye(2), np.diag([0.0, np.inf]))), "Y_2 has non-finite entries", "y-part-nonfinite"),
    (Y_BASE, dict(A=np.eye(3)), "A must be 2x2, got (3, 3)", "y-A-shape"),
    (Y_BASE, dict(A=NOT_HERMITIAN_2), "A is not Hermitian within 1e-10", "y-A-hermitian"),
    (Y_BASE, dict(Y=(np.eye(3), np.zeros((2, 2)))), "Y_1 must be 2x2, got (3, 3)", "y-part-shape"),
    (
        Y_BASE, dict(Y=(np.diag([0.3, 0.6]), np.array([[0.7, 0.1], [0.0, 0.4]]))),
        "Y_2 is not Hermitian within 1e-10", "y-part-hermitian",
    ),
    (Y_BASE, dict(Y=NOT_PSD_Y), "Y_1 is not PSD within 1e-10", "y-part-psd"),
    (Y_BASE, dict(Y=(np.diag([0.3, 0.6]), np.diag([0.7, 0.5]))), "sum of Y_i differs from the identity", "y-sum"),
    # kind 4, one fault each
    (P_BASE, dict(P=None), "kind 4 requires projections P and dimN", "p-missing-P"),
    (P_BASE, dict(dimN=None), "kind 4 requires projections P and dimN", "p-missing-dimN"),
    (P_BASE, dict(Y=(np.eye(3),)), "kind 4 does not take a positive decomposition Y", "p-forbids-Y"),
    (P_BASE, dict(dimN=4), "dimN must lie in 0..3, got 4", "p-dimN-high"),
    (P_BASE, dict(dimN=-1), "dimN must lie in 0..3, got -1", "p-dimN-negative"),
    (P_BASE, dict(A=np.diag([np.inf, 1.0])), "A has non-finite entries", "p-A-nonfinite"),
    (P_BASE, dict(P=(np.diag([np.nan, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]))), "P_1 has non-finite entries", "p-part-nonfinite"),
    (P_BASE, dict(A=np.eye(3)), "A must act on the K block alone (2x2), got (3, 3)", "p-A-shape"),
    (P_BASE, dict(A=NOT_HERMITIAN_2), "A is not Hermitian within 1e-10", "p-A-hermitian"),
    (P_BASE, dict(P=(np.diag([1.0, 1.0, 0.0]), np.eye(2))), "P_2 must be 3x3, got (2, 2)", "p-part-shape"),
    (
        P_BASE, dict(P=(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.diag([0.0, 0.0, 1.0]))),
        "P_1 is not Hermitian within 1e-10", "p-part-hermitian",
    ),
    (
        P_BASE, dict(P=(np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 0.5, 1.0]))),
        "P_1 is not idempotent within 1e-10", "p-part-idempotent",
    ),
    (
        P_BASE, dict(P=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 0.0, 1.0]))),
        "P_2 P_3 is not zero", "p-orthogonal",
    ),
    (P_BASE, dict(P=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0]))), "sum of P_i differs from the identity", "p-sum"),
    # two faults: the earlier check names the first
    (Y_BASE, dict(A=np.diag([np.nan, 1.0]), Y=None), "A has non-finite entries", "A-nonfinite+y-missing"),
    (Y_BASE, dict(Y=None, P=(np.eye(2),)), "kind 2 requires a positive decomposition Y", "y-missing+forbids-P"),
    (Y_BASE, dict(Y=(NOT_PSD_Y[0], np.eye(3))), "Y_1 is not PSD within 1e-10", "y1-psd+y2-shape"),
    (Y_BASE, dict(Y=(np.eye(3), -np.eye(2))), "Y_1 must be 2x2, got (3, 3)", "y1-shape+y2-psd"),
    (
        Y_BASE, dict(Y=(np.array([[-1.0, 1.0], [0.0, 0.0]]), np.eye(2))),
        "Y_1 is not Hermitian within 1e-10", "y1-hermitian+psd",
    ),
    (Y_BASE, dict(Y=(NOT_PSD_Y[0], np.diag([np.nan, 0.4]))), "Y_2 has non-finite entries", "y1-psd+y2-nonfinite"),
    (Y_BASE, dict(A=NOT_HERMITIAN_2, Y=(np.eye(3), np.eye(2))), "A is not Hermitian within 1e-10", "A-hermitian+y1-shape"),
    (Y_BASE, dict(A=np.eye(3), Y=(np.eye(2), np.diag([0.0, np.inf]))), "Y_2 has non-finite entries", "A-shape+y2-nonfinite"),
    (P_BASE, dict(P=None, Y=(np.eye(3),)), "kind 4 requires projections P and dimN", "p-missing+forbids-Y"),
    (
        P_BASE, dict(dimN=4, P=(np.diag([np.nan, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]))),
        "dimN must lie in 0..3, got 4", "dimN-range+p1-nonfinite",
    ),
    (
        P_BASE, dict(A=np.eye(3), P=(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, np.inf]))),
        "P_2 has non-finite entries", "A-shape+p2-nonfinite",
    ),
    (
        P_BASE, dict(P=(np.eye(2), np.diag([0.0, 0.5, 1.0]))),
        "P_1 must be 3x3, got (2, 2)", "p1-shape+p2-idempotent",
    ),
    (
        P_BASE, dict(P=(np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 1.0]))),
        "P_1 is not idempotent within 1e-10", "p1-idempotent+p1p2-orthogonal",
    ),
    (
        P_BASE, dict(P=(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]))),
        "P_1 P_2 is not zero", "p1p2-orthogonal+sum",
    ),
]


@pytest.mark.parametrize("base", [Y_BASE, P_BASE], ids=["Y", "P"])
def test_rejection_table_bases_are_valid(base):
    RepresentationSpec(**base)


@pytest.mark.parametrize(
    ("base", "change", "message"), [pytest.param(*case[:3], id=case[3]) for case in REJECTIONS]
)
def test_spec_rejection_messages(base, change, message):
    # the full message of the first failing check, in the order the checks run
    with pytest.raises(ValueError) as info:
        RepresentationSpec(**{**base, **change})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fixture", ["type2_rep", "type3_rep", "type4_rep", None], ids=["type2", "type3", "type4", "type4-dimN0"]
)
def test_pencil_constants_match_formulas_bit_for_bit(fixture, fixtures_dir):
    # (A_0, l, r, C, G) with L(Z) = A_0 (x) I - sum C_i (x) Z_i and R(Z) = r (x) I + sum G_i (x) Z_i;
    # the spec holds C and G as one stack [C | G], and kinds 1 and 2 have no G column
    if fixture is None:
        A = np.array([[0.5, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.7]])
        spec = RepresentationSpec(**dict(P_BASE, A=A, dimN=0))
    else:
        spec = parse_spec(str(fixtures_dir / f"{fixture}.json"))
    m, A, v = spec.m, spec.A, spec.v
    stack = np.array(spec.decomposition)
    if spec.kind == 2:
        expected = (A, v.conj().reshape(1, -1), v.reshape(-1, 1), stack, None)
    elif spec.kind == 3:
        B = np.eye(m) - 1j * A
        w = np.linalg.solve(B, v)
        expected = (A, (v.conj() @ B).reshape(1, -1), w.reshape(-1, 1), stack, (stack @ (A @ w))[..., None])
    else:
        nN = spec.dimN
        T = np.zeros((m, m), dtype=np.complex128)
        T[:nN, :nN] = -1j * np.eye(nN)
        T[nN:, nN:] = np.eye(m - nN) - 1j * A
        D1 = np.zeros((m, m), dtype=np.complex128)
        D1[:nN, :nN] = np.eye(nN)
        D1[nN:, nN:] = A
        EK = np.zeros((m, m), dtype=np.complex128)
        EK[nN:, nN:] = np.eye(m - nN)
        w = np.linalg.solve(T, v)
        expected = (D1, (v.conj() @ T).reshape(1, -1), (EK @ w).reshape(-1, 1), stack @ EK, (stack @ (D1 @ w))[..., None])
    A0, l, r, CG = spec.pencil
    assert spec.pencil_constants == (A0, l, r) and CG.shape[:2] == (spec.d, m) and CG.shape[2] in (m, m + 1)
    got = (A0, l, r, CG[..., :m], CG[..., m:] if CG.shape[2] > m else None)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
        else:
            assert g.dtype == np.complex128 and g.shape == e.shape and np.array_equal(g, e)


def closed_form(a: float, lam, weights, v, z, nN: int) -> complex:
    """h at a scalar point z of a diagonal representation, in plain complex arithmetic.

    Coordinate j of C^m sees zeta_j = sum_i y_ij z_i. The N block (the first
    nN coordinates) contributes |v_j|^2 zeta_j, and the K block, where
    A = diag(lam), contributes |v_j|^2 (1 + zeta_j lam_j) / (lam_j - zeta_j).
    """
    zeta = [sum(y * zi for y, zi in zip(row, z)) for row in weights]
    h = complex(a)
    for j, vj in enumerate(v):
        if j < nN:
            h += abs(vj) ** 2 * zeta[j]
        else:
            lj = lam[j - nN]
            h += abs(vj) ** 2 * (1 + zeta[j] * lj) / (lj - zeta[j])
    return h


@pytest.mark.parametrize("kind", [3, 4])
@pytest.mark.parametrize("norm", [1.0, 1e2, 1e4, 1e6, 1e9])
def test_kinds_3_and_4_match_the_diagonal_closed_form(kind, norm):
    # rewriting kind 3 as kind 2 with (a - v*Av, (I + iA) v) cancels terms of size ||A||:
    # 1.3e-14 relative at ||A|| = 1e2 and 5.0e-8 at 1e9 on these specs, past the tolerance here
    lam = (norm, -norm / 3, 0.5)
    if kind == 3:
        weights = ((0.3, 0.7), (1.0, 0.0), (0.0, 1.0))
        v = (0.6, 0.48j, 0.64)
        spec = RepresentationSpec(kind=3, a=0.25, m=3, A=np.diag(lam), v=v, Y=tuple(map(np.diag, zip(*weights))))
    else:  # coordinate projections, the N block is coordinate 1 of C^4
        weights = ((1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0))
        v = (0.5, 0.5j, -0.5, 0.5)
        spec = RepresentationSpec(kind=4, a=0.25, m=4, A=np.diag(lam), v=v, P=tuple(map(np.diag, zip(*weights))), dimN=1)
    for z in ((0.3 + 0.9j, -1.2 + 0.4j), (2.0 + 0.01j, 0.5 + 3.0j), (-0.7 + 1e-3j, 1e-2 + 1e2j)):
        exact = closed_form(0.25, lam, weights, v, z, kind - 3)
        got = complex(eval_representation(spec, MatrixTuple(np.reshape(z, (2, 1, 1))))[0, 0])
        assert abs(got - exact) <= 1e-14 * abs(exact)


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


def probe_outcome(evaluator, smax: float) -> str:
    """The probe's repr, which prints every float exactly (signed zeros
    included), or the type and text of the error it raised."""
    try:
        return repr(asymptotic_probe(evaluator, smax=smax))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_batched_probe_equals_the_per_point_probe(kind, fixtures_dir):
    spec = parse_spec(str(fixtures_dir / f"type{kind}_rep.json"))
    ev = scalar_evaluator(spec)
    assert hasattr(ev, "batch")
    for smax in (1.0, 3.0, 64.0, 2.0**20, 2.0**40):
        assert probe_outcome(ev, smax) == probe_outcome(lambda z: ev(z), smax), smax
    # at s = 2^40 the kind-4 resolvent is too ill-conditioned: the batch
    # names its point 40, and the rerun raises the error of that point alone
    if kind == 4:
        with pytest.raises(SingularityError, match=r"^structured resolvent at point 40 has condition number"):
            ev.batch([1j * 2.0**s for s in range(41)])
        assert probe_outcome(ev, 2.0**40).startswith("SingularityError: structured resolvent at point 0 ")


def test_probe_makes_one_batch_call(fixtures_dir):
    spec = parse_spec(str(fixtures_dir / "type4_rep.json"))
    calls = []
    asymptotic_probe(counting_batches(scalar_evaluator(spec), calls), smax=2.0**20)
    assert calls == [21]


def test_probe_batch_failure_raises_the_per_point_error():
    ev = scalar_evaluator(diag_spec(2, a=1.0))

    def evaluator(z):
        if z.imag >= 4.0:
            raise SingularityError(f"refused at {z.imag:g}")
        return ev(z)

    def batch(zs):
        raise RuntimeError("the batch failed")

    evaluator.batch = batch
    with pytest.raises(SingularityError, match=r"^refused at 4$"):
        asymptotic_probe(evaluator, smax=16.0)
    # a batch that fails where every point succeeds gives the per-point probe
    got = asymptotic_probe(evaluator, smax=2.0)
    assert repr(got) == repr(asymptotic_probe(ev, smax=2.0))


def test_probe_keeps_the_error_order_of_plain_callables():
    seen = []

    def evaluator(z):
        seen.append(z.imag)
        return "not a number" if z.imag == 2.0 else 1j

    with pytest.raises(ValueError, match="complex"):
        asymptotic_probe(evaluator, smax=8.0)
    assert seen == [1.0, 2.0]


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

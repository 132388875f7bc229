"""The batched linear-pencil resolvents against the per-point routes they replace.

eval_herglotz (both forms), eval_representation (kinds 1-4) and cayley build
one pencil per point from coefficients and scaffolding cached on the model,
and solve a stack of points through one guarded call. The oracles below are
the per-point kron formulas they replace: delta and delta_Y assembled from
np.kron blocks, every A (x) I_n rebuilt per call, the Cayley transform one
coordinate at a time, and checked_solve guarded by numpy.linalg.cond. Where
the two routes form the same products in the same order they agree to RTOL,
in practice bit for bit, and their errors carry the same messages: kinds 1
and 2 of eval_representation, the resolvent Herglotz form and cayley. Kinds 3
and 4 form L(Z) and R(Z) from coefficient stacks where the oracle multiplies
by delta(Z), and the Cayley Herglotz form forms each entry of its pencil as
one product where the oracle multiplies by U (x) I, so they agree by rounding.

The Herglotz pencils skip the singular values on the strength of
PENCIL_COND_BOUND, so its tests draw models and points on the edge of the
domain, compare la.cond of the library's pencils and the oracle's with it,
and hold the two routes' values within herglotz_bound, an error bound
derived for that domain. A scalar Moebius model near h = 0 checks the Cayley
form against exact rational arithmetic. The norm gates
screen with Frobenius norms; their tests place matrices below, at and above
each threshold and compare the verdicts and messages with the SVD routes
they replace, copied here as oracles.
"""

from fractions import Fraction

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.herglotz import (
    CAYLEY_FORM,
    FORMS,
    PENCIL_COND_BOUND,
    RESOLVENT_FORM,
    UNITARITY_TOL,
    HerglotzModel,
    eval_herglotz,
    eval_herglotz_batch,
)
from freepick.jsonio import parse_spec
from freepick.matcore import (
    COND_CUTOFF,
    CONTRACTION_MARGIN,
    DEFAULT_PSD_TOL,
    DISK_TO_HALF,
    HALF_TO_DISK,
    HERMITICITY_RTOL,
    AsymmetryError,
    DomainError,
    MatrixTuple,
    PsdReport,
    SingularityError,
    as_complex_matrix,
    cayley,
    checked_solve,
    haar_unitary,
    hermitianize,
    imag_part,
    psd_min_eig,
    sample,
    screened_norms,
    spectral_norm,
    spectral_norms,
)
from freepick.nevanlinna import (
    PickPositivityReport,
    RepresentationSpec,
    eval_representation,
    eval_representation_batch,
    pick_positivity_check,
)

RTOL = 1e-15


# ------------------------------------------------------------------- oracles


def oracle_checked_solve(A, B, what="pencil"):
    c = la.cond(A)
    if not np.isfinite(c) or c > COND_CUTOFF:
        raise SingularityError(f"{what} has condition number {c:.3e} > {COND_CUTOFF:g}")
    return la.solve(A, B)


def oracle_is_selfadjoint(X: MatrixTuple) -> bool:
    S = X.mats
    asym = spectral_norms(S - S.conj().swapaxes(1, 2))
    return bool((asym <= HERMITICITY_RTOL * np.maximum(spectral_norms(S), 1.0)).all())


def oracle_psd_min_eig(H, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    A = as_complex_matrix(H)
    norm = spectral_norm(A)
    asym = spectral_norm(A - A.conj().T)
    if asym > HERMITICITY_RTOL * norm:
        raise AsymmetryError(
            f"matrix is not Hermitian: ||H - H*|| = {asym:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} * ||H|| = {HERMITICITY_RTOL * norm:.3e}"
        )
    w = la.eigvalsh(hermitianize(A))
    min_eig = float(w[0]) if w.size else np.inf
    return PsdReport(min_eig=min_eig, is_psd=min_eig >= -tol * (1 + norm))


def delta(X: MatrixTuple, m: int) -> np.ndarray:
    """Block-diagonal sum of the I_m (x) X_i, a dmn x dmn matrix."""
    n = X.n
    size = X.d * m * n
    out = np.zeros((size, size), dtype=np.complex128)
    step = m * n
    for i, Xi in enumerate(X.mats):
        out[i * step : (i + 1) * step, i * step : (i + 1) * step] = np.kron(np.eye(m), Xi)
    return out


def oracle_require_strict_contractions(X: MatrixTuple) -> None:
    for i, Xi in enumerate(X.mats, start=1):
        r = spectral_norm(Xi)
        if r > 1.0 - CONTRACTION_MARGIN:
            raise DomainError(
                f"coordinate {i} has norm {r:.6g}; evaluation needs "
                f"strict contractions (norm <= {1.0 - CONTRACTION_MARGIN})"
            )


def oracle_eval_herglotz(model: HerglotzModel, X: MatrixTuple, form: str = CAYLEY_FORM) -> np.ndarray:
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if X.d != model.d:
        raise ValueError(f"X has {X.d} coordinates, the model has {model.d}")
    oracle_require_strict_contractions(X)
    n = X.n
    eye_n = np.eye(n)
    D = delta(X, model.m)
    v_col = np.kron(model.v.reshape(-1, 1), eye_n)
    v_row = np.kron(model.v.conj().reshape(1, -1), eye_n)
    UI = np.kron(model.U, eye_n)
    if form == CAYLEY_FORM:
        full = np.eye(D.shape[0])
        sol = oracle_checked_solve(full - UI @ D, v_col, "Herglotz Cayley kernel")
        return v_row @ (full + UI @ D) @ sol
    sol = oracle_checked_solve(UI - D, (UI + D) @ v_col, "Herglotz resolvent")
    return -1j * model.a * eye_n + v_row @ sol


def delta_Y(spec: RepresentationSpec, Z: MatrixTuple) -> np.ndarray:
    """sum_i Y_i (x) Z_i (projections for kind 4), an mn x mn matrix."""
    if Z.d != spec.d:
        raise ValueError(f"Z has {Z.d} coordinates, the decomposition has {spec.d}")
    n = Z.n
    acc = np.zeros((spec.m * n, spec.m * n), dtype=np.complex128)
    for Yi, Zi in zip(spec.decomposition, Z.mats):
        acc += np.kron(Yi, Zi)
    return acc


def oracle_require_half_plane(Z: MatrixTuple) -> None:
    for i, Zi in enumerate(Z.mats, start=1):
        if la.eigvalsh(imag_part(Zi)).min() <= 0:
            raise DomainError(f"coordinate {i} is not in the open matricial half-plane")


def oracle_eval_representation(spec: RepresentationSpec, Z: MatrixTuple) -> np.ndarray:
    oracle_require_half_plane(Z)
    n = Z.n
    eye_n = np.eye(n)
    dlt = delta_Y(spec, Z)
    v_col = np.kron(spec.v.reshape(-1, 1), eye_n)
    if spec.kind in (1, 2):
        G = np.kron(spec.A, eye_n) - dlt
        sol = oracle_checked_solve(G, v_col, "structured resolvent")
        core = np.kron(spec.v.conj().reshape(1, -1), eye_n) @ sol
    elif spec.kind == 3:
        B = np.eye(spec.m) - 1j * spec.A
        G = np.kron(spec.A, eye_n) - dlt
        w = la.solve(B, spec.v)
        mid = np.kron(w.reshape(-1, 1), eye_n)
        mid = mid + dlt @ np.kron(spec.A, eye_n) @ mid
        sol = oracle_checked_solve(G, mid, "structured resolvent")
        core = np.kron((spec.v.conj() @ B).reshape(1, -1), eye_n) @ sol
    else:
        nN = spec.dimN
        k = spec.m - nN
        T = np.zeros((spec.m, spec.m), dtype=np.complex128)
        T[:nN, :nN] = -1j * np.eye(nN)
        T[nN:, nN:] = np.eye(k) - 1j * spec.A
        D1 = np.zeros((spec.m, spec.m), dtype=np.complex128)
        D1[:nN, :nN] = np.eye(nN)
        D1[nN:, nN:] = spec.A
        EK = np.zeros((spec.m, spec.m), dtype=np.complex128)
        EK[nN:, nN:] = np.eye(k)
        G = np.kron(D1, eye_n) - dlt @ np.kron(EK, eye_n)
        R = dlt @ np.kron(D1, eye_n) + np.kron(EK, eye_n)
        tv = la.solve(T, spec.v)
        sol = oracle_checked_solve(G, R @ np.kron(tv.reshape(-1, 1), eye_n), "structured resolvent")
        core = np.kron((spec.v.conj() @ T).reshape(1, -1), eye_n) @ sol
    return spec.a * eye_n + core


def oracle_cayley(P: MatrixTuple, direction: str) -> MatrixTuple:
    eye = np.eye(P.n, dtype=np.complex128)
    out = []
    if direction == DISK_TO_HALF:
        for i, X in enumerate(P.mats):
            try:
                out.append(1j * oracle_checked_solve(eye - X, eye + X, what=f"I - X_{i + 1}"))
            except SingularityError as exc:
                raise SingularityError(f"coordinate {i + 1}: {exc}") from None
    elif direction == HALF_TO_DISK:
        for i, Z in enumerate(P.mats):
            try:
                Xi = oracle_checked_solve((Z + 1j * eye).T, (Z - 1j * eye).T, what=f"Z_{i + 1} + iI").T
            except SingularityError as exc:
                raise SingularityError(f"coordinate {i + 1}: {exc}") from None
            out.append(Xi)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return MatrixTuple(tuple(out))


def oracle_pick_positivity_check(spec, samples=100, seed=0, tol=1e-9, levels=(1, 2, 3)):
    worst = float("inf")
    for t in range(samples):
        n = levels[t % len(levels)]
        Z = sample("pi_point", n, spec.d, seed + 104729 * t)
        h = oracle_eval_representation(spec, Z)
        rep = psd_min_eig(imag_part(h), tol)
        worst = min(worst, rep.min_eig)
    return PickPositivityReport(samples=samples, levels=levels, min_imag_eig=worst, tol=tol)


# ------------------------------------------------------------------- helpers


def assert_agrees(new: np.ndarray, old: np.ndarray) -> None:
    assert new.shape == old.shape
    scale = max(float(np.abs(old).max()), 1e-300)
    assert float(np.abs(new - old).max()) <= RTOL * scale


def haar_model(d: int, m: int, seed: int, a: float = 0.0) -> HerglotzModel:
    rng = np.random.default_rng(seed)
    U = haar_unitary(d * m, rng)
    v = rng.standard_normal(d * m) + 1j * rng.standard_normal(d * m)
    return HerglotzModel(d=d, m=m, U=U, v=v / np.linalg.norm(v), a=a)


def random_spec(kind: int, m: int, d: int, seed: int) -> RepresentationSpec:
    """A representation of the kind on C^m with d coordinates."""
    rng = np.random.default_rng(seed)

    def ginibre(k):
        return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    def hermitian(k):
        G = ginibre(k)
        return (G + G.conj().T) / 2

    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v /= np.linalg.norm(v)
    a = 0.0 if kind == 1 else float(rng.standard_normal())
    if kind == 4:
        dimN = int(rng.integers(0, m))
        Q = haar_unitary(m, rng)
        parts = np.array_split(rng.permutation(m), d)
        P = tuple(Q[:, p] @ Q[:, p].conj().T for p in parts)
        return RepresentationSpec(kind=4, a=a, m=m, A=hermitian(m - dimN), v=v, P=P, dimN=dimN)
    B = [ginibre(m) for _ in range(d)]
    B = [b @ b.conj().T for b in B]
    w, V = np.linalg.eigh(sum(B))
    S = (V / np.sqrt(w)) @ V.conj().T
    Y = tuple((S @ b @ S + (S @ b @ S).conj().T) / 2 for b in B)
    return RepresentationSpec(kind=kind, a=a, m=m, A=hermitian(m), v=v, Y=Y)


def fixture_spec(fixtures_dir, kind: int) -> RepresentationSpec:
    return parse_spec(str(fixtures_dir / f"type{kind}_rep.json"))


def error_message(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (AsymmetryError, DomainError, SingularityError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (AsymmetryError, DomainError) as exc:
        return type(exc), str(exc)


def edge_model(d: int, m: int, seed: int, defect: float) -> HerglotzModel:
    """A Haar model whose U has ||U*U - I|| = defect * UNITARITY_TOL, its
    columns stretched and shrunk in turn."""
    model = haar_model(d, m, seed)
    signs = (-1.0) ** np.arange(d * m)
    return HerglotzModel(d=d, m=m, U=model.U * np.sqrt(1 + signs * defect * UNITARITY_TOL), v=model.v)


def edge_point(d: int, n: int, seed: int) -> MatrixTuple:
    """Coordinates of norm 1 - CONTRACTION_MARGIN, each as close to it as the
    contraction gate admits."""
    limit = 1.0 - CONTRACTION_MARGIN
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    X *= (limit / np.maximum(spectral_norms(X), 1e-300))[:, None, None]
    while (over := spectral_norms(X) > limit).any():
        X[over] *= 1 - 2**-52
    return MatrixTuple(X)


def oracle_pencils(model: HerglotzModel, X: MatrixTuple) -> dict:
    """The pencil each form solves, built from the kron formulas."""
    D = delta(X, model.m)
    UI = np.kron(model.U, np.eye(X.n))
    return {CAYLEY_FORM: np.eye(D.shape[0]) - UI @ D, RESOLVENT_FORM: UI - D}


def library_pencil(model: HerglotzModel, X: MatrixTuple, form: str) -> np.ndarray:
    """L(X) = A_0 (x) I - sum_i C_i (x) X_i from the fields of the model's
    pencil for the form: the products and sums eval_batch forms."""
    pencil = model.pencils[form]
    N = pencil.A0.shape[0]
    terms = sum(np.kron(C[:, :N], Xi) for C, Xi in zip(pencil.CG, X.mats))
    return np.kron(pencil.A0, np.eye(X.n)) - terms


U_ROUND = np.finfo(float).eps / 2

#: 2 sqrt(2) gamma_3 / u: both routes' rounding of one complex product and one subtraction
CAYLEY_L_ROUNDING = 6 * np.sqrt(2)

#: a first-order bound of 25 for each route's resolvent form and 25 + 37 for
#: the Cayley forms, with room for the second-order terms; see herglotz_bound
HERGLOTZ_ROUNDING = 80


def herglotz_bound(model: HerglotzModel, X: MatrixTuple, form: str) -> float:
    """How far eval_herglotz and oracle_eval_herglotz may be apart, entrywise:
    c K^2 u (||L^{-1}|| (1 + ||s||) + |a_c|), with c = HERGLOTZ_ROUNDING,
    K = dmn the pencil's size, u = 2^-53, L the form's pencil,
    s = L^{-1} R with R = (I + W)(v (x) I) in the Cayley form,
    W = (U (x) I) delta(X), and (U (x) I + delta(X))(v (x) I) in the
    resolvent form, and a_c the constant term, 0 or -i a. Norms are spectral.
    The bound scales with ||s||, not with h: at an edge point Re h can be
    1e-6 or less while the solution is 1e6.

    To first order in u, after Higham (Accuracy and Stability of Numerical
    Algorithms, ch. 3, 7 and 9). Every entry that either route forms is a sum
    of at most K + 2 complex products, within sqrt(2) gamma_{K+2} <= 5 K u
    of its sum of absolute terms. Those sums have Frobenius norm at most
    2.01 K, since || |U (x) I| || <= ||U (x) I||_F <= sqrt(K) (1 + t),
    ||delta(X)||_F <= sqrt(K) and |v| is a unit vector; so L, R and I + W
    are each formed within 10 K^2 u. LU with partial pivoting solves
    (L + F) s^ = R with ||F|| <= 3 K u || |L^| |U^| ||, taken as at most
    3 K^(3/2) u ||L|| <= 7 K^2 u: this assumes pivot growth of at most
    sqrt(K) on these pencils of norm at most 2 + t, which is what partial
    pivoting shows in practice, not its worst case.
    Hence ||s^ - s|| <= ||L^{-1}|| (17 ||s|| + 10) K^2 u. The product with
    v* (x) I, whose absolute value has norm 1, and the addition of a_c I
    add at most 2 K^(3/2) u ||s|| + 2 K u (|a_c| + ||s||); as
    ||L^{-1}|| >= 1 / ||L|| >= 1 / 2.1, the library and the resolvent oracle
    are each within 25 K^2 u (||L^{-1}|| (1 + ||s||) + |a_c|) of h. The
    Cayley oracle solves for s_o = L^{-1}(v (x) I) and multiplies by
    v* (I + W) on the left. I + W = 2I - L commutes with L, so
    s = 2 s_o - v (x) I and ||s_o|| <= (1 + ||s||) / 2. Its solve is off by
    17 K^2 u ||L^{-1}|| ||s_o||, times ||I + W|| <= 2.01, and the row
    v* (I + W) and the last product by 14 K^2 u and 4.1 K^2 u ||s_o||, in all
    within 37 K^2 u ||L^{-1}|| (1 + ||s||). The routes are apart by at most
    the sum of their bounds, 50 or 62 < c.
    """
    n = X.n
    UI, D = np.kron(model.U, np.eye(n)), delta(X, model.m)
    v_col = np.kron(model.v.reshape(-1, 1), np.eye(n))
    if form == CAYLEY_FORM:
        L, R, a_c = np.eye(len(D)) - UI @ D, (np.eye(len(D)) + UI @ D) @ v_col, 0.0
    else:
        L, R, a_c = UI - D, (UI + D) @ v_col, abs(model.a)
    K = len(D)
    s = la.solve(L, R)
    inverse_norm = 1 / la.svd(L, compute_uv=False)[-1]
    return HERGLOTZ_ROUNDING * K**2 * U_ROUND * (inverse_norm * (1 + la.norm(s, 2)) + a_c)


def assert_pencils_within_bound(model: HerglotzModel, X: MatrixTuple) -> None:
    assert PENCIL_COND_BOUND <= COND_CUTOFF / 1e4
    if X.n == 0:  # an empty pencil: nothing to condition
        for form in FORMS:
            assert eval_herglotz(model, X, form).shape == (0, 0)
        return
    oracle = oracle_pencils(model, X)
    for form in FORMS:
        L = library_pencil(model, X, form)
        assert la.cond(L) <= PENCIL_COND_BOUND and la.cond(oracle[form]) <= PENCIL_COND_BOUND
        if form == RESOLVENT_FORM:
            np.testing.assert_array_equal(L, oracle[form])
        else:
            # each entry is delta_jk - U_jk x_pq, one complex product rounded in either route
            scale = np.eye(len(L)) + np.abs(np.kron(model.U, np.eye(X.n))) @ np.abs(delta(X, model.m))
            assert (np.abs(L - oracle[form]) <= CAYLEY_L_ROUNDING * U_ROUND * scale).all()
        gap = np.abs(eval_herglotz(model, X, form) - oracle_eval_herglotz(model, X, form)).max()
        assert gap <= herglotz_bound(model, X, form)


#: multiples of a threshold at which the screen tests place Frobenius norms
SCREEN_FACTORS = (0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 1.2, 2.0)


def straddling(limit: float, anti: bool = False) -> list:
    """Matrices whose Frobenius norm is each of SCREEN_FACTORS times limit,
    and a 0 x 0 one. At each n = 1..3 there is a random matrix and a multiple
    of I (of iI when anti, which makes every matrix anti-Hermitian), whose
    spectral norm is its Frobenius norm over sqrt(n): at n > 1 and the
    factor 1.2 it is inside limit while the Frobenius norm is outside."""
    rng = np.random.default_rng(11)
    out = [np.zeros((0, 0), dtype=np.complex128)]
    for n in (1, 2, 3):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for base in (G - G.conj().T, 1j * np.eye(n)) if anti else (G, np.eye(n, dtype=np.complex128)):
            out += [base * (f * limit / la.norm(base)) for f in SCREEN_FACTORS]
    return out


# -------------------------------------------------------------- evaluations


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_fixture_representations_match_oracle(fixtures_dir, kind):
    spec = fixture_spec(fixtures_dir, kind)
    for n in (1, 2, 3):
        for seed in range(6):
            Z = sample("pi_point", n, spec.d, seed=100 * n + seed)
            assert_agrees(eval_representation(spec, Z), oracle_eval_representation(spec, Z))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_seeded_representations_match_oracle(kind):
    for seed in range(12):
        d = 1 + seed % 3
        spec = random_spec(kind, m=d + seed % 4, d=d, seed=seed)
        for n in (1, 2, 3):
            Z = sample("pi_point", n, d, seed=7 * seed + n)
            assert_agrees(eval_representation(spec, Z), oracle_eval_representation(spec, Z))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_haar_models_match_oracle(d):
    for m in range(1, 12 // d + 1):
        model = haar_model(d, m, seed=31 * d + m, a=0.25 * m)
        for n in (1, 2, 3):
            X = sample("contraction_tuple", n, d, seed=1000 * d + 10 * m + n)
            for form in FORMS:
                assert_agrees(eval_herglotz(model, X, form), oracle_eval_herglotz(model, X, form))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**31),
    st.sampled_from(FORMS),
)
def test_hypothesis_models_match_oracle(d, m, n, seed, form):
    model = haar_model(d, m, seed)
    X = sample("contraction_tuple", n, d, seed)
    assert_agrees(eval_herglotz(model, X, form), oracle_eval_herglotz(model, X, form))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**31),
)
def test_hypothesis_representations_match_oracle(kind, d, extra, n, seed):
    spec = random_spec(kind, m=d + extra - 1, d=d, seed=seed)
    Z = sample("pi_point", n, d, seed)
    assert_agrees(eval_representation(spec, Z), oracle_eval_representation(spec, Z))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 50.0),
    st.integers(1, 4),
)
def test_hypothesis_scalar_points_match_oracle(fixtures_dir, x, y, kind):
    spec = fixture_spec(fixtures_dir, kind)
    Z = MatrixTuple(tuple(np.array([[complex(x, y)]]) for _ in range(spec.d)))
    assert_agrees(eval_representation(spec, Z), oracle_eval_representation(spec, Z))


@pytest.mark.parametrize("direction", [DISK_TO_HALF, HALF_TO_DISK])
def test_cayley_matches_oracle(direction):
    for seed in range(10):
        d, n = 1 + seed % 3, 1 + seed % 4
        kind = "contraction_tuple" if direction == DISK_TO_HALF else "pi_point"
        P = sample(kind, n, d, seed)
        for new, old in zip(cayley(P, direction).mats, oracle_cayley(P, direction).mats):
            assert_agrees(new, old)


# ---------------------------------------------------------- condition bound


@pytest.mark.parametrize("d", [1, 2, 3])
def test_edge_pencils_within_bound(d):
    for m in range(1, 7):
        for defect in (0.0, 0.99):
            model = edge_model(d, m, seed=17 * d + m, defect=defect)
            for n in (0, 1, 2, 3):
                assert_pencils_within_bound(model, edge_point(d, n, seed=100 * d + 10 * m + n))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 2**31),
    st.sampled_from((0.0, 0.5, 0.99)),
)
def test_hypothesis_edge_pencils_within_bound(d, m, n, seed, defect):
    assert_pencils_within_bound(edge_model(d, m, seed, defect), edge_point(d, n, seed))


@pytest.mark.parametrize("stretch", [1.0, 1 + 0.99 * UNITARITY_TOL, 1 - 0.99 * UNITARITY_TOL])
def test_bound_is_nearly_attained(stretch):
    # U = [sqrt(stretch)] and X = (1 - m) diag(1, -1) put an eigenvalue of
    # (U (x) I) delta(X) at (1 - m) sqrt(stretch), as close to 1 as the domain allows
    model = HerglotzModel(d=1, m=1, U=np.array([[np.sqrt(stretch)]]), v=np.array([1.0]))
    X = MatrixTuple(((1.0 - CONTRACTION_MARGIN) * np.diag([1.0, -1.0]),))
    assert_pencils_within_bound(model, X)
    oracle = oracle_pencils(model, X)
    for form in FORMS:
        assert min(la.cond(oracle[form]), la.cond(library_pencil(model, X, form))) >= 0.99 * PENCIL_COND_BOUND


#: how many times the oracle's error the Cayley form may make near h = 0
MOEBIUS_FACTOR = 2


@pytest.mark.parametrize("u", [1.0, np.sqrt(1 + 0.99 * UNITARITY_TOL), np.sqrt(1 - 0.99 * UNITARITY_TOL), 1 - 2.0**-36])
def test_scalar_moebius_near_zero_loses_no_more_than_oracle(u):
    # d = m = 1 and real u, z give h = (1 + uz) / (1 - uz). Where uz nears -1 within the
    # contraction margin, h falls to about 5e-7 while 1 and uz are of size 1, so a form that
    # adds terms of size 1 there (-v*v + 2 v* (I - U delta)^{-1} v would) loses relative accuracy
    model = HerglotzModel(d=1, m=1, U=np.array([[u]]), v=np.array([1.0]))
    for k in range(24):
        z = -(1.0 - CONTRACTION_MARGIN) * (1 - k * 2.0**-30)
        X = MatrixTuple((np.array([[z]]),))
        uz = Fraction(u) * Fraction(z)
        exact = (1 + uz) / (1 - uz)
        assert 0 < exact < 1e-6
        errors = []
        for h in (eval_herglotz(model, X)[0, 0], oracle_eval_herglotz(model, X)[0, 0]):
            assert h.imag == 0
            errors.append(abs(Fraction(h.real) - exact))
        assert errors[0] <= MOEBIUS_FACTOR * errors[1]


# ------------------------------------------------------------------ batches


def test_herglotz_batch_equals_batches_of_one():
    model = haar_model(2, 3, seed=5, a=0.5)
    points = [sample("contraction_tuple", 2, 2, seed=s) for s in range(7)]
    for form in FORMS:
        batch = eval_herglotz_batch(model, points, form)
        assert batch.shape == (7, 2, 2)
        for h, X in zip(batch, points):
            np.testing.assert_array_equal(h, eval_herglotz_batch(model, [X], form)[0])


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_representation_batch_equals_batches_of_one(fixtures_dir, kind):
    spec = fixture_spec(fixtures_dir, kind)
    points = [sample("pi_point", 3, spec.d, seed=s) for s in range(6)]
    batch = eval_representation_batch(spec, points)
    for h, Z in zip(batch, points):
        np.testing.assert_array_equal(h, eval_representation_batch(spec, [Z])[0])


def test_batch_needs_one_point_shape():
    model = haar_model(1, 2, seed=0)
    points = [sample("contraction_tuple", 1, 1, seed=0), sample("contraction_tuple", 2, 1, seed=1)]
    with pytest.raises(ValueError, match="shape"):
        eval_herglotz_batch(model, points)
    with pytest.raises(ValueError, match="at least one point"):
        eval_herglotz_batch(model, [])


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_pick_positivity_reports_equal_oracle_loop(fixtures_dir, kind):
    spec = fixture_spec(fixtures_dir, kind)
    for samples, seed, levels in ((100, 0, (1, 2, 3)), (17, 5, (2, 1)), (4, 9, (3,)), (5, 1, (1, 2, 1, 3))):
        new = pick_positivity_check(spec, samples=samples, seed=seed, levels=levels)
        old = oracle_pick_positivity_check(spec, samples=samples, seed=seed, levels=levels)
        if kind in (1, 2):
            assert new == old
        else:
            # kinds 3 and 4 form R(Z) from coefficient stacks, the oracle from delta(Z) products, so
            # h moves by rounding (assert_agrees' RTOL of its largest entry) and Im h's eigenvalues
            # by no more than Im h does (Weyl)
            assert (new.samples, new.levels, new.tol) == (old.samples, old.levels, old.tol)
            sizes = (levels[t % len(levels)] for t in range(samples))
            points = (sample("pi_point", n, spec.d, seed + 104729 * t) for t, n in enumerate(sizes))
            scale = max(float(np.abs(oracle_eval_representation(spec, Z)).max()) for Z in points)
            assert abs(new.min_imag_eig - old.min_imag_eig) <= RTOL * scale


# -------------------------------------------------------------------- guard


def diagonal_with_condition(c: float) -> np.ndarray:
    return np.diag([1.0, 1.0 / c]).astype(np.complex128) if np.isfinite(c) else np.diag([1.0, 0.0]).astype(np.complex128)


CONDITIONS = (0.5e12, 1e12, 2e12, np.inf)


#: cond_bound values that prove nothing, so the guard checks the singular values
UNPROVEN = (None, 2 * COND_CUTOFF, np.inf, np.nan)


@pytest.mark.parametrize("c", CONDITIONS)
def test_guard_verdict_matches_la_cond(c):
    A = diagonal_with_condition(c)
    b = np.ones((2, 1))
    cond = la.cond(A)
    for cond_bound in UNPROVEN:
        new = error_message(checked_solve, A, b, cond_bound=cond_bound)
        assert new == error_message(oracle_checked_solve, A, b)
        raised = new is not None
        assert raised == (not np.isfinite(cond) or cond > COND_CUTOFF)
        if not raised:
            np.testing.assert_array_equal(checked_solve(A, b, cond_bound=cond_bound), oracle_checked_solve(A, b))


@pytest.mark.parametrize("cond_bound", [1.0, PENCIL_COND_BOUND, COND_CUTOFF])
def test_proven_bound_returns_la_solve_bits(cond_bound):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    B = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    np.testing.assert_array_equal(checked_solve(A, B, "p", cond_bound), la.solve(A, B))
    np.testing.assert_array_equal(checked_solve(A[0], B, "p", cond_bound), la.solve(A[0], B))
    # the bound is the caller's proof: the guard takes it and checks nothing
    past = diagonal_with_condition(2e12)
    np.testing.assert_array_equal(checked_solve(past, B[:2], "p", cond_bound), la.solve(past, B[:2]))


def test_guard_on_zero_matrix_reports_inf_like_la_cond():
    A = np.zeros((2, 2), dtype=np.complex128)
    b = np.ones((2, 1))
    assert error_message(checked_solve, A, b) == error_message(oracle_checked_solve, A, b)
    assert "inf" in error_message(checked_solve, A, b)[1]


def test_stacked_guard_names_first_point_past_cutoff():
    stack = np.array([diagonal_with_condition(c) for c in (0.5e12, 1e12, 2e12, np.inf)])
    cond = la.cond(stack[2])
    for cond_bound in UNPROVEN:
        with pytest.raises(SingularityError) as exc:
            checked_solve(stack, np.ones((2, 1)), "test pencil", cond_bound)
        assert str(exc.value) == f"test pencil at point 2 has condition number {cond:.3e} > {COND_CUTOFF:g}"
        with pytest.raises(SingularityError, match=r"^third has condition number inf"):
            checked_solve(stack[[0, 3]], np.ones((2, 1)), ["first", "third"], cond_bound)


def test_stacked_guard_solves_every_point():
    stack = np.array([diagonal_with_condition(c) for c in (0.5e12, 1e12, 10.0)])
    b = np.arange(4.0).reshape(2, 2)
    out = checked_solve(stack, b)
    for A, x in zip(stack, out):
        np.testing.assert_array_equal(x, oracle_checked_solve(A, b))


# ----------------------------------------------------------- error messages


@pytest.mark.parametrize("form", FORMS)
def test_contraction_messages_unchanged(form):
    model = haar_model(3, 1, seed=2)
    for bad in range(3):
        mats = [0.1 * np.eye(2) for _ in range(3)]
        mats[bad] = np.array([[0.0, 1.5], [0.0, 0.0]])
        X = MatrixTuple(tuple(mats))
        new = error_message(eval_herglotz, model, X, form)
        assert new is not None
        assert new == error_message(oracle_eval_herglotz, model, X, form)
    for r, rejected in ((1.0 - 0.5 * CONTRACTION_MARGIN, True), (1.0 - 2 * CONTRACTION_MARGIN, False)):
        X = MatrixTuple((0.1 * np.eye(2), np.diag([0.2, r]), 0.1 * np.eye(2)))
        new = error_message(eval_herglotz, model, X, form)
        assert (new is not None) == rejected
        assert new == error_message(oracle_eval_herglotz, model, X, form)
    X = MatrixTuple((0.1 * np.eye(2),))
    assert error_message(eval_herglotz, model, X, form) == error_message(oracle_eval_herglotz, model, X, form)
    assert error_message(eval_herglotz, model, X, "pick") == error_message(oracle_eval_herglotz, model, X, "pick")


@pytest.mark.parametrize("form", FORMS)
def test_contraction_screen_matches_oracle(form):
    limit = 1.0 - CONTRACTION_MARGIN
    model = haar_model(2, 1, seed=3)
    verdicts = set()
    for M in straddling(limit):
        X = MatrixTuple((0.1 * np.eye(len(M)), M))
        new = error_message(eval_herglotz, model, X, form)
        assert new == error_message(oracle_require_strict_contractions, X)
        verdicts.add(new is None)
        norm = screened_norms(M, limit)
        assert (norm <= limit) == (spectral_norm(M) <= limit)
        if norm > limit:
            assert norm == spectral_norm(M)
    assert verdicts == {True, False}


def test_selfadjoint_screen_matches_oracle():
    verdicts = set()
    for c in (0.0, 100.0):
        for A in straddling(HERMITICITY_RTOL * max(c, 1.0), anti=True):
            n = len(A)
            # S - S* is exactly A, and ||S|| is about c
            S = c * np.eye(n) + A / 2
            X = MatrixTuple((np.eye(n), S))
            verdicts.add(X.is_selfadjoint())
            assert X.is_selfadjoint() == oracle_is_selfadjoint(X)
    assert verdicts == {True, False}


def test_psd_asymmetry_screen_matches_oracle():
    verdicts = set()
    for c in (1.0, 100.0):
        for A in straddling(HERMITICITY_RTOL * c, anti=True):
            H = c * np.eye(len(A)) + A / 2
            new = outcome(psd_min_eig, H)
            assert new == outcome(oracle_psd_min_eig, H)
            verdicts.add(isinstance(new, PsdReport))
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", [1, 4])
def test_half_plane_messages_unchanged(fixtures_dir, kind):
    spec = fixture_spec(fixtures_dir, kind)
    for bad in range(2):
        mats = [1j * np.eye(2), 1j * np.eye(2)]
        mats[bad] = np.array([[1j, 0.0], [0.0, -0.5j]])
        Z = MatrixTuple(tuple(mats))
        new = error_message(eval_representation, spec, Z)
        assert new is not None
        assert new == error_message(oracle_eval_representation, spec, Z)
    Z = MatrixTuple((1j * np.eye(2),))
    assert error_message(eval_representation, spec, Z) == error_message(oracle_eval_representation, spec, Z)


def test_batched_domain_errors_name_the_point():
    model = haar_model(1, 2, seed=0)
    points = [MatrixTuple((0.1 * np.eye(1),)), MatrixTuple((np.array([[2.0]]),))]
    with pytest.raises(DomainError, match="^point 1: coordinate 1 has norm 2"):
        eval_herglotz_batch(model, points)


@pytest.mark.parametrize("direction", [DISK_TO_HALF, HALF_TO_DISK])
def test_cayley_singularity_messages_unchanged(direction):
    pole = np.eye(2) if direction == DISK_TO_HALF else -1j * np.eye(2)
    for bad in range(3):
        mats = [0.2 * np.eye(2) + 0.5j * np.eye(2)] * 3
        mats[bad] = pole
        P = MatrixTuple(tuple(mats))
        new = error_message(cayley, P, direction)
        assert new is not None and new[0] is SingularityError
        assert new == error_message(oracle_cayley, P, direction)

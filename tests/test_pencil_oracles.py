"""The pencil contractions against the dense kron and block routes they replace.

The localizing derivative, the Hamburger reconstruction and the Choi matrix
are computed from the monomial stack and the coefficient pencil by
tensordot/einsum contractions. The oracles below are the direct dense
formulas: m_left (B_k (x) H_k) m for the derivative,
m* (F_k (x) I)(I (x) H_k)(F_k (x) I) m for the reconstruction and one block
derivative per matrix unit E_pq for the Choi matrix, each with monomials
from the suffix-sharing word evaluator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import MatrixTuple, sample
from freepick.monotone import HamburgerModel, choi_at, hamburger_factor
from freepick.series import FreeSeries, derivative, localizing_matrix
from freepick.words import enumerate_words, eval_words, involute

RTOL = 1e-12


def kron_localizing_derivative(f: FreeSeries, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    order = enumerate_words(X.d, max(f.degree - 1, 0))
    vals = eval_words(X, order.words)
    m = np.vstack([vals[w] for w in order.words])
    m_left = np.hstack([vals[involute(w)] for w in order.words])
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for k in range(1, f.d + 1):
        B = localizing_matrix(f, k, order.degree)
        acc += m_left @ np.kron(B, H.mats[k - 1]) @ m
    return acc


def kron_reconstruct(model: HamburgerModel, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    order = enumerate_words(X.d, model.degree)
    vals = eval_words(X, order.words)
    m = np.vstack([vals[w] for w in order.words])
    eye_n = np.eye(X.n)
    eye_c = np.eye(len(order))
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for F, Hk in zip(model.factors, H.mats):
        S = np.kron(F, eye_n)
        acc += m.conj().T @ S @ np.kron(eye_c, Hk) @ S @ m
    return acc


def block_choi(f: FreeSeries, X: MatrixTuple, k: int) -> np.ndarray:
    n = X.n
    zero = np.zeros((n, n))
    C = np.zeros((n * n, n * n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            E = np.zeros((n, n))
            E[p, q] = 1.0
            H = MatrixTuple(tuple(E if i == k - 1 else zero for i in range(f.d)))
            C[p * n : (p + 1) * n, q * n : (q + 1) * n] = derivative(f, X, H, method="block")
    return C


def assert_rel_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= RTOL * scale


# ------------------------------------------------------------------ inputs


def random_real_free(d: int, degree: int, rng: np.random.Generator) -> FreeSeries:
    """Dense series with c_{w*} = conj(c_w) and |c_w| <= 2^{-|w|}."""
    coeffs = {}
    for w in enumerate_words(d, degree).words:
        if involute(w) in coeffs:
            coeffs[w] = np.conj(coeffs[involute(w)])
        elif involute(w) == w:
            coeffs[w] = rng.uniform(-1, 1) / 2.0 ** len(w)
        else:
            coeffs[w] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2.0 ** (len(w) + 1)
    return FreeSeries(d=d, degree=degree, coeffs=coeffs, real_free=True)


def hermitian_point(n: int, d: int, radius: float, seed: int) -> MatrixTuple:
    base = sample("hermitian_tuple", n, d, seed)
    return MatrixTuple(tuple(M * (radius / max(np.linalg.norm(M, 2), 1e-30)) for M in base.mats))


def general_tuple(n: int, d: int, rng: np.random.Generator) -> MatrixTuple:
    return MatrixTuple(
        tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d))
    )


def hermitian_factors(d: int, L: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    count = len(enumerate_words(d, L))
    out = []
    for _ in range(d):
        A = rng.standard_normal((count, count)) + 1j * rng.standard_normal((count, count))
        out.append(A @ A.conj().T / count)
    return tuple(out)


def seeded_cases(halfres, d2res):
    rng = np.random.default_rng(2024)
    return [
        (halfres, 5, hermitian_point(3, 1, 0.3, seed=1)),
        (d2res, 3, hermitian_point(3, 2, 0.15, seed=2)),
        (random_real_free(2, 5, rng), 2, hermitian_point(3, 2, 0.4, seed=3)),
        (random_real_free(3, 4, rng), 2, hermitian_point(2, 3, 0.3, seed=4)),
    ]


# ------------------------------------------------------------ seeded checks


def test_localizing_derivative_matches_kron_formula(halfres_series, d2res_series):
    for f, _L, X in seeded_cases(halfres_series, d2res_series):
        for seed in (5, 6):
            H = sample("hermitian_tuple", X.n, X.d, seed)
            got = derivative(f, X, H, method="localizing")
            assert_rel_close(got, kron_localizing_derivative(f, X, H))


def test_localizing_derivative_matches_kron_formula_off_selfadjoint(d2res_series):
    rng = np.random.default_rng(7)
    X = MatrixTuple(tuple(0.1 * M for M in general_tuple(3, 2, rng).mats))
    H = general_tuple(3, 2, rng)
    for f in (d2res_series, random_real_free(2, 5, rng)):
        assert_rel_close(derivative(f, X, H, method="localizing"), kron_localizing_derivative(f, X, H))


def test_reconstruct_matches_kron_formula(halfres_series, d2res_series):
    for f, L, X in seeded_cases(halfres_series, d2res_series)[:2]:
        model = hamburger_factor(f, L)
        H = sample("psd_direction", X.n, X.d, seed=8)
        assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))
    rng = np.random.default_rng(9)
    for d, L in ((2, 3), (3, 2)):
        model = HamburgerModel(degree=L, factors=hermitian_factors(d, L, rng), certificate=None)
        X, H = general_tuple(2, d, rng), general_tuple(2, d, rng)
        assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))


def test_choi_matches_block_derivative_loop(halfres_series, d2res_series):
    for f, _L, X in seeded_cases(halfres_series, d2res_series):
        rep = choi_at(f, X, tol=1e-8)
        for coord in rep.coordinates:
            assert_rel_close(coord.choi, block_choi(f, X, coord.k))


# -------------------------------------------------------- hypothesis checks

shapes = dict(
    d=st.integers(min_value=1, max_value=3),
    L=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_localizing_derivative_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    f = random_real_free(d, L, rng)
    X = MatrixTuple(tuple(0.5 * M for M in general_tuple(n, d, rng).mats))
    H = general_tuple(n, d, rng)
    assert_rel_close(derivative(f, X, H, method="localizing"), kron_localizing_derivative(f, X, H))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_reconstruct_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    model = HamburgerModel(degree=L, factors=hermitian_factors(d, L, rng), certificate=None)
    X = MatrixTuple(tuple(0.5 * M for M in general_tuple(n, d, rng).mats))
    H = general_tuple(n, d, rng)
    assert_rel_close(model.reconstruct(X, H), kron_reconstruct(model, X, H))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_choi_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    f = random_real_free(d, L, rng)
    X = hermitian_point(n, d, 0.5, seed % 2**31)
    rep = choi_at(f, X)
    for coord in rep.coordinates:
        assert_rel_close(coord.choi, block_choi(f, X, coord.k))

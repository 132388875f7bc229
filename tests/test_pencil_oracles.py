"""The pencil and its contractions against the routes they replace.

The localizing derivative, the Hamburger reconstruction and the Choi matrix
are computed from the monomial stack and the coefficient pencil by
tensordot/einsum contractions. The oracles below are the direct dense
formulas: m_left (B_k (x) H_k) m for the derivative,
m* (F_k (x) I)(I (x) H_k)(F_k (x) I) m for the reconstruction and one block
derivative per matrix unit E_pq for the Choi matrix, each with monomials
from the suffix-sharing word evaluator.

The pencil itself is scattered from integer word positions, and validate's
symmetry scan pairs each word with w* through a lookup of every involute in
an index over the stored words. Their oracles are the dict loops they
replace: one coefficient lookup per pencil cell, and a walk over the stored
words that judges each pair {w, w*} once. Both must agree exactly, not to a
tolerance.

pencil_contraction scatters the split list into a staircase of dense
blocks, one per letter and row level, and never builds the count x count
pencil. Its oracle is the route it replaces: the dense pencil of each letter
contracted with the monomial stack by one tensordot, and left gathered from
the stack at the involutes' positions. The two sum the same nonzero terms
in different groupings, so they agree to PENCIL_RTOL rather than exactly,
and so do the localizing derivative and the Choi matrices read from them.

eval_series is a right Horner pass over the suffix trie, one GEMM per letter
per level, and the block derivative carries only the top block row of that
pass at [[X, H], [0, X]]. Below a split depth t the pass builds the whole
depth-t state as one coefficient GEMM C_t S instead of folding the deeper
levels; t = width is the plain pass. They have two oracles. One is the sum
they replace, sum_w c_w X^w with X^w from the suffix-sharing word
evaluator; the two add the terms in different orders, so they agree to
EVAL_RTOL rather than exactly. The other is the earlier layout of the
plain pass: a trie ordered by the suffixes read right to left, one batched
product per level over every node and a gather-add per sibling rank. That
one adds the same terms in the same order as the plain pass, so where the
pass does not split it must agree bit for bit, signed zeros included, and
where it splits it must agree within horner_bound.

The pass itself runs on a stack of points, one stacked GEMM per letter per
level for the whole stack, and eval_series, the block derivative, the fd
route and eval_series_batch all go through it. Its oracle is the plain pass
at one point, planar_horner below, with one 2-D GEMM per letter per level;
each point of the stack must equal it bit for bit where the pass does not
split and within horner_bound where it does, at every split depth. The
split depth depends on the series and the point size only, so each point
of a stack equals the pass at that point alone bit for bit.
"""

import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import MatrixTuple, sample
from freepick.jsonio import parse_series, series_to_json
from freepick.monotone import CERTIFIED_PSD, REFUTED, HamburgerModel, certify_monotone, choi_at, hamburger_factor
from freepick import monotone, series, words
from freepick.series import (
    METHODS,
    FreeSeries,
    SeriesDiagnostics,
    TrieLevel,
    derivative,
    eval_series,
    eval_series_batch,
    localizing_matrix,
    pencil_contraction,
    validate,
)
from freepick.words import WordOrder, enumerate_words, eval_words, involute, word_count

RTOL = 1e-12
EVAL_RTOL = 1e-13
PENCIL_RTOL = 1e-13


def word_sum(f: FreeSeries, X: MatrixTuple) -> np.ndarray:
    vals = eval_words(X, f.coeffs.keys())
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for w, c in f.coeffs.items():
        acc += c * vals[w]
    return acc


class ColexLevel(NamedTuple):
    """One depth of the right-to-left trie: letter is k - 1 per node or one
    int, parent the parent of each sibling run (None when run i belongs to
    node i), first the first node of each run (None when every run is one
    node) and more, per sibling rank j >= 1, (runs with a j-th sibling or
    None for all of them, those siblings)."""

    size: int
    coeff: np.ndarray | None
    letter: np.ndarray | int
    parent: np.ndarray | None
    first: np.ndarray | None
    more: tuple


def colex_trie(f: FreeSeries) -> list[ColexLevel]:
    """The suffix trie with each depth sorted by the suffixes read right to
    left, so parent-major and then by letter."""
    root = f.coeffs.get(())
    levels = [ColexLevel(1, None if root is None else np.array([root]), 0, None, None, ())]
    width = max(map(len, f.coeffs), default=0)
    if width == 0:
        return levels
    letters = words.letter_array(f.coeffs, width)
    order = np.lexsort(letters.T)
    letters = letters[order]
    length = np.count_nonzero(letters, axis=1)
    opens = np.zeros((len(order), width + 1), dtype=bool)
    opens[0] = True
    opens[1:, 1:] = np.logical_or.accumulate(letters[1:, ::-1] != letters[:-1, ::-1], axis=1)
    opens &= length[:, None] >= np.arange(width + 1)
    node_of = np.cumsum(opens, axis=0) - 1
    depth, row = np.nonzero(opens[:, 1:].T)
    depth += 1
    stored = length[row] == depth
    coeff = np.where(stored, f.values[order][row], 0)
    letter = letters[row, width - depth] - 1
    parent = node_of[row, depth - 1]
    starts = np.ones(len(row), dtype=bool)
    starts[1:] = (parent[1:] != parent[:-1]) | (depth[1:] != depth[:-1])
    run = np.cumsum(starts) - 1
    rank = np.arange(len(row)) - np.flatnonzero(starts)[run]
    size = np.bincount(depth)
    offs = np.cumsum(size) - size
    runs = np.bincount(depth[starts]).tolist()
    low = [0] + np.minimum.reduceat(letter, offs[1:]).tolist()
    high = [0] + np.maximum.reduceat(letter, offs[1:]).tolist()
    held = np.bincount(depth[stored], minlength=width + 1).tolist()
    size, offs = [1] + size[1:].tolist(), offs.tolist() + [len(row)]
    for l in range(1, width + 1):
        at = slice(offs[l], offs[l + 1])
        first, more = None, []
        if runs[l] < size[l]:
            first = np.flatnonzero(starts[at])
            for j in range(1, rank[at].max() + 1):
                nodes = np.flatnonzero(rank[at] == j)
                more.append((None if len(nodes) == runs[l] else run[at][nodes] - run[offs[l]], nodes))
        levels.append(
            ColexLevel(
                size[l],
                coeff[at] if held[l] else None,
                low[l] if low[l] == high[l] else letter[at],
                None if runs[l] == size[l - 1] else parent[at][starts[at]],
                first,
                tuple(more),
            )
        )
    return levels


def batched_horner(f: FreeSeries, X: MatrixTuple) -> np.ndarray:
    """f(X) by the right Horner pass over colex_trie: per level one batched
    product U @ X_letter over all nodes, then a gather-add per sibling rank."""

    def add_scalars(U, c):
        if c is not None:
            U.reshape(len(U), -1)[:, :: U.shape[-1] + 1] += c[:, None]

    n = X.n
    mats = np.stack(X.mats)
    trie = colex_trie(f)
    U = np.zeros((trie[-1].size, n, n), dtype=np.complex128)
    for depth in range(len(trie) - 1, 0, -1):
        level = trie[depth]
        add_scalars(U, level.coeff)
        P = U @ mats[level.letter]
        U = P if level.first is None else P[level.first]
        for runs, nodes in level.more:
            if runs is None:
                U += P[nodes]
            else:
                U[runs] += P[nodes]
        if level.parent is not None:
            U, children = np.zeros((trie[depth - 1].size, n, n), dtype=np.complex128), U
            U[level.parent] = children
    add_scalars(U, trie[0].coeff)
    return U[0]


def planar_horner(f: FreeSeries, point: np.ndarray, rows: int) -> np.ndarray:
    """The first rows rows of f at one (d, N, N) point, as a (rows, N) array:
    the Horner pass of series._horner at a single point, with 2-D states."""

    def add_scalars(U, c):
        if c is not None:
            m = len(c)
            U.reshape(m, U.size // m)[:, :: U.shape[1] + 1] += c[:, None]

    trie = f.suffix_trie
    N = point.shape[-1]
    U = np.zeros((trie[-1].size * rows, N), dtype=np.complex128)
    for depth in range(len(trie) - 1, 0, -1):
        level, up = trie[depth], trie[depth - 1].size
        add_scalars(U, level.coeff)
        (k, _, b), *rest = level.blocks
        V = U[: b * rows] @ point[k]
        if b < up:
            P, V = V, np.zeros((up * rows, N), dtype=np.complex128)
            W = V.reshape(up, rows * N)
            W[level.parent[b:]] = -0.0
            W[level.parent[:b]] = P.reshape(b, rows * N)
        for k, a, b in rest:
            P = U[a * rows : b * rows] @ point[k]
            if b - a == up:
                V += P
            else:
                V.reshape(up, rows * N)[level.parent[a:b]] += P.reshape(b - a, rows * N)
        U = V
    add_scalars(U, trie[0].coeff)
    return U


# 4 sqrt(2): twice (the split pass and its oracle) sqrt(2) (complex modulus), see horner_bound
HORNER_ROUNDING = 4 * np.sqrt(2)


def absolute(f: FreeSeries) -> FreeSeries:
    """|f|, the series of the |c_w|."""
    return FreeSeries(d=f.d, degree=f.degree, coeffs={w: abs(c) for w, c in f.coeffs.items()})


def horner_bound(f: FreeSeries, point: np.ndarray, rows: int, t: int) -> np.ndarray:
    """How far the pass split at depth t and planar_horner may be apart,
    entrywise: c (width (d N + 2) + K) u |f|(|X|), with K = word_count(d,
    width - t), u = 2^-53 and |X| the entrywise absolute point.

    Higham (Accuracy and Stability of Numerical Algorithms, ch. 3): the real
    and imaginary parts of an entry of a complex product or sum are real
    inner products, each within gamma_k of its sum of absolute terms in any
    order, k its length and gamma_k = k u / (1 - k u), so the modulus of the
    error is within sqrt(2) gamma_k of that sum. In the split pass, a row of
    X^p is |p| - 1 products of inner length N after the exact first one,
    C_t S sums K terms, and each level above t sums the products of at most
    d children, of inner length N, and c_s: lengths 2N, 2K and 2dN + 1. By
    induction over the depth, each computed state is within
    sqrt(2) u (2N (width - t) + 2K + t (2dN + 1)) <= 2 sqrt(2) u (width (dN + 1) + K)
    of its absolute state sum_p |c_{ps}| |X|^p, to first order, and
    planar_horner, the plain pass, within 2 sqrt(2) u width (dN + 1). The
    two are apart by at most the sum, below 4 sqrt(2) u (width (dN + 1) + K),
    and width (dN + 2) leaves room for the second order terms and the
    rounding of |f|(|X|). So c = 4 sqrt(2).
    """
    width = len(f.suffix_trie) - 1
    k = width * (f.d * point.shape[-1] + 2) + word_count(f.d, width - t)
    size = planar_horner(absolute(f), np.abs(point).astype(np.complex128), rows).real
    return HORNER_ROUNDING * k * (np.finfo(float).eps / 2) * size


def split_bound(f: FreeSeries, point: np.ndarray, rows: int) -> np.ndarray | None:
    """horner_bound at the depth the pass picks for the point, or None when
    it picks t = width, where the pass is planar_horner bit for bit."""
    t = series._split_depth(f, point.shape[-1])
    return None if t == len(f.suffix_trie) - 1 else horner_bound(f, point, rows, t)


def assert_within(got: np.ndarray, want: np.ndarray, bound: np.ndarray | None) -> None:
    """got equals want bit for bit when bound is None, else within it entrywise."""
    if bound is None:
        assert_same_bits(got, want)
    else:
        assert got.shape == want.shape == bound.shape and got.dtype == np.complex128
        assert np.all(np.abs(got - want) <= bound)


def corner(bound: np.ndarray | None, n: int) -> np.ndarray | None:
    """The upper-right n x n corner of a block point's bound."""
    return None if bound is None else bound[:n, n:]


def dict_localizing_matrix(f: FreeSeries, k: int, L: int) -> np.ndarray:
    order = enumerate_words(f.d, L)
    count = len(order)
    M = np.zeros((count, count), dtype=np.complex128)
    for i, I in enumerate(order.words):
        left = involute(I) + (k,)
        for j, J in enumerate(order.words):
            c = f.coeffs.get(left + J)
            if c is not None:
                M[i, j] = c
    return M


def involution_positions(order: WordOrder) -> np.ndarray:
    """pos(w*) for every word w of the order, in order.

    Level l lists the base-d digit strings of 0..d^l - 1, most significant
    first; read least significant first they are the involutes, so the
    letters come from arange arithmetic rather than from the word tuples.
    """
    levels = []
    for length in range(order.degree + 1):
        digits = np.arange(order.d**length)[:, None] // order.d ** np.arange(length) % order.d
        levels.append(words.suffix_positions(order.d, digits + 1)[:, 0])
    return np.concatenate(levels)


def dense_pencil_contraction(f: FreeSeries, X: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """left and T from the dense count x count pencil of each letter."""
    order = enumerate_words(X.d, max(f.degree - 1, 0))
    stack = words.monomial_stack(X, order)
    left = stack[involution_positions(order)]
    T = np.stack(
        [np.tensordot(localizing_matrix(f, k, order.degree), stack, axes=1) for k in range(1, f.d + 1)]
    )
    return left, T


def pencil_choi(left: np.ndarray, T: np.ndarray, k: int) -> np.ndarray:
    """The Choi matrix of coordinate k from a pencil contraction, as choi_at forms it."""
    n = left.shape[-1]
    return np.einsum("iap,iqb->paqb", left, T[k - 1], optimize=True).reshape(n * n, n * n)


def dict_validate(f: FreeSeries) -> SeriesDiagnostics:
    sym = []
    if f.real_free:
        seen = set()
        for w, c in f.coeffs.items():
            pair = (w, involute(w))
            if pair[1] in seen or pair[0] in seen:
                continue
            seen.update(pair)
            gap = abs(f.coeff(involute(w)) - np.conj(c))
            if gap > 1e-12 * max(1.0, abs(c)):
                sym.append((min(pair), float(gap)))
    decay = []
    if f.decay_rate is not None:
        for w, c in f.coeffs.items():
            bound = f.decay_rate ** (-len(w))
            if abs(c) > bound * (1 + 1e-12):
                decay.append((w, float(abs(c) - bound)))
    return SeriesDiagnostics(tuple(sorted(sym)), tuple(sorted(decay)))


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


def assert_rel_close(got: np.ndarray, want: np.ndarray, rtol: float = RTOL) -> None:
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= rtol * scale


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """np.array_equal on the float64 words, so that -0.0 and 0.0 differ."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_eval_matches_oracles(f: FreeSeries, X: MatrixTuple) -> None:
    """eval_series to the word sum, and eval_series and the block derivative
    to the batched Horner pass at X and at [[X, H], [0, X]]: bit for bit
    where the pass does not split, within horner_bound where it does."""
    got = eval_series(f, X).value
    assert got.shape == (X.n, X.n) and got.dtype == np.complex128
    assert_rel_close(got, word_sum(f, X), EVAL_RTOL)
    assert_within(got, batched_horner(f, X), split_bound(f, X.mats, X.n))
    H = general_tuple(X.n, X.d, np.random.default_rng(X.n))
    big = block_point(X, H)
    want = batched_horner(f, big)[: X.n, X.n :]
    bound = split_bound(f, big.mats, X.n if X.n > 1 else 2 * X.n)
    assert_within(derivative(f, X, H, method="block"), want, corner(bound, X.n))


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


def random_dense(d: int, degree: int, rng: np.random.Generator) -> FreeSeries:
    coeffs = {
        w: complex(rng.standard_normal(), rng.standard_normal())
        for w in enumerate_words(d, degree).words
    }
    return FreeSeries(d=d, degree=degree, coeffs=coeffs)


def deep_sparse(rng: np.random.Generator) -> FreeSeries:
    """Like the benchmark's deep series: 30 random words up to degree 24,
    their reversals and (1,)^24, in two letters."""
    words = [tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(0, 25)))) for _ in range(30)]
    coeffs = {}
    for w in words + [(1,) * 24]:
        if w not in coeffs:
            c = complex(rng.standard_normal(), 0.0 if involute(w) == w else rng.standard_normal())
            coeffs[w] = c
            coeffs[involute(w)] = c.conjugate()
    return FreeSeries(d=2, degree=24, coeffs=coeffs, real_free=True)


def degree70_series() -> tuple[FreeSeries, FreeSeries]:
    """Two real-free two-letter series of degree 70 and decay rate 1.9:
    1/(2 - x_1) plus 0.1 x_2 and 0.01 x_2 x_1 x_2, which is refuted, and
    1 + sum_{k >= 1} 2^{-(k+1)} (x_1^k + x_2^k), which is certified."""
    refuted = {(1,) * k: 2.0 ** -(k + 1) for k in range(71)}
    refuted.update({(2,): 0.1, (2, 1, 2): 0.01})
    certified = {(): 1.0, **{(a,) * k: 2.0 ** -(k + 1) for k in range(1, 71) for a in (1, 2)}}
    return tuple(FreeSeries(d=2, degree=70, coeffs=c, real_free=True, decay_rate=1.9) for c in (refuted, certified))


def block_point(X: MatrixTuple, H: MatrixTuple) -> MatrixTuple:
    """The 2n x 2n tuple [[X_i, H_i], [0, X_i]] of the block derivative."""
    zero = np.zeros((X.n, X.n))
    return MatrixTuple(tuple(np.block([[Xi, Hi], [zero, Xi]]) for Xi, Hi in zip(X.mats, H.mats)))


def eval_points(d: int, rng: np.random.Generator) -> list[MatrixTuple]:
    """n = 1, a general n = 3 tuple and the 2n block point built from it."""
    X = MatrixTuple(tuple(0.4 * M for M in general_tuple(3, d, rng).mats))
    return [
        MatrixTuple(tuple(0.5 * M for M in general_tuple(1, d, rng).mats)),
        X,
        block_point(X, general_tuple(3, d, rng)),
    ]


def assert_pencils_equal(f: FreeSeries, levels) -> None:
    for L in levels:
        for k in range(1, f.d + 1):
            assert np.array_equal(localizing_matrix(f, k, L), dict_localizing_matrix(f, k, L)), (k, L)


def seeded_cases(halfres, d2res):
    rng = np.random.default_rng(2024)
    return [
        (halfres, 5, hermitian_point(3, 1, 0.3, seed=1)),
        (d2res, 3, hermitian_point(3, 2, 0.15, seed=2)),
        (random_real_free(2, 5, rng), 2, hermitian_point(3, 2, 0.4, seed=3)),
        (random_real_free(3, 4, rng), 2, hermitian_point(2, 3, 0.3, seed=4)),
    ]


# ------------------------------------------------------------ seeded checks


def test_eval_matches_word_sum_on_fixtures(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(14)
    for f in (x3_series, halfres_series, d2res_series):
        for X in eval_points(f.d, rng):
            assert_eval_matches_oracles(f, X)
    X = hermitian_point(3, 1, 0.3, seed=1)
    assert_eval_matches_oracles(halfres_series, block_point(X, sample("psd_direction", 3, 1, seed=2)))


def test_eval_matches_word_sum_on_dense_series():
    rng = np.random.default_rng(15)
    for d, degree in ((1, 12), (2, 7), (3, 4)):
        f = random_dense(d, degree, rng)
        for X in eval_points(d, rng):
            assert_eval_matches_oracles(f, X)


def test_eval_matches_word_sum_on_deep_sparse_series():
    rng = np.random.default_rng(16)
    f = deep_sparse(rng)
    for X in eval_points(2, rng):
        assert_eval_matches_oracles(f, X)


def test_eval_past_the_key_limit_with_a_short_word():
    # word_count(2, 64) passes int64; the trie has no degree limit
    f = FreeSeries(d=2, degree=64, coeffs={(1,) * 64: 1.0, (2,): 0.5, (1, 2) * 20: -2.0, (): 1j})
    rng = np.random.default_rng(17)
    for X in eval_points(2, rng):
        assert_eval_matches_oracles(f, X)
    X = MatrixTuple((np.array([[0.5]]), np.array([[0.25]])))
    assert eval_series(f, X).value[0, 0] == pytest.approx(0.5**64 + 0.125 - 2.0 * 0.125**20 + 1j, rel=1e-15)


def test_eval_empty_and_zero_series():
    rng = np.random.default_rng(18)
    for d in (1, 2, 3):
        for X in eval_points(d, rng):
            for coeffs in ({}, {(): 0.0, (1,) * 3: 0.0}):
                f = FreeSeries(d=d, degree=3, coeffs=coeffs)
                assert np.array_equal(eval_series(f, X).value, np.zeros((X.n, X.n)))
                assert_eval_matches_oracles(f, X)


def test_eval_at_size_zero(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(23)
    # the localizing route needs the words up to degree - 1, past the budget at degree 24
    for f in (x3_series, halfres_series, d2res_series, random_dense(3, 3, rng), deep_sparse(rng)):
        X = MatrixTuple(tuple(np.zeros((0, 0)) for _ in range(f.d)))
        assert eval_series(f, X).value.shape == (0, 0)
        for method in METHODS if f.degree < 24 else ("block", "fd"):
            assert derivative(f, X, X, method=method).shape == (0, 0)


def test_signed_zeros_match_the_batched_pass():
    # diagonal points with zero entries make exact zeros, whose signs depend
    # on the order of the adds; a parent that only a later letter reaches
    # must take that letter's product as it is, not 0.0 plus it
    rng = np.random.default_rng(24)
    for _ in range(150):
        d = int(rng.integers(2, 4))
        stored = [tuple(int(x) for x in rng.integers(1, d + 1, size=int(rng.integers(0, 7)))) for _ in range(10)]
        f = FreeSeries(d=d, degree=6, coeffs={w: float(rng.choice([-1.0, 0.5, 1.0])) for w in stored})
        n = int(rng.integers(1, 4))
        mats = []
        for _ in range(d):
            M = np.diag(rng.choice([-1.0, 0.0, 0.5, 1.0], size=n)).astype(np.complex128)
            M[0, -1] += rng.choice([-0.5, 0.0, 0.5])
            mats.append(M)
        assert_eval_matches_oracles(f, MatrixTuple(tuple(mats)))


def signed_zero_case(rng: np.random.Generator, count: int) -> tuple[FreeSeries, list[MatrixTuple]]:
    """A sparse series of degree 6 and count diagonal-ish points with zero
    entries, as in test_signed_zeros_match_the_batched_pass."""
    d = int(rng.integers(2, 4))
    stored = [tuple(int(x) for x in rng.integers(1, d + 1, size=int(rng.integers(0, 7)))) for _ in range(10)]
    f = FreeSeries(d=d, degree=6, coeffs={w: float(rng.choice([-1.0, 0.5, 1.0])) for w in stored})
    n = int(rng.integers(1, 4))
    points = []
    for _ in range(count):
        mats = np.zeros((d, n, n), dtype=np.complex128)
        for M in mats:
            M[...] = np.diag(rng.choice([-1.0, 0.0, 0.5, 1.0], size=n))
            M[0, -1] += rng.choice([-0.5, 0.0, 0.5])
        points.append(MatrixTuple(mats))
    return f, points


def assert_stack_matches_planar(f: FreeSeries, points: list[MatrixTuple]) -> None:
    """The stacked pass at every prefix of points, at every rows the
    library uses, against planar_horner point by point, and each point of
    the stack bit for bit against the pass at that point alone."""
    stack = np.array([X.mats for X in points])
    n = stack.shape[-1]
    for P in range(1, len(points) + 1):
        for rows in (n, 2 * n) if n == 1 else (n,):
            got = series._horner(f, stack[:P], rows)
            assert got.shape == (P, rows, n)
            for p in range(P):
                assert_within(got[p], planar_horner(f, stack[p], rows), split_bound(f, stack[p], rows))
                assert_same_bits(got[p], series._horner(f, stack[p : p + 1], rows)[0])
        assert_same_bits(eval_series_batch(f, points[:P]), np.array([eval_series(f, X).value for X in points[:P]]))


def test_stacked_pass_matches_the_planar_pass():
    rng = np.random.default_rng(25)
    cases = [random_dense(d, degree, rng) for d, degree in ((1, 12), (2, 6), (3, 4))] + [deep_sparse(rng)]
    for f in cases:
        for n in (1, 3):
            points = [MatrixTuple(0.4 * general_tuple(n, f.d, rng).mats) for _ in range(5)]
            assert_stack_matches_planar(f, points)
        # block points of the derivative: the top block row at n = 3, both rows at n = 1
        for n in (1, 3):
            X = [MatrixTuple(0.4 * general_tuple(n, f.d, rng).mats) for _ in range(5)]
            H = [general_tuple(n, f.d, rng) for _ in range(5)]
            stack = np.array([block_point(x, h).mats for x, h in zip(X, H)])
            rows = n if n > 1 else 2 * n
            for P in range(1, 6):
                got = series._horner(f, stack[:P], rows)
                for p in range(P):
                    assert_within(got[p], planar_horner(f, stack[p], rows), split_bound(f, stack[p], rows))
                    assert_same_bits(got[p], series._horner(f, stack[p : p + 1], rows)[0])
            for x, h, big in zip(X, H, stack):
                bound = corner(split_bound(f, big, rows), n)
                assert_within(derivative(f, x, h, method="block"), planar_horner(f, big, rows)[:n, n:], bound)


def test_stacked_pass_keeps_signed_zeros():
    rng = np.random.default_rng(26)
    for _ in range(60):
        f, points = signed_zero_case(rng, 5)
        assert_stack_matches_planar(f, points)


def test_fd_route_is_two_planar_passes(halfres_series, d2res_series):
    """Bit for bit where the pass does not split. Where it splits, each
    pass is within its horner_bound B of planar_horner, so a central
    difference at step h is within (B_+ + B_-) / 2h plus the rounding of its
    own difference and quotient, below 4 u its size, and Richardson's
    (4 D(h/2) - D(h)) / 3 within the same combination of those bounds."""
    rng = np.random.default_rng(27)
    u = np.finfo(float).eps / 2
    for f in (halfres_series, d2res_series, deep_sparse(rng)):
        for n in (1, 3):
            X, H = general_tuple(n, f.d, rng), general_tuple(n, f.d, rng)
            X = MatrixTuple(0.3 * X.mats)

            def central(h):
                plus, minus = X.mats + h * H.mats, X.mats - h * H.mats
                value = (planar_horner(f, plus, n) - planar_horner(f, minus, n)) / (2 * h)
                bounds = split_bound(f, plus, n), split_bound(f, minus, n)
                if bounds[0] is None:
                    return value, None
                return value, (bounds[0] + bounds[1]) / (2 * h) + 4 * u * np.abs(value)

            want, bound = central(series.FD_STEP)
            assert_within(derivative(f, X, H, method="fd"), want, bound)
            (half, half_bound), (full, full_bound) = central(series.FD_STEP / 2), central(series.FD_STEP)
            want = (4 * half - full) / 3
            if bound is not None:
                bound = (4 * half_bound + full_bound) / 3 + 4 * u * np.abs(want)
            assert_within(derivative(f, X, H, method="fd", richardson=True), want, bound)


def test_series_evaluator_batch_matches_single_points(x3_series, halfres_series, d2res_series, monkeypatch):
    rng = np.random.default_rng(28)
    for f in (x3_series, halfres_series, d2res_series, deep_sparse(rng)):
        ev = series.series_evaluator(f)
        for n in (1, 2, 4):
            points = [MatrixTuple(0.3 * general_tuple(n, f.d, rng).mats) for _ in range(7)]
            want = np.array([ev(X) for X in points])
            assert_same_bits(ev.batch(points), want)
            # a stack past BATCH_BYTES runs in several passes with the same values
            with monkeypatch.context() as m:
                m.setattr(series, "BATCH_BYTES", 1)
                assert_same_bits(ev.batch(points), want)
    with pytest.raises(ValueError, match=r"^series in 1 letters evaluated at a 2-tuple$"):
        eval_series_batch(x3_series, [general_tuple(2, 2, rng)])
    with pytest.raises(ValueError, match=r"^a batch needs at least one point"):
        eval_series_batch(x3_series, [general_tuple(2, 1, rng), general_tuple(3, 1, rng)])


def sparse_chain(rng: np.random.Generator) -> FreeSeries:
    """A one-letter series of degree 30 with every third power stored."""
    return FreeSeries(d=1, degree=30, coeffs={(1,) * k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(0, 31, 3)})


def split_cases(rng: np.random.Generator) -> list[FreeSeries]:
    dense = [random_dense(d, degree, rng) for d, degree in ((1, 9), (2, 5), (3, 3))]
    return dense + [deep_sparse(rng), sparse_chain(rng)]


def split_points(f: FreeSeries, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """Stacks of three points at n = 0, 1 and 3 with rows = n, and of three
    block points at n = 1 and 3 with the rows the block derivative carries."""
    out = [(0.4 * np.array([general_tuple(n, f.d, rng).mats for _ in range(3)]), n) for n in (0, 1, 3)]
    for n in (1, 3):
        big = [block_point(MatrixTuple(0.4 * general_tuple(n, f.d, rng).mats), general_tuple(n, f.d, rng)) for _ in range(3)]
        out.append((np.array([X.mats for X in big]), n if n > 1 else 2 * n))
    return out


def test_every_split_depth_matches_the_planar_pass(monkeypatch):
    """The pass split at each depth t whose prefix order fits the word
    budget, against planar_horner within horner_bound, and the batch
    evaluator against one eval_series per point bit for bit."""
    rng = np.random.default_rng(29)
    cases = [(f, split_points(f, rng)) for f in split_cases(rng)]
    for _ in range(20):
        f, points = signed_zero_case(rng, 3)
        cases.append((f, [(np.array([X.mats for X in points]), points[0].n)]))
    for f, stacks in cases:
        width = len(f.suffix_trie) - 1
        for t in range(width + 1):
            if word_count(f.d, width - t) > words.WORD_BUDGET:
                continue
            monkeypatch.setattr(series, "_split_depth", lambda f, N, t=t: t)
            for stack, rows in stacks:
                got = series._horner(f, stack, rows)
                assert got.shape == (len(stack), rows, stack.shape[-1])
                for p, point in enumerate(stack):
                    want = planar_horner(f, point, rows)
                    bound = horner_bound(f, point, rows, t)
                    assert np.all(np.abs(got[p] - want) <= bound), (t, p, rows)
                    if t == width:
                        assert_same_bits(got[p], want)
                if rows == stack.shape[-1]:
                    points = [MatrixTuple(X) for X in stack]
                    assert_same_bits(eval_series_batch(f, points), np.array([eval_series(f, X).value for X in points]))
            # the prefix tables of the shallow depths are large; keep one at a time
            f._prefix_tables.clear()


def test_split_depth_model():
    """t = width for one-letter chains at every size, for the deep sparse
    series at the sizes of their value and fd points (N <= 3), and for the
    degree-70 series; about half the degree for dense series; the deepest t
    on ties; and never a prefix order past the word budget."""
    rng = np.random.default_rng(30)
    chains = [random_dense(1, 12, rng), sparse_chain(rng)]
    for f in chains:
        assert [series._split_depth(f, N) for N in range(17)] == [len(f.suffix_trie) - 1] * 17
    for seed in range(8):
        f = deep_sparse(np.random.default_rng(seed))
        assert [series._split_depth(f, N) for N in (1, 2, 3)] == [24] * 3
    for f in degree70_series():
        assert [series._split_depth(f, N) for N in (1, 3, 8, 64)] == [70] * 4
    for d, degree in ((2, 8), (2, 10), (3, 6)):
        f = FreeSeries(d=d, degree=degree, coeffs={w: 1.0 for w in enumerate_words(d, degree).words})
        for N in (2, 4, 8):
            assert abs(series._split_depth(f, N) - degree / 2) <= 1
    # equal costs at every depth: the deepest wins
    f = random_dense(2, 6, rng)
    vars(f)["_split_model"] = (np.full(7, 3.0), np.ones(7), *f._split_model[2:])
    assert series._split_depth(f, 4) == 6
    # prefix orders past the budget cost inf: at d = 2, width - t <= 15
    B = FreeSeries(d=2, degree=40, coeffs={(1,) * 40: 1.0, (2,): 1.0})._split_model[1]
    top = words.max_degree(2, words.WORD_BUDGET)
    assert np.isinf(B[: 40 - top]).all() and np.isfinite(B[40 - top :]).all()


def test_batch_chunks_hold_the_split_pass(monkeypatch):
    """eval_series_batch cuts a stack into parts of step points, step sized
    by what the split pass holds per point, and with the cap at three
    points' worth the pass's traced peak stays under it."""
    rng = np.random.default_rng(32)
    for f in (random_dense(2, 8, rng), random_dense(3, 5, rng), deep_sparse(rng)):
        for n in (2, 4):
            points = [MatrixTuple(0.3 * general_tuple(n, f.d, rng).mats) for _ in range(8)]
            want = eval_series_batch(f, points)
            t = series._split_depth(f, n)
            _, _, count, widest = f._split_model
            cap = 3 * int(16 * (count[t] + 6 * widest[t]) * n * n)
            parts = []
            horner = series._horner

            def spy(f, stack, rows):
                parts.append(len(stack))
                return horner(f, stack, rows)

            with monkeypatch.context() as m:
                m.setattr(series, "BATCH_BYTES", cap)
                m.setattr(series, "_horner", spy)
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                got = eval_series_batch(f, points)
                peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
            assert parts == [3, 3, 2]
            assert peak <= cap
            assert_same_bits(got, want)


def test_eval_with_zero_coefficients_and_unstored_suffixes():
    # no suffix of (1, 2, 1, 2) or (3, 3, 2, 1) is stored but (), and some
    # stored words hold 0
    coeffs = {
        (1, 2, 1, 2): 1.5 - 0.5j,
        (3, 3, 2, 1): -2.0,
        (2, 1, 2): 0.0,
        (): 0.25,
        (1,): 0.0,
        (2, 2, 3): 1j,
        (3, 2, 2, 3): 0.75,
    }
    f = FreeSeries(d=3, degree=5, coeffs=coeffs)
    rng = np.random.default_rng(19)
    for X in eval_points(3, rng):
        assert_eval_matches_oracles(f, X)


def trie_suffixes(f: FreeSeries) -> list[list[tuple]]:
    """The word of every trie node, depth by depth, read back from the blocks."""
    out = [[()]]
    for level in f.suffix_trie[1:]:
        nodes = [None] * level.size
        for k, a, b in level.blocks:
            for i, p in zip(range(a, b), level.parent[a:b].tolist()):
                nodes[i] = (k + 1,) + out[-1][p]
        out.append(nodes)
    return out


def assert_minimal_trie(f: FreeSeries) -> None:
    """One node per distinct suffix, in lexicographic order read left to
    right, carrying the stored coefficients. The blocks of a depth are its
    letter runs in letter order and cover it once; every node has one
    parent, the parents ascend within a block, and a block as long as the
    level above holds one child of every parent, in order."""
    suffixes = {w[len(w) - l :] for w in f.coeffs for l in range(len(w) + 1)} | {()}
    trie = f.suffix_trie
    got = trie_suffixes(f)
    assert len(got) == max(map(len, suffixes)) + 1
    assert trie[0].blocks == () and trie[0].parent.shape == (0,)
    for l, (nodes, level) in enumerate(zip(got, trie)):
        assert nodes == sorted(s for s in suffixes if len(s) == l)
        assert level.size == len(nodes)
        stored = [s in f.coeffs for s in nodes]
        if level.coeff is None:
            assert not any(stored)
        else:
            assert level.coeff.tolist() == [f.coeff(s) for s in nodes]
        if l == 0:
            continue
        assert level.parent.dtype == np.int64 and level.parent.shape == (level.size,)
        letters = [k for k, _, _ in level.blocks]
        assert letters == sorted(set(letters))
        assert [a for _, a, _ in level.blocks] == [0] + [b for _, _, b in level.blocks[:-1]]
        assert level.blocks[-1][2] == level.size
        for k, a, b in level.blocks:
            assert a < b and {s[0] for s in nodes[a:b]} == {k + 1}
            parents = level.parent[a:b]
            assert b - a <= trie[l - 1].size and np.all(np.diff(parents) > 0)
            assert 0 <= parents[0] and parents[-1] < trie[l - 1].size
            if b - a == trie[l - 1].size:
                assert np.array_equal(parents, np.arange(b - a))


def test_trie_is_minimal_and_ordered(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(22)
    cases = [x3_series, halfres_series, d2res_series, deep_sparse(rng), random_dense(3, 3, rng)]
    cases.append(FreeSeries(d=2, degree=4, coeffs={(1, 2): 1.0, (2, 1): 2.0, (1, 1): 3.0, (2, 2, 1, 2): 4.0}))
    cases.append(FreeSeries(d=2, degree=3, coeffs={}))
    for f in cases:
        assert_minimal_trie(f)
    assert TrieLevel._fields == ("size", "coeff", "parent", "blocks")
    dense = random_dense(3, 3, rng)
    trie = dense.suffix_trie
    assert all(b - a == up.size for up, level in zip(trie, trie[1:]) for _, a, b in level.blocks)


def test_trie_of_words_longer_than_one_chunk():
    # a chunk holds at most (63 - bit_length(count * width + 1)) // bit_length(d)
    # letters, so these words span several chunks; shared heads and tails make
    # suffixes tie on their first chunk and differ in the rest
    rng = np.random.default_rng(25)
    for d in (1, 2, 3):
        heads = [tuple(int(x) for x in rng.integers(1, d + 1, size=int(rng.integers(1, 40)))) for _ in range(3)]
        tails = [tuple(int(x) for x in rng.integers(1, d + 1, size=int(rng.integers(30, 60)))) for _ in range(3)]
        coeffs = {h + t: complex(rng.standard_normal(), rng.standard_normal()) for h in heads for t in tails}
        f = FreeSeries(d=d, degree=100, coeffs=coeffs)
        width = max(map(len, coeffs))
        assert width > (63 - (len(coeffs) * width + 1).bit_length()) // d.bit_length()
        assert_minimal_trie(f)
        X = MatrixTuple(tuple(0.3 * M for M in general_tuple(2, d, rng).mats))
        assert_eval_matches_oracles(f, X)


def test_eval_builds_the_trie_once_per_series(d2res_series, fixtures_dir, monkeypatch):
    calls = []
    letter_array = words.letter_array

    def counting(*args):
        calls.append(1)
        return letter_array(*args)

    monkeypatch.setattr(words, "letter_array", counting)
    f = FreeSeries(d=2, degree=d2res_series.degree, coeffs=d2res_series.coeffs)
    rng = np.random.default_rng(20)
    X, H = general_tuple(2, 2, rng), general_tuple(2, 2, rng)
    first = eval_series(f, X).value
    derivative(f, X, H, method="block")
    derivative(f, X, H, method="fd", richardson=True)
    assert len(calls) == 1
    assert np.array_equal(eval_series(f, X).value, first)
    assert len(calls) == 1
    FreeSeries(d=2, degree=f.degree, coeffs=f.coeffs).suffix_trie
    assert len(calls) == 2
    # split list, trie and decay scan all read one word table; parsing checks
    # only the symmetry, which reads none
    calls.clear()
    g = parse_series(str(fixtures_dir / "d2res_series.json"))
    assert g.real_free and g.decay_rate is not None and len(calls) == 0
    certify_monotone(g, 3)
    Y = hermitian_point(2, 2, 0.2, 3)
    eval_series(g, Y)
    for method in METHODS:
        derivative(g, Y, H, method=method)
    choi_at(g, Y)
    assert validate(g).ok
    assert len(calls) == 1


def test_eval_letter_mismatch_message(x3_series):
    X = sample("hermitian_tuple", 2, 2, seed=0)
    with pytest.raises(ValueError, match=r"^series in 1 letters evaluated at a 2-tuple$"):
        eval_series(x3_series, X)
    f = FreeSeries(d=3, degree=2, coeffs={})
    with pytest.raises(ValueError, match=r"^series in 3 letters evaluated at a 2-tuple$"):
        eval_series(f, X)


def test_eval_does_not_use_the_word_evaluator(halfres_series, d2res_series, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_series called words.eval_words")

    monkeypatch.setattr(words, "eval_words", refuse)
    rng = np.random.default_rng(21)
    for f in (halfres_series, d2res_series, deep_sparse(rng)):
        X, H = general_tuple(2, f.d, rng), general_tuple(2, f.d, rng)
        eval_series(f, X)
        derivative(f, X, H, method="block")
        derivative(f, X, H, method="fd")


def test_pencil_matches_dict_loop_on_fixtures(x3_series, halfres_series, d2res_series):
    for f in (x3_series, halfres_series, d2res_series):
        assert_pencils_equal(f, range(f.degree + 2))


def test_pencil_matches_dict_loop_on_dense_series():
    rng = np.random.default_rng(11)
    for d, degree in ((1, 12), (2, 6), (3, 4)):
        f = random_dense(d, degree, rng)
        assert_pencils_equal(f, range(degree + 2))


def test_pencil_matches_dict_loop_on_deep_sparse_series():
    # the dict loop costs count^2 lookups per letter, so L stops at 9
    # (1023 words); longer words still cross the |I|, |J| <= L filter here
    f = deep_sparse(np.random.default_rng(12))
    assert max(map(len, f.coeffs)) == 24
    assert_pencils_equal(f, range(10))
    for g in degree70_series():
        assert_pencils_equal(g, range(6))


def test_validate_matches_dict_scan_on_injected_violations():
    c = 0.3 - 0.7j
    coeffs = {
        (): 2.0 + 1e-3j,  # palindrome with an imaginary part
        (1, 2, 1): 1.0 + 0.5j,  # palindrome
        (2, 2): 4.0,  # clean palindrome
        (2, 1, 1): 0.25 + 0.25j,  # reversal (1, 1, 2) missing
        (1, 2): c,  # clean pair
        (2, 1): c.conjugate(),
        (2, 2, 1): 5.0 + 5.0j,  # gap just under the threshold
        (1, 2, 2): 5.0 - 5.0j + 0.9e-12 * abs(5 + 5j),
        (1, 1, 1, 2): 5.0 + 5.0j,  # gap just over the threshold
        (2, 1, 1, 1): 5.0 - 5.0j + 1.1e-12 * abs(5 + 5j),
        (1, 2, 2, 2): 0.5e-12j,  # gap 0.9e-12 passes: the threshold floor is 1e-12
        (2, 2, 2, 1): 0.4e-12j,
        (2, 1, 2, 2): 1e-3,  # reversal (2, 2, 1, 2) inserted second, unequal
        (2, 2, 1, 2): 2e-3,
    }
    f = FreeSeries(d=2, degree=4, coeffs=coeffs, real_free=True, decay_rate=1.5)
    got = validate(f)
    assert got == dict_validate(f)
    flagged = [w for w, _ in got.symmetry_violations]
    assert flagged == [(), (1, 1, 1, 2), (1, 1, 2), (1, 2, 1), (2, 1, 2, 2)]


def test_validate_matches_dict_scan_on_seeded_series(halfres_series, d2res_series):
    rng = np.random.default_rng(13)
    cases = [halfres_series, d2res_series, deep_sparse(rng), random_real_free(3, 4, rng)]
    cases.append(FreeSeries(d=2, degree=3, coeffs={}, real_free=True))
    cases.extend(degree70_series())
    for f in cases:
        assert validate(f) == dict_validate(f)


def assert_same_certificate(got, want) -> None:
    assert (got.d, got.degree, got.reports, got.verdict) == (want.d, want.degree, want.reports, want.verdict)
    assert got.coefficient_horizon == want.coefficient_horizon
    assert len(got.matrices) == len(want.matrices)
    assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices))
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        assert (got.witness.k, got.witness.min_eig) == (want.witness.k, want.witness.min_eig)
        assert np.array_equal(got.witness.vector, want.witness.vector)


def test_degree70_series_certify_as_their_truncations(tmp_path):
    # the level-L certificate reads only words of length <= 2L + 1
    rng = np.random.default_rng(22)
    for f, verdict in zip(degree70_series(), (REFUTED, CERTIFIED_PSD)):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series_to_json(f)), encoding="utf-8")
        g = parse_series(str(path))
        assert g.coeffs == f.coeffs and validate(g).ok
        assert_eval_matches_oracles(g, hermitian_point(2, 2, 0.3, seed=23))
        assert_eval_matches_oracles(g, MatrixTuple(tuple(0.2 * M for M in general_tuple(2, 2, rng).mats)))
        for L in (3, 5, 9):
            top = 2 * L + 1
            short = {w: c for w, c in g.coeffs.items() if len(w) <= top}
            want = certify_monotone(FreeSeries(d=2, degree=top, coeffs=short, real_free=True, decay_rate=1.9), L)
            got = certify_monotone(g, L)
            assert got.verdict == verdict
            assert_same_certificate(got, want)


def perturbed_real_free(rng: np.random.Generator) -> FreeSeries:
    """Up to 8 random words in 1-3 letters, each stored with its reversal,
    whose coefficient is conj(c_w) scaled by 1 + 10^-u, u uniform in [8, 15]."""
    d = int(rng.integers(1, 4))
    coeffs = {}
    for _ in range(int(rng.integers(1, 9))):
        w = tuple(int(x) for x in rng.integers(1, d + 1, size=int(rng.integers(0, 6))))
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[w] = c
        coeffs.setdefault(involute(w), c.conjugate() * (1 + 10.0 ** -rng.uniform(8, 15)))
    return FreeSeries(d=d, degree=5, coeffs=coeffs, real_free=True)


def test_validate_symmetry_gaps_round_as_the_dict_scan():
    # the gaps and thresholds must round as Python's abs; np.abs on complex128
    # differs from it in the last bit for some values on some CPUs
    rng = np.random.default_rng(7)
    series = [perturbed_real_free(rng) for _ in range(3000)]
    assert sum(bool(validate(f).symmetry_violations) for f in series) > 1000
    assert [f for f in series if validate(f) != dict_validate(f)] == []


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


def assert_pencil_matches_dense(f: FreeSeries, X: MatrixTuple, H: MatrixTuple, choi: bool = True) -> None:
    """left, T, the localizing derivative and (at a self-adjoint X with
    n >= 1, where choi_at runs) the Choi matrices against the dense pencil."""
    left, T = pencil_contraction(f, X)
    want_left, want_T = dense_pencil_contraction(f, X)
    assert left.shape == want_left.shape and T.shape == want_T.shape
    assert left.dtype == T.dtype == np.complex128
    assert_rel_close(left, want_left, PENCIL_RTOL)
    assert_rel_close(T, want_T, PENCIL_RTOL)
    got = derivative(f, X, H, method="localizing")
    want = sum((want_left @ Hk @ Tk).sum(axis=0) for Hk, Tk in zip(H.mats, want_T))
    assert got.shape == (X.n, X.n)
    assert_rel_close(got, want, PENCIL_RTOL)
    if choi:
        for coord in choi_at(f, X).coordinates:
            assert_rel_close(coord.choi, pencil_choi(want_left, want_T, coord.k), PENCIL_RTOL)


def test_involution_positions_are_the_involutes():
    for d, L in ((1, 4), (2, 4), (3, 3), (4, 2)):
        order = enumerate_words(d, L)
        index = {w: i for i, w in enumerate(order.words)}
        assert list(involution_positions(order)) == [index[involute(w)] for w in order.words]


def test_pencil_matches_dense_route_on_fixtures(x3_series, halfres_series, d2res_series):
    for f, radius in ((x3_series, 0.5), (halfres_series, 0.3), (d2res_series, 0.15)):
        for n in (1, 3):
            X = hermitian_point(n, f.d, radius, seed=n)
            assert_pencil_matches_dense(f, X, sample("hermitian_tuple", n, f.d, seed=5))
        rng = np.random.default_rng(f.degree)
        X = MatrixTuple(tuple(radius * M / np.linalg.norm(M, 2) for M in general_tuple(2, f.d, rng).mats))
        assert_pencil_matches_dense(f, X, general_tuple(2, f.d, rng), choi=False)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pencil_matches_dense_route_on_dense_series(d):
    rng = np.random.default_rng(d)
    for degree in (0, 1, 2, {1: 6, 2: 5, 3: 3}[d]):
        f = random_real_free(d, degree, rng)
        for n in (1, 2, 4):
            X = hermitian_point(n, d, 0.4, seed=degree + n)
            assert_pencil_matches_dense(f, X, general_tuple(n, d, rng))
        g = random_dense(d, degree, rng)
        X = MatrixTuple(tuple(0.3 * M for M in general_tuple(3, d, rng).mats))
        assert_pencil_matches_dense(g, X, general_tuple(3, d, rng), choi=False)


def test_pencil_at_size_zero(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(0)
    for f in (x3_series, halfres_series, d2res_series, random_dense(3, 3, rng)):
        X = MatrixTuple(np.zeros((f.d, 0, 0)))
        assert_pencil_matches_dense(f, X, X, choi=False)
        assert derivative(f, X, X, method="localizing").dtype == np.complex128


@pytest.mark.parametrize(
    ("d", "degree", "n"),
    [(1, 0, 2), (2, 1, 3), (1, 6, 2), (3, 4, 1), (1, 3, 1), (2, 5, 3), (3, 3, 4)],
)
def test_pencil_left_is_the_stack_at_the_transpose(d, degree, n):
    # left is built as monomial_stack builds its stack at X^T, so each
    # X^{I*} is ((X^T)^I)^T bit for bit; degree <= 1 is the order of length 0
    rng = np.random.default_rng(10 * d + degree)
    f, X = random_dense(d, degree, rng), general_tuple(n, d, rng)
    order = enumerate_words(d, max(degree - 1, 0))
    left, T = pencil_contraction(f, X)
    want = words.monomial_stack(MatrixTuple(X.mats.swapaxes(1, 2)), order).swapaxes(1, 2)
    assert left.shape == want.shape == (len(order), n, n) and T.shape == (d, len(order), n, n)
    assert np.array_equal(left, want)


def test_localizing_routes_build_no_pencil(halfres_series, d2res_series, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the count x count localizing pencil was built")

    monkeypatch.setattr(series, "localizing_matrix", refuse)
    monkeypatch.setattr(monotone, "localizing_matrix", refuse)
    for f, _L, X in seeded_cases(halfres_series, d2res_series):
        H = sample("hermitian_tuple", X.n, X.d, seed=6)
        assert derivative(f, X, H, method="localizing").shape == (X.n, X.n)
        assert len(choi_at(f, X, tol=1e-8).coordinates) == f.d


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


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    L=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pencil_dense_oracle_hypothesis(d, L, n, seed):
    rng = np.random.default_rng(seed)
    L = min(L, {1: 5, 2: 5, 3: 3}[d])
    f = random_real_free(d, L, rng)
    X = hermitian_point(n, d, 0.5, seed % 2**31) if n else MatrixTuple(np.zeros((d, 0, 0)))
    assert_pencil_matches_dense(f, X, general_tuple(n, d, rng), choi=n > 0)
    Y = MatrixTuple(tuple(0.5 * M for M in general_tuple(n, d, rng).mats))
    assert_pencil_matches_dense(random_dense(d, L, rng), Y, general_tuple(n, d, rng), choi=False)


def cap_level(d: int, degree: int) -> int:
    """Largest L <= degree + 1 with at most 130 words, so the dict loop stays cheap."""
    L = degree + 1
    while word_count(d, L) > 130:
        L -= 1
    return L


@st.composite
def sparse_series(draw, real_free=False):
    d = draw(st.integers(min_value=1, max_value=3))
    degree = draw(st.integers(min_value=0, max_value=8))
    word = st.lists(st.integers(min_value=1, max_value=d), max_size=degree).map(tuple)
    coeff = st.sampled_from([0.0, 1.0, -2.5, 0.5j, 0.25 - 0.75j, 3e-13, 1e-12j])
    coeffs = draw(st.dictionaries(word, coeff, max_size=24))
    return FreeSeries(d=d, degree=degree, coeffs=coeffs, real_free=real_free)


@settings(max_examples=100, deadline=None)
@given(sparse_series(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_oracle_hypothesis(f, n, seed):
    X = MatrixTuple(tuple(0.6 * M for M in general_tuple(n, f.d, np.random.default_rng(seed)).mats))
    assert_eval_matches_oracles(f, X)
    assert_minimal_trie(f)


@settings(max_examples=60, deadline=None)
@given(sparse_series())
def test_pencil_oracle_hypothesis(f):
    assert_pencils_equal(f, range(cap_level(f.d, f.degree) + 1))


@settings(max_examples=100, deadline=None)
@given(sparse_series(real_free=True), st.data())
def test_validate_oracle_hypothesis(f, data):
    # make about half of the pairs symmetric, then nudge some of them
    coeffs = dict(f.coeffs)
    for w in list(coeffs):
        if data.draw(st.booleans()):
            coeffs[involute(w)] = np.conj(coeffs[w]) * data.draw(st.sampled_from([1.0, 1.0 + 5e-13, 1.0 + 2e-12]))
    g = FreeSeries(d=f.d, degree=f.degree, coeffs=coeffs, real_free=True)
    assert validate(g) == dict_validate(g)

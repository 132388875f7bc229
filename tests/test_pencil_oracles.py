"""The pencil and its contractions against the routes they replace.

The localizing derivative, the Hamburger reconstruction and the Choi matrix
are computed from the monomial stack and the coefficient pencil by
tensordot/einsum contractions. The oracles below are the direct dense
formulas: m_left (B_k (x) H_k) m for the derivative,
m* (F_k (x) I)(I (x) H_k)(F_k (x) I) m for the reconstruction and one block
derivative per matrix unit E_pq for the Choi matrix, each with monomials
from the suffix-sharing word evaluator.

The pencil itself is scattered from integer word keys, and validate's
symmetry scan is one searchsorted pass over keys. Their oracles are the dict
loops they replace: one coefficient lookup per pencil cell, and a walk over
the stored words that judges each pair {w, w*} once. Both must agree
exactly, not to a tolerance.

eval_series is a right Horner pass over the suffix trie, one GEMM per letter
per level, and the block derivative carries only the top block row of that
pass at [[X, H], [0, X]]. They have two oracles. One is the sum they
replace, sum_w c_w X^w with X^w from the suffix-sharing word evaluator; the
two add the terms in different orders, so they agree to EVAL_RTOL rather
than exactly. The other is the earlier layout of the same pass: a trie
ordered by the suffixes read right to left, one batched product per level
over every node and a gather-add per sibling rank. That one adds the same
terms in the same order, so it must agree bit for bit, signed zeros
included.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepick.matcore import MatrixTuple, sample
from freepick.jsonio import parse_series
from freepick.monotone import HamburgerModel, certify_monotone, choi_at, hamburger_factor
from freepick import words
from freepick.series import (
    METHODS,
    FreeSeries,
    SeriesDiagnostics,
    TrieLevel,
    derivative,
    eval_series,
    localizing_matrix,
    validate,
)
from freepick.words import enumerate_words, eval_words, involute, word_count

RTOL = 1e-12
EVAL_RTOL = 1e-13


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
    bit for bit to the batched Horner pass at X and at [[X, H], [0, X]]."""
    got = eval_series(f, X).value
    assert got.shape == (X.n, X.n) and got.dtype == np.complex128
    assert_rel_close(got, word_sum(f, X), EVAL_RTOL)
    assert_same_bits(got, batched_horner(f, X))
    H = general_tuple(X.n, X.d, np.random.default_rng(X.n))
    want = batched_horner(f, block_point(X, H))[: X.n, X.n :]
    assert_same_bits(derivative(f, X, H, method="block"), want)


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
    # word_count(2, 64) passes int64, so the keys cannot be built; the trie can
    f = FreeSeries(d=2, degree=64, coeffs={(1,) * 64: 1.0, (2,): 0.5, (1, 2) * 20: -2.0, (): 1j})
    with pytest.raises(ValueError, match="d=2 at degree 64"):
        f.keys
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
        for k, a, b, parents in level.blocks:
            ups = range(b - a) if parents is None else parents.tolist()
            for i, p in zip(range(a, b), ups):
                nodes[i] = (k + 1,) + out[-1][p]
        out.append(nodes)
    return out


def assert_minimal_trie(f: FreeSeries) -> None:
    """One node per distinct suffix, in lexicographic order read left to
    right, carrying the stored coefficients. The blocks of a depth are its
    letter runs in letter order and cover it once; their parents ascend, and
    parents is None exactly when a block holds one child of every parent."""
    suffixes = {w[len(w) - l :] for w in f.coeffs for l in range(len(w) + 1)} | {()}
    trie = f.suffix_trie
    got = trie_suffixes(f)
    assert len(got) == max(map(len, suffixes)) + 1
    assert trie[0].blocks == ()
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
        letters = [k for k, _, _, _ in level.blocks]
        assert letters == sorted(set(letters))
        assert [a for _, a, _, _ in level.blocks] == [0] + [b for _, _, b, _ in level.blocks[:-1]]
        assert level.blocks[-1][2] == level.size
        for k, a, b, parents in level.blocks:
            assert a < b and {s[0] for s in nodes[a:b]} == {k + 1}
            if parents is None:
                assert b - a == trie[l - 1].size
            else:
                assert b - a < trie[l - 1].size and np.all(np.diff(parents) > 0)


def test_trie_is_minimal_and_ordered(x3_series, halfres_series, d2res_series):
    rng = np.random.default_rng(22)
    cases = [x3_series, halfres_series, d2res_series, deep_sparse(rng), random_dense(3, 3, rng)]
    cases.append(FreeSeries(d=2, degree=4, coeffs={(1, 2): 1.0, (2, 1): 2.0, (1, 1): 3.0, (2, 2, 1, 2): 4.0}))
    cases.append(FreeSeries(d=2, degree=3, coeffs={}))
    for f in cases:
        assert_minimal_trie(f)
    assert TrieLevel._fields == ("size", "coeff", "blocks")
    dense = random_dense(3, 3, rng)
    assert all(parents is None for level in dense.suffix_trie for *_, parents in level.blocks)


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
    # keys (validate), split list, trie and decay scan all read one word table
    calls.clear()
    g = parse_series(str(fixtures_dir / "d2res_series.json"))
    assert g.real_free and g.decay_rate is not None and len(calls) == 1
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
    for f in cases:
        assert validate(f) == dict_validate(f)


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

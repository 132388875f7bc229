"""Free power series: validation, evaluation, derivatives, axiom checks.

A FreeSeries is its truncation: every theorem is checked at finite degree
with an explicit geometric tail bound instead of pretending to an infinite
series. The evaluation domain is wherever the tail bound is finite, which is
parameterized by the validated coefficient decay rate rather than by any
fixed radius convention.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import words as W
from .matcore import (
    CONTRACTION_TUPLE,
    HAAR_UNITARY,
    MatrixTuple,
    direct_sum,
    point_sampler,
    spectral_norm,
    spectral_norms,
    stack_points,
)

FD_STEP = 1e-5

# the most memory one stacked Horner pass, or one chunk of axiom_verify's
# trials, may hold; a larger stack runs in several consecutive parts
BATCH_BYTES = 1 << 24

_BOOLS = {bool, np.bool_}

BLOCK = "block"
LOCALIZING = "localizing"
FD = "fd"

METHODS = (BLOCK, LOCALIZING, FD)


@dataclass(frozen=True)
class FreeSeries:
    """A truncated free power series sum_I c_I X^I.

    :param d: number of letters.
    :param degree: truncation degree; every stored word has length <= degree.
    :param coeffs: mapping word -> coefficient; absent words are 0.
    :param real_free: claims the Hermitian symmetry c_{I*} = conj(c_I).
        The claim is checked by :func:`validate`, not at construction, so
        that diagnostics can report violations.
    :param decay_rate: optional r with |c_I| <= r^{-|I|}, also checked by
        :func:`validate`; it drives the evaluation tail bound.
    """

    d: int
    degree: int
    coeffs: Mapping[W.Word, complex]
    real_free: bool = False
    decay_rate: float | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.degree < 0:
            raise ValueError(f"need d >= 1 and degree >= 0, got d={self.d}, degree={self.degree}")
        clean = {}
        for w, c in self.coeffs.items():
            letters = tuple(map(int, w))
            if letters != tuple(w) or not _BOOLS.isdisjoint(map(type, w)):
                raise ValueError(f"word {list(w)} has a letter that is not an integer")
            w = letters
            W.check_alphabet(w, self.d)
            if len(w) > self.degree:
                raise ValueError(f"word {list(w)} is longer than the degree {self.degree}")
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient of {list(w)} is not finite")
            clean[w] = c
        object.__setattr__(self, "coeffs", clean)
        if self.decay_rate is not None and not self.decay_rate > 0:
            raise ValueError("decay_rate must be positive when given")

    @classmethod
    def from_vector(cls, order: W.WordOrder, c: np.ndarray) -> FreeSeries:
        """The series with coefficient c[i] at order.words[i], of degree
        order.degree: the inverse of the dense coefficient vector over an order.

        Only the nonzero entries are stored, in the order's order; exact zeros
        of either sign are dropped, as in a dict built with `if v != 0.0`. The
        words are the order's own, so their letters and lengths need no check
        and only finiteness is checked, on the array, with the constructor's
        message for the first bad word.
        """
        c = np.asarray(c, dtype=np.complex128)
        if c.shape != (len(order),):
            raise ValueError(f"coefficient vector of shape {c.shape} over an order of {len(order)} words")
        bad = ~np.isfinite(c)
        if bad.any():
            raise ValueError(f"coefficient of {list(order.words[int(bad.argmax())])} is not finite")
        keep = c != 0
        coeffs = dict(zip(itertools.compress(order.words, keep.tolist()), c[keep].tolist()))
        return cls._from_checked(order.d, order.degree, coeffs)

    @classmethod
    def _from_checked(
        cls, d: int, degree: int, coeffs: dict[W.Word, complex], real_free: bool = False, decay_rate: float | None = None
    ) -> FreeSeries:
        """The series storing coeffs as given, for producers whose words are
        already clean: tuples of int letters in 1..d, none longer than degree,
        with finite complex values. Only d, degree and the rate are checked;
        when one fails the constructor runs, so every message and its
        precedence stay in __post_init__."""
        if d < 1 or degree < 0 or (decay_rate is not None and not decay_rate > 0):
            return cls(d, degree, coeffs, real_free, decay_rate)
        f = object.__new__(cls)
        vars(f).update(d=d, degree=degree, coeffs=coeffs, real_free=real_free, decay_rate=decay_rate)
        return f

    def coeff(self, w: W.Word) -> complex:
        return self.coeffs.get(w, 0.0 + 0.0j)

    @cached_property
    def _letters(self) -> tuple[np.ndarray, np.ndarray]:
        """The one word table: the stored words as a right-aligned int64 letter
        array (insertion order) and the column of each word's first letter."""
        width = max(map(len, self.coeffs), default=0)
        letters = W.letter_array(self.coeffs, width)
        return letters, (letters == 0).sum(axis=1)  # the zeros pad the left

    @cached_property
    def keys(self) -> np.ndarray:
        """pos(w) of every stored word, in insertion order; built on first use.
        A word longer than max_degree(d, WORD_BUDGET) reads WORD_BUDGET."""
        letters, start = self._letters
        return W.suffix_positions(self.d, letters)[np.arange(len(start)), start]

    @cached_property
    def _partners(self) -> np.ndarray:
        """The insertion index of each stored word's involute w*, or -1 when
        w* is not stored; built on first use."""
        index = dict(zip(self.coeffs, itertools.count()))
        # w[::-1] is W.involute(w) without a call per word
        return np.array([index.get(w[::-1], -1) for w in self.coeffs], dtype=np.int64)

    @cached_property
    def _symmetry_violations(self) -> tuple[tuple[W.Word, float], ...]:
        """validate's symmetry scan, run once per series (empty unless real_free).

        Each word's partner w* comes from _partners. Each pair {w, w*} is
        judged once, at its first-inserted word w, by
        |c_{w*} - conj(c_w)| > 1e-12 max(1, |c_w|) (c_{w*} = 0 when w* is not
        stored), and is reported at min(w, w*), in sorted order.
        """
        sym: list[tuple[W.Word, float]] = []
        if self.real_free and self.coeffs:
            vals, partner = self.values, self._partners
            first = (partner < 0) | (partner >= np.arange(len(vals)))
            mirror = np.where(partner >= 0, vals[partner], 0.0)
            # hypot rounds as Python's abs does; np.abs on complex128 need not
            z = mirror - np.conj(vals)
            gap = np.hypot(z.real, z.imag)
            bad = np.flatnonzero(first & (gap > 1e-12 * np.maximum(1.0, np.hypot(vals.real, vals.imag))))
            if bad.size:
                words = list(self.coeffs)
                for i in bad:
                    sym.append((min(words[i], W.involute(words[i])), float(gap[i])))
        return tuple(sorted(sym))

    @cached_property
    def values(self) -> np.ndarray:
        """c_w of every stored word, in insertion order."""
        return np.fromiter(self.coeffs.values(), np.complex128, count=len(self.coeffs))

    @cached_property
    def splits(self) -> SplitList:
        """Every stored word w split as I* x_k J at each of its letters."""
        letters, start = self._letters
        forward = W.suffix_positions(self.d, letters)
        backward = W.suffix_positions(self.d, W.reversed_letters(letters))
        width = letters.shape[1]
        row, col = np.nonzero(letters)
        len_i = col - start[row]  # I* = w[:len_i], so I = w*[|w| - len_i:]
        return SplitList(
            letter=letters[row, col],
            pos_i=backward[row, width - len_i],
            pos_j=forward[row, col + 1],
            coeff=self.values[row],
        )

    @property
    def suffix_trie(self) -> tuple[TrieLevel, ...]:
        """The suffixes of the stored words as a trie, one TrieLevel per depth
        (see :attr:`_trie`)."""
        return self._trie[0]

    @cached_property
    def _trie(self) -> tuple[tuple[TrieLevel, ...], np.ndarray]:
        """The suffixes of the stored words as a trie, one TrieLevel per depth,
        and the node of each stored word (insertion order) within its depth.

        Depth l lists every distinct suffix s of length l (depth 0 is the
        empty word, the root) in lexicographic order, read left to right. The
        parent of x_k s is s, so the nodes of each letter form one run and
        their parents ascend within it.

        Built from the letters, not from the word positions, so it has no
        degree limit. The right-aligned letter array is cut into chunks of
        span columns. Read in base d + 1, the letters of a suffix that fall in
        its first chunk form a number that orders such pieces by length and
        then lexicographically, since no letter is 0. One argsort per chunk,
        from the last chunk to the first, ranks the suffixes that start in it
        by that number times the node count so far plus the node of the rest
        of the suffix, and equal keys are one node. span is small enough for
        that key to fit int64.
        """
        root = self.coeffs.get(W.EMPTY)
        levels = [TrieLevel(1, None if root is None else np.array([root]), np.zeros(0, dtype=np.int64), ())]
        letters, start = self._letters
        m, width = letters.shape
        if width == 0:
            return tuple(levels), np.zeros(m, dtype=np.int64)
        lengths = set((width - start).tolist())
        base = self.d + 1
        fit = (63 - (m * width + 1).bit_length()) // self.d.bit_length()
        chunks = -(-width // fit)
        span = -(-width // chunks)
        cols = chunks * span
        if cols > width:
            letters = np.pad(letters, ((0, 0), (cols - width, 0)))
        grid = letters.reshape(m, chunks, span)
        # part[r, c]: the letters of row r from column c to the end of its chunk
        part = (grid * base ** np.arange(span - 1, -1, -1))[:, :, ::-1].cumsum(axis=2)
        part = part[:, :, ::-1].reshape(m, cols)
        node = np.zeros((m, cols + 1), dtype=np.int64)  # node id of the suffix at (row, col)
        count, rep_r, rep_c = 1, [], []
        for q in reversed(range(chunks)):
            at = slice(q * span, (q + 1) * span)
            held = grid[:, q] != 0
            key = (part[:, at] * count + node[:, at.stop, None])[held]
            order = key.argsort()
            key = key[order]
            new = np.ones(len(key), dtype=bool)
            new[1:] = key[1:] != key[:-1]
            ids = np.empty_like(order)
            ids[order] = new.cumsum() + (count - 1)
            node[:, at][held] = ids
            count = int(ids.max()) + 1
            r, c = np.divmod(held.ravel().nonzero()[0][order[new]], span)
            rep_r.append(r)
            rep_c.append(c + at.start)
        r, c = np.concatenate(rep_r), np.concatenate(rep_c)
        depth = cols - c
        size = np.bincount(depth, minlength=width + 1)
        size[0] = 1
        first = size.cumsum() - size  # the id of the first node of each depth
        parent = node[r, c + 1] - first[depth - 1]
        coeff = np.zeros(count, dtype=np.complex128)
        # ids grow with depth, so a row's largest id is its whole word
        leaf = node.max(axis=1)
        coeff[leaf] = self.values
        # row i holds node id i + 1; each run of one depth and one letter is a block
        run = depth * base + letters[r, c] - 1
        starts = [0] + ((run[1:] != run[:-1]).nonzero()[0] + 1).tolist()
        stops, run = starts[1:] + [count - 1], run.tolist()
        size, row = size.tolist(), (first - 1).tolist()
        blocks = [[] for _ in range(width + 1)]
        for a, b in zip(starts, stops):
            l, k = divmod(run[a], base)
            blocks[l].append((k, a - row[l], b - row[l]))
        for l in range(1, width + 1):
            at = slice(row[l], row[l] + size[l])
            levels.append(TrieLevel(size[l], coeff[1:][at] if l in lengths else None, parent[at], tuple(blocks[l])))
        return tuple(levels), leaf - first[width - start]

    @cached_property
    def _split_model(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The split-depth cost model of :func:`_horner` per depth
        t = 0..width, as float arrays: (A, B) with cost N A_t + B_t and
        B_t = inf where the prefix order passes WORD_BUDGET; the prefix
        count wc(d, width - t); and the widest trie level at depth <= t."""
        sizes = np.array([level.size for level in self.suffix_trie], dtype=float)
        width = len(sizes) - 1
        span = np.arange(width, -1, -1)  # width - t
        top = W.max_degree(self.d, W.WORD_BUDGET)
        L = np.minimum(span, top)  # no count past the budget is formed
        count = L + 1.0 if self.d == 1 else (float(self.d) ** (L + 1) - 1) / (self.d - 1)
        A = count + sizes.cumsum()
        B = np.where(span <= top, sizes * count, np.inf)
        return A, B, count, np.maximum.accumulate(sizes)

    @cached_property
    def _prefix_tables(self) -> dict[int, np.ndarray]:
        return {}

    def _prefix_coeffs(self, t: int) -> np.ndarray:
        """C_t of :func:`_horner`: c_{ps} at (node of s, pos(p*)) for every
        stored word ps with |s| = t, over the depth-t nodes and the words p of
        length <= width - t; built on first use for each t and kept.

        Each word's node at depth t is its own node walked up its parents,
        and pos(p*) is read from the suffix positions of the involutes, as
        the split list reads pos I. One fancy-index assignment scatters them.
        """
        C = self._prefix_tables.get(t)
        if C is None:
            levels, node = self._trie
            letters, start = self._letters
            width = letters.shape[1]
            length = width - start
            keep = length >= t
            node, length = node[keep], length[keep]
            for l in range(width, t, -1):
                at = length >= l
                node[at] = levels[l].parent[node[at]]
            backward = W.suffix_positions(self.d, W.reversed_letters(letters[keep]))
            C = np.zeros((levels[t].size, W.word_count(self.d, width - t)), dtype=np.complex128)
            C[node, backward[np.arange(len(node)), width - length + t]] = self.values[keep]
            self._prefix_tables[t] = C
        return C


class TrieLevel(NamedTuple):
    """The nodes of one depth of a series' suffix trie, and how they fold
    into their parents one depth up (see :func:`_horner`).

    :param size: the number of nodes.
    :param coeff: c_s of each node s, 0 where s is not a stored word; None
        when no node is.
    :param parent: the node t one depth up of each node x_k t; empty at the root.
    :param blocks: one (k - 1, start, stop) per letter x_k that begins a
        node, in letter order: nodes start..stop - 1 are the x_k t, with
        ascending parents; a block as long as the level above holds one
        child of every parent.
    """

    size: int
    coeff: np.ndarray | None
    parent: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]


class SplitList(NamedTuple):
    """One row per stored word w and letter position: w = I* x_k J.

    Row r has k = letter[r], pos I, pos J and c_w. Each (I, k, J) names one
    word, so no two rows of one letter share a cell (pos I, pos J). In
    graded-lex order pos u < word_count(d, L) exactly when |u| <= L, so the
    positions also carry the lengths; a word past max_degree(d, WORD_BUDGET)
    reads WORD_BUDGET, which no enumerated order reaches.
    """

    letter: np.ndarray
    pos_i: np.ndarray
    pos_j: np.ndarray
    coeff: np.ndarray




@dataclass(frozen=True)
class SeriesDiagnostics:
    """Report of :func:`validate`: which invariants the coefficients break."""

    symmetry_violations: tuple[tuple[W.Word, float], ...]
    decay_violations: tuple[tuple[W.Word, float], ...]

    @property
    def ok(self) -> bool:
        return not self.symmetry_violations and not self.decay_violations


def validate(f: FreeSeries) -> SeriesDiagnostics:
    """Check the real_free symmetry and the decay bound, without raising.

    The symmetry scan is f._symmetry_violations, cached on the series
    because certify_monotone and the other certificates check the symmetry
    on every call.
    The decay scan flags every w with |c_w| > r^{-|w|} (1 + 1e-12); a bound
    past the float range is inf and flags nothing.
    """
    decay: list[tuple[W.Word, float]] = []
    if f.decay_rate is not None:
        letters, start = f._letters
        width = letters.shape[1]
        # numpy scalar powers and hypot round as Python's ** and abs do
        with np.errstate(over="ignore"):
            bound = np.array([np.float64(f.decay_rate) ** -l for l in range(width + 1)])[width - start]
        mag = np.hypot(f.values.real, f.values.imag)
        bad = mag > bound * (1 + 1e-12)
        decay = list(zip(itertools.compress(f.coeffs, bad.tolist()), (mag - bound)[bad].tolist()))
    return SeriesDiagnostics(f._symmetry_violations, tuple(sorted(decay)))


def require_real_free(f: FreeSeries, what: str) -> None:
    if not f.real_free:
        raise ValueError(f"{what} needs a real_free series")
    if f._symmetry_violations:
        w, gap = f._symmetry_violations[0]
        raise ValueError(
            f"{what}: coefficient symmetry fails at word {list(w)} (gap {gap:.3e})"
        )


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Truncated value plus an operator-norm bound on the omitted tail.

    tail_bound is finite when d * max||X_i|| < decay_rate (geometric tail),
    and +inf when the rate is unknown or the point is too large.
    """

    value: np.ndarray
    tail_bound: float


def tail_bound(f: FreeSeries, X: MatrixTuple) -> float:
    if f.decay_rate is None:
        return float("inf")
    rho = X.max_norm()
    q = f.d * rho / f.decay_rate
    if q >= 1:
        return float("inf")
    return float(q ** (f.degree + 1) / (1 - q))


def _add_scalars(U: np.ndarray, c: np.ndarray | None) -> None:
    """Add c[i] I to the rows of node i at every point, in place.

    U is the (P, len(c) * rows, N) state of :func:`_horner`, rows <= N, so
    c[i] lands on the diagonal of rows i * rows .. (i + 1) * rows - 1 of
    each point. Every state is a fresh C-contiguous array, so the reshape is
    a view of U; its sizes are explicit, so that N = 0 works too."""
    if c is not None:
        P, m = len(U), len(c)
        U.reshape(P, m, U.shape[1] // m * U.shape[2])[:, :, :: U.shape[2] + 1] += c[:, None]


def _split_depth(f: FreeSeries, N: int) -> int:
    """The depth t at which :func:`_horner` switches from the prefix GEMM to
    the level folds, for N x N points (see the cost model there)."""
    A, B = f._split_model[:2]
    return len(A) - 1 - int(np.argmin((N * A + B)[::-1]))


def _horner(f: FreeSeries, points: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` rows of f at each of a stack of (d, N, N) points, as
    a (P, rows, N) array.

    A right Horner pass over the suffix trie: U_s = c_s I + sum_k U_{x_k s} X_k
    from the deepest level up, so that U_e = f(X). Unrolled, the state of a
    node s is U_s = sum_p c_{ps} X^p over the prefixes p with ps stored, so at
    a split depth t the whole depth-t state is one GEMM C_t S: row s of C_t
    holds c_{ps} in the column pos(p*), and S stacks the first rows rows of
    X^p for every word p of length <= width - t, which is entry pos(p*) of
    :func:`words._reversed_levels`. The levels above t then fold as below.
    Only the first rows of each U_s are carried, stacked node by node, so the
    rows of one letter's nodes are contiguous and each block of a level is
    one stacked GEMM on them, one GEMM per point as numpy's matmul loops over
    the stack.

    Counted in multiply-adds per row and column of a state, S costs
    N wc(d, width - t), the folds N sum_{0 < l <= t} size_l and C_t S
    size_t wc(d, width - t), so t = :func:`_split_depth` minimizes

        N (wc(d, width - t) + sum_{l <= t} size_l) + size_t wc(d, width - t)

    over the t whose prefix order fits WORD_BUDGET, ties going to the deepest
    t. It depends on the series and N only, so every point of a stack, and a
    stack cut in parts, rounds alike. t = width builds no S and is the plain
    pass, which d = 1 chains always choose, and deep sparse series at small
    N; a dense series of degree L chooses t near L / 2, where the cost is
    about count rows N + 2 d^{L/2} rows N^2 instead of count rows N^2.

    Each level folds into its parents in letter order: a dense block (one
    child of every parent) is a product of the level above's shape, and a
    sparse block goes to its parents' rows. The first block sets the level.
    When it is sparse, the level starts at +0.0, the parents of the later
    blocks at -0.0, which adding a product to leaves exactly that product,
    signed zeros included, and the first block's parents at its product.
    """
    trie = f.suffix_trie
    P, N = len(points), points.shape[-1]
    letters = points.swapaxes(0, 1)  # letters[k]: the (P, N, N) stack of X_{k+1}
    t = _split_depth(f, N)
    if t < len(trie) - 1:
        prefixes = W.WordOrder(f.d, len(trie) - 1 - t)
        S = W._reversed_levels(points, prefixes, rows).reshape(P, len(prefixes), rows * N)
        U = (f._prefix_coeffs(t) @ S).reshape(P, trie[t].size * rows, N)
        del S  # the folds hold no prefix stack
    else:
        U = np.zeros((P, trie[t].size * rows, N), dtype=np.complex128)
        _add_scalars(U, trie[t].coeff)
    for depth in range(t, 0, -1):
        U = _fold(U, trie[depth], trie[depth - 1].size, letters, rows)
        _add_scalars(U, trie[depth - 1].coeff)
    return U


def _fold(U: np.ndarray, level: TrieLevel, up: int, letters: np.ndarray, rows: int) -> np.ndarray:
    """sum_k U_{x_k s} X_k for the up parents s of one trie level, from the
    (P, level.size * rows, N) state U, as a fresh (P, up * rows, N) state."""
    P, N = len(U), U.shape[-1]
    (k, _, b), *rest = level.blocks
    V = U[:, : b * rows] @ letters[k]
    if b < up:
        first, V = V, np.zeros((P, up * rows, N), dtype=np.complex128)
        grid = V.reshape(P, up, rows * N)
        grid[:, level.parent[b:]] = -0.0
        grid[:, level.parent[:b]] = first.reshape(P, b, rows * N)
    for k, a, b in rest:
        product = U[:, a * rows : b * rows] @ letters[k]
        if b - a == up:
            V += product
        else:
            V.reshape(P, up, rows * N)[:, level.parent[a:b]] += product.reshape(P, b - a, rows * N)
    return V


def _value_at(f: FreeSeries, X: MatrixTuple) -> np.ndarray:
    """f(X) without its tail bound, so without the SVD of X the bound takes:
    the stacked Horner pass of :func:`eval_series_batch` at a stack of one
    point. Callers that read only the value use this."""
    if f.d != X.d:
        raise ValueError(f"series in {f.d} letters evaluated at a {X.d}-tuple")
    return _horner(f, X.mats[None], X.n)[0]


def eval_series(f: FreeSeries, X: MatrixTuple) -> EvalResult:
    """f(X) = sum_{|I| <= degree} c_I X^I with the geometric tail bound."""
    return EvalResult(value=_value_at(f, X), tail_bound=tail_bound(f, X))


def eval_series_batch(f: FreeSeries, points: Sequence[MatrixTuple]) -> np.ndarray:
    """f at same-size points, (P, n, n), each value equal to its eval_series.

    One right Horner pass over the suffix trie for the whole stack (see
    :func:`_horner`): one stacked prefix stack and coefficient GEMM up to the
    split depth, then one stacked GEMM per letter per level over that
    letter's nodes. A stack whose pass would hold more than BATCH_BYTES runs
    as several passes over consecutive points, each under that size.
    """
    Xs = stack_points(points)
    if Xs.shape[1] != f.d:
        raise ValueError(f"series in {f.d} letters evaluated at a {Xs.shape[1]}-tuple")
    n = Xs.shape[-1]
    # per point: the prefix stack, and at the widest level the folds pass
    # (the depth-t state included) its state, the level above it, one
    # product and the copies of its parents' rows that numpy's fancy-index
    # add makes for a sparse block (up to three): at most 6 widest states
    t = _split_depth(f, n)
    _, _, count, widest = f._split_model
    step = max(1, BATCH_BYTES // int(16 * (count[t] + 6 * widest[t]) * n * n or 1))
    parts = [_horner(f, Xs[i : i + step], n) for i in range(0, len(Xs), step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# no library caller; kept because perfbench/spans.py traces it by name
def monomial_vector(X: MatrixTuple, L: int) -> np.ndarray:
    """The stacked monomial vector m_X: block-row I is X^I in canonical order."""
    order = W.enumerate_words(X.d, L)
    return W.monomial_stack(X, order).reshape(len(order) * X.n, X.n)


def localizing_matrix(f: FreeSeries, k: int, L: int) -> np.ndarray:
    """The truncated x_k-localizing matrix (c_{I* x_k J})_{I,J}, |I|,|J| <= L.

    Scattered from the series' split list: every stored word w = I* x_k J
    with |I|, |J| <= L puts c_w at (pos I, pos J) in one fancy-index
    assignment, and every other entry is 0.
    """
    if not 1 <= k <= f.d:
        raise ValueError(f"letter k={k} is outside 1..{f.d}")
    order = W.enumerate_words(f.d, L)
    s = f.splits
    count = len(order)
    pick = (s.letter == k) & (s.pos_i < count) & (s.pos_j < count)
    M = np.zeros((count, count), dtype=np.complex128)
    M[s.pos_i[pick], s.pos_j[pick]] = s.coeff[pick]
    return M


def pencil_contraction(f: FreeSeries, X: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """left_I = X^{I*} and T[k-1, I] = sum_J c_{I* x_k J} X^J over |I|, |J| < degree.

    Contracts each localizing pencil with the monomial stack at X, so that
    Df(X)[H] = sum_k sum_I left_I H_k T[k-1, I], without building the
    count x count pencil. A stored word I* x_k J has |I| + 1 + |J| <= degree,
    so the row level |I| = a of the x_k pencil is nonzero only in the words
    J of length <= degree - 1 - a, which graded-lex order lists first. The
    split list is scattered into that staircase of dense (d^a, width_a)
    blocks, one per letter and level; the d blocks of a level are stacked
    letter-major and make one GEMM against the first width_a monomials.
    left is read straight from the builder behind the monomial stack:
    :func:`words.reversed_stack` at X, one GEMM per letter per level, with
    no transposed tuple and no swap copy.
    """
    order = W.enumerate_words(X.d, max(f.degree - 1, 0))
    stack = W.monomial_stack(X, order)
    left = W.reversed_stack(X, order)
    d, n, levels = X.d, X.n, range(order.degree + 1)
    first = np.array([W.word_count(d, a - 1) for a in levels])
    rows = np.array([d**a for a in levels])
    width = np.array([W.word_count(d, order.degree - a) for a in levels])
    size = d * rows * width
    start = np.cumsum(size) - size
    s = f.splits
    lv = np.searchsorted(first, s.pos_i, side="right") - 1
    flat = np.zeros(size.sum(), dtype=np.complex128)
    flat[start[lv] + ((s.letter - 1) * rows[lv] + s.pos_i - first[lv]) * width[lv] + s.pos_j] = s.coeff
    monomials = stack.reshape(len(order), n * n)
    T = np.empty((d, len(order), n, n), dtype=np.complex128)
    for a in levels:
        block = flat[start[a] : start[a] + size[a]].reshape(d * rows[a], width[a])
        T[:, first[a] : first[a] + rows[a]] = (block @ monomials[: width[a]]).reshape(d, rows[a], n, n)
    return left, T


def derivative(
    f: FreeSeries,
    X: MatrixTuple,
    H: MatrixTuple,
    method: str = BLOCK,
    richardson: bool = False,
) -> np.ndarray:
    """Directional derivative Df(X)[H], by one of three routes.

    - block: f at the 2n x 2n tuple [[X_i, H_i], [0, X_i]] is
      [[f(X), Df(X)[H]], [0, f(X)]]; the Horner pass carries only its top
      block row, since the lower one is always [0, A], and reads the
      upper-right n x n corner;
    - localizing: Df(X)[H] = sum_k sum_{I,J} c_{I* x_k J} X^{I*} H_k X^J,
      the coefficient-pencil formula, contracted as sum_k sum_I X^{I*} H_k T_I
      with T_I = sum_J c_{I* x_k J} X^J. T comes from the staircase of
      :func:`pencil_contraction`, so no count x count pencil is built, and
      the sum over I is two GEMMs per letter: the stacked X^{I*} times H_k,
      then those products side by side times the stacked T_I;
    - fd: central difference (f(X + tH) - f(X - tH)) / 2t at t = FD_STEP,
      with optional Richardson refinement.

    All three agree within 1e-6 relative on validated inputs, and the output
    is linear in H.
    """
    if not (f.d == X.d == H.d):
        raise ValueError(f"mismatched lengths: series d={f.d}, X d={X.d}, H d={H.d}")
    if X.n != H.n:
        raise ValueError(f"mismatched sizes: X is {X.n} x {X.n}, H is {H.n} x {H.n}")
    if method == BLOCK:
        n = X.n
        big = np.zeros((X.d, 2 * n, 2 * n), dtype=np.complex128)
        big[:, :n, :n] = big[:, n:, n:] = X.mats
        big[:, :n, n:] = H.mats
        # a one-row product goes through numpy's gemv, which rounds apart
        # from the gemm of the full pass, so at n = 1 both rows are carried
        return _horner(f, big[None], n if n > 1 else 2 * n)[0, :n, n:]
    if method == LOCALIZING:
        if f.decay_rate is not None and X.max_norm() * f.d >= 1:
            warnings.warn(
                "localizing derivative at max||X_i|| * d >= 1; the pencil "
                "formula is only proven on the small polydisk",
                stacklevel=2,
            )
        left, T = pencil_contraction(f, X)
        c, n = len(left), X.n
        rows = left.reshape(c * n, n)
        return sum(
            (rows @ Hk).reshape(c, n, n).swapaxes(0, 1).reshape(n, c * n) @ Tk.reshape(c * n, n)
            for Hk, Tk in zip(H.mats, T)
        )
    if method == FD:
        def central(t: float) -> np.ndarray:
            # one pass per shifted point; on the split pass a stack of the two
            # measured 1.4-1.5x faster at n = 6-8 (see ROADMAP), not yet taken
            plus = _horner(f, (X.mats + t * H.mats)[None], X.n)[0]
            minus = _horner(f, (X.mats - t * H.mats)[None], X.n)[0]
            return (plus - minus) / (2 * t)

        if richardson:
            return (4 * central(FD_STEP / 2) - central(FD_STEP)) / 3
        return central(FD_STEP)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


COMMUTATOR = "commutator"
DIRECT_SUM_DERIVATIVE = "direct_sum_derivative"
TENSOR_DERIVATIVE = "tensor_derivative"


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    residual: float
    passed: bool


def check_identity(f: FreeSeries, kind: str, X: MatrixTuple, aux, tol: float = 1e-9) -> IdentityReport:
    """Numerically verify one of the structural derivative identities.

    - commutator: Df(X)[[iA, X]] = [iA, f(X)] for Hermitian A (aux = A);
    - direct_sum_derivative: with both antidiagonal corners set to X - Y,
      Df(X (+) Y)[corner(X - Y)] = corner(f(X) - f(Y)) (aux = Y, a tuple of
      the same size as X);
    - tensor_derivative: Df(X (x) I)[A (x) B] = Df(X)[A] (x) B
      (aux = (A, B): a self-adjoint tuple and a Hermitian matrix).

    The residual is ||LHS - RHS||_2 and passes iff <= tol * (1 + ||RHS||_2).
    """
    n = X.n
    if kind == COMMUTATOR:
        A = np.asarray(aux, dtype=np.complex128)
        if A.shape != (n, n):
            raise ValueError(f"aux matrix must be {n} x {n}, got {A.shape}")
        H = MatrixTuple(1j * (A @ X.mats - X.mats @ A))
        lhs = derivative(f, X, H)
        fX = _value_at(f, X)
        rhs = 1j * (A @ fX - fX @ A)
    elif kind == DIRECT_SUM_DERIVATIVE:
        Y = aux
        if not isinstance(Y, MatrixTuple) or Y.d != X.d or Y.n != X.n:
            raise ValueError("aux must be a tuple matching X in length and size")
        corner = np.zeros((X.d, 2 * n, 2 * n), dtype=np.complex128)
        corner[:, :n, n:] = corner[:, n:, :n] = X.mats - Y.mats
        lhs = derivative(f, direct_sum(X, Y), MatrixTuple(corner))
        rhs = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        rhs[:n, n:] = rhs[n:, :n] = _value_at(f, X) - _value_at(f, Y)
    elif kind == TENSOR_DERIVATIVE:
        A, B = aux
        if not isinstance(A, MatrixTuple) or A.d != X.d or A.n != X.n:
            raise ValueError("aux[0] must be a tuple matching X in length and size")
        B = np.asarray(B, dtype=np.complex128)
        eye = np.eye(B.shape[0])
        bigX = MatrixTuple(np.kron(X.mats, eye))
        bigH = MatrixTuple(np.kron(A.mats, B))
        lhs = derivative(f, bigX, bigH)
        rhs = np.kron(derivative(f, X, A), B)
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    residual = spectral_norm(lhs - rhs)
    return IdentityReport(kind=kind, residual=float(residual), passed=residual <= tol * (1 + spectral_norm(rhs)))


@dataclass(frozen=True)
class AxiomTrial:
    n: int
    graded: bool
    direct_sum_residual: float
    similarity_residual: float
    error: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Fuzzing report for the free-function axioms.

    max residuals are over the trials that ran; failures records evaluator
    errors (recorded per trial, never fatal).
    """

    trials: tuple[AxiomTrial, ...]
    tol: float

    @property
    def max_direct_sum(self) -> float:
        vals = [t.direct_sum_residual for t in self.trials if t.error is None]
        return max(vals) if vals else float("nan")

    @property
    def max_similarity(self) -> float:
        vals = [t.similarity_residual for t in self.trials if t.error is None]
        return max(vals) if vals else float("nan")

    @property
    def all_graded(self) -> bool:
        return all(t.graded for t in self.trials if t.error is None)

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(t.error for t in self.trials if t.error is not None)

    @property
    def passed(self) -> bool:
        ran = [t for t in self.trials if t.error is None]
        if not ran or self.errors:
            return False
        return (
            self.all_graded
            and self.max_direct_sum <= self.tol
            and self.max_similarity <= self.tol
        )


def _default_sampler(d: int) -> Callable[[int, int], MatrixTuple]:
    return point_sampler(CONTRACTION_TUPLE, d)


def _ok(value):
    """value, unless it is the exception its step raised: then raise it."""
    if isinstance(value, Exception):
        raise value
    return value


def _attempt(fn: Callable, *args):
    """fn(*args), or the first exception among args, or the exception fn raised."""
    try:
        return fn(*map(_ok, args))
    except Exception as exc:
        return exc


def _grouped(one: Callable, many: Callable | None, items: list, key: Callable) -> list:
    """one(item) for every item, in order, an exception standing for a failed
    step; an item that is an exception stays as it is.

    Items with the same key go through many(group) in one call, which
    returns one value per item, when many is given and the key is not None.
    If that call raises, the group is redone item by item with one, so each
    item gets its own value or its own exception.
    """
    out = list(items)
    groups: dict = {}
    for i, item in enumerate(items):
        if not isinstance(item, Exception):
            groups.setdefault(key(item) if many else None, []).append(i)
    for k, idx in groups.items():
        if k is not None:
            try:
                for i, value in zip(idx, many([items[i] for i in idx])):
                    out[i] = value
                continue
            except Exception:
                pass
        for i in idx:
            out[i] = _attempt(one, items[i])
    return out


def _draws(sampler: Callable, ns: list[int], seeds: list[int]) -> list:
    """sampler(n, seed) for every pair; one sampler.batch(n, seeds) per size
    when the sampler has that form."""
    batch = getattr(sampler, "batch", None)
    many = batch and (lambda group: batch(group[0][0], [s for _, s in group]))
    return _grouped(lambda item: sampler(*item), many, list(zip(ns, seeds)), key=lambda item: item[0])


def _conjugate(X: MatrixTuple, U: np.ndarray) -> MatrixTuple:
    return MatrixTuple(U.conj().T @ X.mats @ U)


def _stacked_norms(mats: list[np.ndarray]) -> list[float]:
    return spectral_norms(np.array(mats)).tolist()


def _norm_group(M: np.ndarray):
    # a float residual is normed as float, never promoted to complex
    return (M.shape, M.dtype) if M.ndim == 2 and M.size else None


def axiom_verify(
    evaluator: Callable[[MatrixTuple], np.ndarray],
    d: int,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    sampler: Callable[[int, int], MatrixTuple] | None = None,
    sizes: tuple[int, ...] = (1, 2, 3),
) -> AxiomReport:
    """Fuzz a black-box evaluator against the free-function axioms.

    Per trial: gradedness (output size equals input size), the direct-sum
    axiom f(X (+) Y) = f(X) (+) f(Y), and unitary similarity
    f(U* X U) = U* f(X) U, reported as relative residuals. Trial t draws X
    of size sizes[t % len(sizes)] with seed s = seed + 7919 t, Y of the next
    size with seed s + 1 and U with seed s + 2.

    The trials run in chunks of consecutive trials whose points, values and
    operands hold at most BATCH_BYTES (a chunk has at least one trial), and
    the work runs in three passes over each chunk. First every X, Y and U
    is drawn, one batch per size, and X (+) Y and U* X U are formed. Then
    the chunk's points are evaluated, one call per point size. Then the
    residual matrices are built trial by trial and their spectral norms are
    taken in stacked SVDs, one per shape and dtype. An evaluator or sampler
    with a batch attribute is called in batches: evaluator.batch(points)
    returns the (P, n, n) values of same-size points, sampler.batch(n,
    seeds) the draws of many seeds. Without it the plain callable runs once
    per point. A batch that raises is redone point by point, and a stacked
    SVD that raises matrix by matrix, so errors stay per trial.

    A trial that fails records the first error in this order: drawing X,
    drawing Y, f(X), f(Y), X (+) Y, f(X (+) Y), the direct-sum residual,
    drawing U, f(U* X U) (with U* X U), the similarity residual. The
    evaluator may also see the later points of a failed trial; the report
    is as if each trial had stopped at its first error.
    """
    sampler = sampler or _default_sampler(d)
    ns = [sizes[t % len(sizes)] for t in range(trials)]
    ns2 = [sizes[(t + 1) % len(sizes)] for t in range(trials)]
    seeds = [seed + 7919 * t for t in range(trials)]
    chunks, start, held = [], 0, 0
    for t, (n, n2) in enumerate(zip(ns, ns2)):
        # four points of d coordinates, their values, U and the operands
        size = 16 * (d + 4) * (2 * n * n + n2 * n2 + (n + n2) ** 2)
        if held + size > BATCH_BYTES and t > start:
            chunks.append(slice(start, t))
            start, held = t, 0
        held += size
    chunks.append(slice(start, trials))
    out: list[AxiomTrial] = []
    for chunk in chunks:
        out += _axiom_trials(evaluator, sampler, ns[chunk], ns2[chunk], seeds[chunk])
    return AxiomReport(trials=tuple(out), tol=tol)


def _axiom_trials(evaluator: Callable, sampler: Callable, ns: list[int], ns2: list[int], seeds: list[int]) -> list[AxiomTrial]:
    """The trials of axiom_verify with these sizes and seeds, in three passes."""
    xs = _draws(sampler, ns, seeds)
    ys = _draws(sampler, ns2, [s + 1 for s in seeds])
    us = _draws(point_sampler(HAAR_UNITARY), ns, [s + 2 for s in seeds])
    points = []
    for X, Y, U in zip(xs, ys, us):
        points += [X, Y, _attempt(direct_sum, X, Y), _attempt(_conjugate, X, U)]
    values = _grouped(
        lambda X: np.asarray(evaluator(X)),
        getattr(evaluator, "batch", None),
        points,
        key=lambda X: X.mats.shape if isinstance(X, MatrixTuple) else None,
    )
    # per trial: gradedness and the four norm operands, or fewer and the error
    parts: list[tuple[bool, list]] = []
    for t, (n, n2) in enumerate(zip(ns, ns2)):
        fX_, fY_, both_, sim_ = values[4 * t : 4 * t + 4]
        graded, mats = False, []
        try:
            _ok(xs[t])
            _ok(ys[t])
            fX = _ok(fX_)
            graded = fX.shape == (n, n)
            fY = _ok(fY_)
            both = _ok(both_)
            stacked = np.zeros((n + n2, n + n2), dtype=np.result_type(fX, fY, np.float64))
            stacked[:n, :n], stacked[n:, n:] = fX, fY
            mats += [both - stacked, stacked]
            U = _ok(us[t])
            sim = _ok(sim_)
            mats += [sim - U.conj().T @ fX @ U, fX]
        except Exception as exc:
            mats.append(exc)
        parts.append((graded, mats))
    norms = iter(_grouped(spectral_norm, _stacked_norms, [M for _, mats in parts for M in mats], key=_norm_group))
    out = []
    for n, (graded, mats) in zip(ns, parts):
        got = [next(norms) for _ in mats]
        exc = next((v for v in got if isinstance(v, Exception)), None)
        if exc is None:
            ds_norm, stacked_norm, sim_norm, fX_norm = got
            ds_res, sim_res = ds_norm / (1 + stacked_norm), sim_norm / (1 + fX_norm)
            out.append(AxiomTrial(n=n, graded=graded, direct_sum_residual=float(ds_res), similarity_residual=float(sim_res)))
        else:  # recorded, not fatal
            out.append(
                AxiomTrial(n=n, graded=False, direct_sum_residual=float("nan"), similarity_residual=float("nan"), error=f"{type(exc).__name__}: {exc}")
            )
    return out


def series_evaluator(f: FreeSeries) -> Callable[[MatrixTuple], np.ndarray]:
    """The series as a black-box evaluator (for axiom fuzzing); its batch
    attribute evaluates same-size points with one eval_series_batch."""

    def ev(X: MatrixTuple) -> np.ndarray:
        return _value_at(f, X)

    ev.batch = lambda points: eval_series_batch(f, points)
    return ev

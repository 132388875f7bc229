"""Words in d noncommuting letters: enumeration, involution, evaluation.

A word is a tuple of 1-based letter indices; the empty tuple is the identity
word e. The canonical enumeration is graded (degree-major) and lexicographic
within each degree, with the empty word at position 0. This order is fixed
globally so that word-indexed matrices are reproducible bit for bit.

The position (integer key) of a word w = x_{w_1} ... x_{w_l} in that order is

    pos(w) = offset(l) + sum_i (w_i - 1) d^(l - i),   offset(l) = word_count(d, l - 1),

and :func:`suffix_positions` is the one routine that computes it. No order
from :func:`enumerate_words` holds more than WORD_BUDGET words, so positions
are only computed for words of length <= max_degree(d, WORD_BUDGET); a
longer word reads WORD_BUDGET, which indexes no order. Keys are int64 and
never overflow, whatever the degree.

One routine, :func:`_reversed_levels`, stacks the values of an order's
words: the first rows rows of X^{I*} for every word I, at every point of a
stack of points. It is built level by level with one GEMM per letter per
level: all words of a level times one letter form a single tall product per
point, written into one preallocated stack. :func:`reversed_stack` (the
X^{I*}) and :func:`monomial_stack` (the X^I) are its one-point, all-rows
cases, and the Horner pass of ``series`` reads its first rows at a stack of
points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import BudgetError, MatrixTuple

Word = tuple[int, ...]

WORD_BUDGET = 100_000

EMPTY: Word = ()


def word_count(d: int, L: int) -> int:
    """Number of words of length <= L: (d^{L+1} - 1)/(d - 1), or L+1 if d=1."""
    if d == 1:
        return L + 1
    return (d ** (L + 1) - 1) // (d - 1)


def max_degree(d: int, limit: int) -> int:
    """The largest L with word_count(d, L) <= limit, or -1 when there is none.

    For d >= 2 that is one less than the largest e with d^e <= limit (d - 1)
    + 1. A float logarithm finds e to within one and integer powers no
    larger than that bound settle it, so no count past the limit is built.
    """
    if limit < 1:
        return -1
    if d == 1:
        return limit - 1
    top = limit * (d - 1) + 1
    e = int(math.log(top, d))
    while d ** (e + 1) <= top:
        e += 1
    while d**e > top:
        e -= 1
    return e - 1


@dataclass(frozen=True, eq=False)
class WordOrder:
    """The canonical graded-lex enumeration of words of length <= degree."""

    d: int
    degree: int

    def __len__(self) -> int:
        return word_count(self.d, self.degree)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The words as tuples, built on first read; len needs only d and degree."""
        letters = range(1, self.d + 1)
        return tuple(itertools.chain.from_iterable(itertools.product(letters, repeat=l) for l in range(self.degree + 1)))


def enumerate_words(d: int, L: int) -> WordOrder:
    """All words of length <= L in graded-lex order.

    :raises BudgetError: when the count would exceed WORD_BUDGET; the message
        names the degree and the largest degree within the budget, so callers
        can lower it.
    """
    if d < 1 or L < 0:
        raise ValueError(f"enumerate_words needs d >= 1 and L >= 0, got d={d}, L={L}")
    top = max_degree(d, WORD_BUDGET)
    if L > top:
        raise BudgetError(
            f"words of length <= {L} in {d} letters exceed the budget of {WORD_BUDGET} words; "
            f"the largest degree within it is {top}"
        )
    return WordOrder(d=d, degree=L)


def letter_array(words, width: int) -> np.ndarray:
    """The words as rows of an (m, width) int64 array, right-aligned.

    A row holds its word in its last |w| columns and 0 before them. Letters
    must already be ints, and no word may be longer than width.
    """
    words = list(words)
    lengths = np.fromiter(map(len, words), np.int64, count=len(words))
    flat = np.fromiter(itertools.chain.from_iterable(words), np.int64, count=int(lengths.sum()))
    out = np.zeros((len(words), width), dtype=np.int64)
    out[np.arange(width) >= width - lengths[:, None]] = flat
    return out


def reversed_letters(letters: np.ndarray) -> np.ndarray:
    """The involutes w* of the rows of a right-aligned letter array, right-aligned.

    Reading every letter backwards reverses each word and the row order, so
    the letters land in the row-flipped mask of the input.
    """
    filled = letters > 0
    out = np.zeros_like(letters)
    out[filled[::-1]] = letters[filled][::-1]
    return out[::-1]


def suffix_positions(d: int, letters: np.ndarray) -> np.ndarray:
    """pos of every suffix of every row of a right-aligned letter array.

    Entry (r, c) of the (m, width + 1) int64 result is the position of the
    word in columns c.. of row r, for every c from the row's first letter to
    width (the empty word, position 0). Entries left of a row's first letter
    mean nothing. A word of length l thus has pos(w) at column width - l.
    A suffix longer than max_degree(d, WORD_BUDGET) reads WORD_BUDGET.
    """
    m, width = letters.shape
    top = min(width, max_degree(d, WORD_BUDGET))
    weights = np.array([d ** (top - 1 - c) for c in range(top)], dtype=np.int64)
    out = np.full((m, width + 1), WORD_BUDGET, dtype=np.int64)
    out[:, width - top :] = [word_count(d, top - c - 1) for c in range(top + 1)]
    digits = np.maximum(letters[:, width - top :] - 1, 0) * weights
    out[:, width - top : width] += np.cumsum(digits[:, ::-1], axis=1)[:, ::-1]
    return out


def involute(w: Word) -> Word:
    """Reverse the letters: (x1 x2)* = x2 x1. An involution."""
    return tuple(reversed(w))


def check_alphabet(w: Word, d: int) -> None:
    for letter in w:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} in word {list(w)} is outside 1..{d}")


def _reversed_levels(points: np.ndarray, order: WordOrder, rows: int) -> np.ndarray:
    """The first rows rows of X^{I*} for every word I of the order at every
    point X of a (P, d, N, N) stack, as a (P, count, rows, N) array.

    Graded-lex order lists the words of length l + 1 as x_k w, k major, and
    X^{(x_k w)*} = X^{w*} X_k, so the first rows rows of a word's value are
    those of its suffix's value times X_k: the restriction to rows is exact.
    The m words of length l are one (m rows, N) operand per point, and for
    each letter k one stacked GEMM writes their products with X_k into the
    level's k-th run of the preallocated stack: d GEMMs per level, one per
    point as numpy's matmul loops over the stack, not one per word.
    """
    P, d, N = points.shape[:3]
    out = np.empty((P, len(order), rows, N), dtype=np.complex128)
    out[:, 0] = np.eye(rows, N)
    start, m = 0, 1  # the first position and the count of the words one shorter
    for _ in range(order.degree):
        above = out[:, start : start + m].reshape(P, m * rows, N)
        for k in range(d):
            run = start + m * (1 + k)
            np.matmul(above, points[:, k], out=out[:, run : run + m].reshape(P, m * rows, N))
        start, m = start + m, d * m
    return out


def _check_order(X: MatrixTuple, order: WordOrder) -> None:
    if X.d != order.d:
        raise ValueError(f"word order in {order.d} letters evaluated at a {X.d}-tuple")


def reversed_stack(X: MatrixTuple, order: WordOrder) -> np.ndarray:
    """X^{I*} for every word I of the order, as a (count, n, n) array:
    :func:`_reversed_levels` at one point, all rows."""
    _check_order(X, order)
    return _reversed_levels(X.mats[None], order, X.n)[0]


def monomial_stack(X: MatrixTuple, order: WordOrder) -> np.ndarray:
    """X^I for every word I of the order, as a (count, n, n) array.

    X^I = ((X^T)^{I*})^T, so this is :func:`_reversed_levels` at the
    transposed tuple, one point and all rows, with each matrix transposed
    back by one contiguous copy.
    """
    _check_order(X, order)
    transposed = np.ascontiguousarray(X.mats.swapaxes(1, 2))
    return np.ascontiguousarray(_reversed_levels(transposed[None], order, X.n)[0].swapaxes(1, 2))


# no library caller; kept because perfbench/spans.py traces it by name
def eval_words(X: MatrixTuple, words) -> dict[Word, np.ndarray]:
    """Values X^w for a sparse or deep set of words, sharing suffix products.

    The cache is keyed by suffix (X^{x_k w} = X_k X^w needs X^w), so only the
    requested words and their suffixes are multiplied out.
    """
    vals: dict[Word, np.ndarray] = {EMPTY: np.eye(X.n, dtype=np.complex128)}

    def value(w: Word) -> np.ndarray:
        got = vals.get(w)
        if got is None:
            got = X.mats[w[0] - 1] @ value(w[1:])
            vals[w] = got
        return got

    for w in words:
        check_alphabet(w, X.d)
        value(w)
    return vals

"""Words in d noncommuting letters: enumeration, involution, evaluation.

A word is a tuple of 1-based letter indices; the empty tuple is the identity
word e. The canonical enumeration is graded (degree-major) and lexicographic
within each degree, with the empty word at position 0. This order is fixed
globally so that word-indexed matrices are reproducible bit for bit.

The position (integer key) of a word w = x_{w_1} ... x_{w_l} in that order is

    pos(w) = offset(l) + sum_i (w_i - 1) d^(l - i),   offset(l) = word_count(d, l - 1),

and :func:`suffix_positions` is the one routine that computes it. Keys are
int64: they fit while word_count(d, degree) <= 2^63 - 1, which is degree 62
for d = 2 and degree 39 for d = 3; for d = 1, where pos(w) = |w|, no storable
degree reaches the limit. Past it the key build raises ValueError instead of
wrapping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import BudgetError, MatrixTuple

Word = tuple[int, ...]

WORD_BUDGET = 100_000

KEY_LIMIT = int(np.iinfo(np.int64).max)

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
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)

    def involution_positions(self) -> np.ndarray:
        """pos(w*) for every word w of the order, in order.

        Level l lists the base-d digit strings of 0..d^l - 1, most significant
        first; read least significant first they are the involutes, so the
        letters come from arange arithmetic rather than from the word tuples.
        """
        levels = []
        for length in range(self.degree + 1):
            digits = np.arange(self.d**length)[:, None] // self.d ** np.arange(length) % self.d
            levels.append(suffix_positions(self.d, digits + 1)[:, 0])
        return np.concatenate(levels)


def enumerate_words(d: int, L: int, budget: int = WORD_BUDGET) -> WordOrder:
    """All words of length <= L in graded-lex order.

    :raises BudgetError: when the count would exceed the budget; the message
        names the degree and the largest degree within the budget, so callers
        can lower it.
    """
    if d < 1 or L < 0:
        raise ValueError(f"enumerate_words needs d >= 1 and L >= 0, got d={d}, L={L}")
    top = max_degree(d, budget)
    if L > top:
        raise BudgetError(
            f"words of length <= {L} in {d} letters exceed the budget of {budget} words; "
            f"the largest degree within it is {top}"
        )
    words: list[Word] = []
    for length in range(L + 1):
        words.extend(itertools.product(range(1, d + 1), repeat=length))
    return WordOrder(d=d, degree=L, words=tuple(words))


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

    :raises ValueError: when word_count(d, width) passes the int64 range.
    """
    m, width = letters.shape
    top = max_degree(d, KEY_LIMIT)
    if width > top:
        raise ValueError(
            f"word keys overflow int64 for d={d} at degree {width} "
            f"(the largest degree that fits is {top})"
        )
    weights = np.array([d ** (width - 1 - c) for c in range(width)], dtype=np.int64)
    offsets = np.array([word_count(d, width - c - 1) for c in range(width + 1)], dtype=np.int64)
    out = np.zeros((m, width + 1), dtype=np.int64)
    digits = np.maximum(letters - 1, 0) * weights
    out[:, :width] = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1]
    return out + offsets


def involute(w: Word) -> Word:
    """Reverse the letters: (x1 x2)* = x2 x1. An involution."""
    return tuple(reversed(w))


def check_alphabet(w: Word, d: int) -> None:
    for letter in w:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} in word {list(w)} is outside 1..{d}")


def monomial_stack(X: MatrixTuple, order: WordOrder) -> np.ndarray:
    """X^I for every word I of the order, as a (count, n, n) array.

    Graded-lex order lists the words of length l + 1 as x_k w, k major, so
    each level is one batched product X_k @ X^w over all letters k and all
    words w one shorter.
    """
    if X.d != order.d:
        raise ValueError(f"word order in {order.d} letters evaluated at a {X.d}-tuple")
    mats = np.stack(X.mats)[:, None]
    levels = [np.eye(X.n, dtype=np.complex128)[None]]
    for _ in range(order.degree):
        levels.append((mats @ levels[-1]).reshape(X.d * len(levels[-1]), X.n, X.n))
    return np.concatenate(levels)


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

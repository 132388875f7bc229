"""Words in d noncommuting letters: enumeration, involution, evaluation.

A word is a tuple of 1-based letter indices; the empty tuple is the identity
word e. The canonical enumeration is graded (degree-major) and lexicographic
within each degree, with the empty word at position 0. This order is fixed
globally so that word-indexed matrices are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class WordOrder:
    """The canonical graded-lex enumeration of words of length <= degree."""

    d: int
    degree: int
    words: tuple[Word, ...]
    _index: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.words)

    def position(self, w: Word) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise KeyError(f"word {list(w)} is not in the order (d={self.d}, degree={self.degree})") from None


def enumerate_words(d: int, L: int, budget: int = WORD_BUDGET) -> WordOrder:
    """All words of length <= L in graded-lex order.

    :raises BudgetError: when the count would exceed the budget; the message
        names the offending count so callers can lower the degree.
    """
    if d < 1 or L < 0:
        raise ValueError(f"enumerate_words needs d >= 1 and L >= 0, got d={d}, L={L}")
    count = word_count(d, L)
    if count > budget:
        raise BudgetError(
            f"{count} words of length <= {L} in {d} letters exceed the budget of {budget}"
        )
    words: list[Word] = []
    for length in range(L + 1):
        words.extend(itertools.product(range(1, d + 1), repeat=length))
    return WordOrder(d=d, degree=L, words=tuple(words), _index={w: i for i, w in enumerate(words)})


def involute(w: Word) -> Word:
    """Reverse the letters: (x1 x2)* = x2 x1. An involution."""
    return tuple(reversed(w))


def check_alphabet(w: Word, d: int) -> None:
    for letter in w:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} in word {list(w)} is outside 1..{d}")


def eval_word(X: MatrixTuple, w: Word) -> np.ndarray:
    """X^w, by the recursion X^e = I and X^{x_k w} = X_k X^w."""
    check_alphabet(w, X.d)
    out = np.eye(X.n, dtype=np.complex128)
    for letter in reversed(w):
        out = X.mats[letter - 1] @ out
    return out


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
        levels.append((mats @ levels[-1]).reshape(-1, X.n, X.n))
    return np.concatenate(levels)


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

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
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import words as W
from .matcore import MatrixTuple, direct_sum, sample, spectral_norm

FD_STEP = 1e-5

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
        clean: dict[W.Word, complex] = {}
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
        f = object.__new__(cls)
        vars(f).update(d=order.d, degree=order.degree, coeffs=coeffs, real_free=False, decay_rate=None)
        return f

    def coeff(self, w: W.Word) -> complex:
        return self.coeffs.get(w, 0.0 + 0.0j)

    @cached_property
    def _letters(self) -> tuple[np.ndarray, np.ndarray]:
        """The one word table: the stored words as a right-aligned int64 letter
        array (insertion order) and the column of each word's first letter."""
        width = max(map(len, self.coeffs), default=0)
        letters = W.letter_array(self.coeffs, width)
        return letters, width - np.count_nonzero(letters, axis=1)

    def _suffix_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The word table, then the positions of every suffix of each w and of
        each w*. Not cached: only the keys and the split list derived from
        these tables are kept."""
        letters, start = self._letters
        forward = W.suffix_positions(self.d, letters)
        backward = W.suffix_positions(self.d, W.reversed_letters(letters))
        return letters, start, forward, backward

    @cached_property
    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        _, start, forward, backward = self._suffix_tables()
        rows = np.arange(len(start))
        return forward[rows, start], backward[rows, start]

    @property
    def keys(self) -> np.ndarray:
        """pos(w) of every stored word, in insertion order; built on first use."""
        return self._keys[0]

    @property
    def reversed_keys(self) -> np.ndarray:
        """pos(w*) of every stored word, in insertion order; built on first use."""
        return self._keys[1]

    @cached_property
    def values(self) -> np.ndarray:
        """c_w of every stored word, in insertion order."""
        return np.fromiter(self.coeffs.values(), np.complex128, count=len(self.coeffs))

    @cached_property
    def splits(self) -> SplitList:
        """Every stored word w split as I* x_k J at each of its letters."""
        letters, start, forward, backward = self._suffix_tables()
        width = letters.shape[1]
        row, col = np.nonzero(letters)
        len_i = col - start[row]  # I* = w[:len_i], so I = w*[|w| - len_i:]
        return SplitList(
            letter=letters[row, col],
            pos_i=backward[row, width - len_i],
            pos_j=forward[row, col + 1],
            coeff=self.values[row],
        )

    @cached_property
    def suffix_trie(self) -> tuple[TrieLevel, ...]:
        """The suffixes of the stored words as a trie, one TrieLevel per depth.

        Depth l lists every distinct suffix s of length l (depth 0 is the
        empty word, the root) in lexicographic order, read left to right. The
        parent of x_k s is s, so the nodes of each letter form one run and
        their parents ascend within it.

        Built from the letters, not from the int64 word keys, so it has no
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
        levels = [TrieLevel(size=1, coeff=None if root is None else np.array([root]), blocks=())]
        letters, start = self._letters
        m, width = letters.shape
        if width == 0:
            return tuple(levels)
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
        coeff[node.max(axis=1)] = self.values
        # node i has id i + 1; each run of one depth and one letter is a block
        run = depth * base + letters[r, c] - 1
        starts = [0] + ((run[1:] != run[:-1]).nonzero()[0] + 1).tolist()
        stops, run = starts[1:] + [count - 1], run.tolist()
        size, first = size.tolist(), first.tolist()
        blocks = [[] for _ in range(width + 1)]
        for a, b in zip(starts, stops):
            l, k = divmod(run[a], base)
            at = first[l] - 1
            blocks[l].append((k, a - at, b - at, None if b - a == size[l - 1] else parent[a:b]))
        for l in range(1, width + 1):
            at = slice(first[l], first[l] + size[l])
            levels.append(TrieLevel(size[l], coeff[at] if l in lengths else None, tuple(blocks[l])))
        return tuple(levels)


class TrieLevel(NamedTuple):
    """The nodes of one depth of a series' suffix trie, and how they fold
    into their parents one depth up (see :func:`eval_series`).

    :param size: the number of nodes.
    :param coeff: c_s of each node s, 0 where s is not a stored word; None
        when no node is.
    :param blocks: one (k - 1, start, stop, parents) per letter x_k that
        begins a node, in letter order: nodes start..stop - 1 are the x_k t,
        and parents holds the node of each t one depth up, ascending. It is
        None when the block holds exactly one child of every parent, in order.
    """

    size: int
    coeff: np.ndarray | None
    blocks: tuple[tuple[int, int, int, np.ndarray | None], ...]


class SplitList(NamedTuple):
    """One row per stored word w and letter position: w = I* x_k J.

    Row r has k = letter[r], pos I, pos J and c_w. Each (I, k, J) names one
    word, so no two rows of one letter share a cell (pos I, pos J). In
    graded-lex order pos u < word_count(d, L) exactly when |u| <= L, so the
    positions also carry the lengths.
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

    The symmetry scan looks up every reversed key among the sorted keys in
    one searchsorted pass. Each pair {w, w*} is judged once, at its
    first-inserted word w, by |c_{w*} - conj(c_w)| > 1e-12 max(1, |c_w|)
    (c_{w*} = 0 when w* is not stored), and is reported at min(w, w*).
    The decay scan flags every w with |c_w| > r^{-|w|} (1 + 1e-12); a bound
    past the float range is inf and flags nothing.
    """
    sym: list[tuple[W.Word, float]] = []
    if f.real_free and f.coeffs:
        keys, rkeys, vals = f.keys, f.reversed_keys, f.values
        by_key = np.argsort(keys)
        at = np.minimum(np.searchsorted(keys, rkeys, sorter=by_key), len(keys) - 1)
        partner = np.where(keys[by_key[at]] == rkeys, by_key[at], -1)
        first = (partner < 0) | (partner >= np.arange(len(keys)))
        mirror = np.where(partner >= 0, vals[partner], 0.0)
        gap = np.abs(mirror - np.conj(vals))
        bad = np.flatnonzero(first & (gap > 1e-12 * np.maximum(1.0, np.abs(vals))))
        if bad.size:
            words = list(f.coeffs)
            for i in bad:
                w = words[i] if keys[i] <= rkeys[i] else W.involute(words[i])
                sym.append((w, float(gap[i])))
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
    return SeriesDiagnostics(tuple(sorted(sym)), tuple(sorted(decay)))


def require_real_free(f: FreeSeries, what: str) -> None:
    if not f.real_free:
        raise ValueError(f"{what} needs a real_free series")
    diag = validate(f)
    if diag.symmetry_violations:
        w, gap = diag.symmetry_violations[0]
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
    """Add c[i] I to the rows of node i, in place.

    U is the (len(c) * rows, N) state of :func:`_horner`, rows <= N, so c[i]
    lands on the diagonal of rows i * rows .. (i + 1) * rows - 1. Every state
    is a fresh C-contiguous array, so the reshape is a view of U; its sizes
    are explicit, so that N = 0 works too."""
    if c is not None:
        m = len(c)
        U.reshape(m, U.size // m)[:, :: U.shape[1] + 1] += c[:, None]


def _horner(f: FreeSeries, point: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` rows of f at the (d, N, N) point, as a (rows, N) array.

    A right Horner pass over the suffix trie: U_s = c_s I + sum_k U_{x_k s} X_k
    from the deepest level up, so that U_e = f(X). Only the first rows of
    each U_s are carried, stacked node by node, so the rows of one letter's
    nodes are contiguous and each block of a level is one GEMM on them.

    The products fold into the parents in letter order: each parent takes
    its first product as it is and adds the others to it. A parent that no
    block reaches stays +0.0, and one that a later block reaches first
    starts at -0.0, the one value that adding a product to leaves exactly
    that product, signed zeros included.
    """
    trie = f.suffix_trie
    N = point.shape[-1]
    U = np.zeros((trie[-1].size * rows, N), dtype=np.complex128)
    for depth in range(len(trie) - 1, 0, -1):
        level = trie[depth]
        _add_scalars(U, level.coeff)
        V = None
        for letter, a, b, parents in level.blocks:
            P = (U if b - a == level.size else U[a * rows : b * rows]) @ point[letter]
            if parents is None:
                if V is None:
                    V = P
                else:
                    V += P
                continue
            up = trie[depth - 1].size
            if V is None:
                V = np.zeros((up * rows, N), dtype=np.complex128)
                for *_, later in level.blocks[1:]:
                    V.reshape(up, rows * N)[slice(None) if later is None else later] = -0.0
                V.reshape(up, rows * N)[parents] = P.reshape(b - a, rows * N)
            else:
                V.reshape(up, rows * N)[parents] += P.reshape(b - a, rows * N)
        U = V
    _add_scalars(U, trie[0].coeff)
    return U


def eval_series(f: FreeSeries, X: MatrixTuple) -> EvalResult:
    """f(X) = sum_{|I| <= degree} c_I X^I with the geometric tail bound.

    One right Horner pass over the suffix trie (see :func:`_horner`): each
    level is one GEMM per letter over that letter's nodes.
    """
    if f.d != X.d:
        raise ValueError(f"series in {f.d} letters evaluated at a {X.d}-tuple")
    return EvalResult(value=_horner(f, np.stack(X.mats), X.n), tail_bound=tail_bound(f, X))


# no library caller; kept because perfbench/spans.py traces it by name
def monomial_vector(X: MatrixTuple, L: int, budget: int = W.WORD_BUDGET) -> np.ndarray:
    """The stacked monomial vector m_X: block-row I is X^I in canonical order."""
    order = W.enumerate_words(X.d, L, budget=budget)
    return W.monomial_stack(X, order).reshape(len(order) * X.n, X.n)


def localizing_matrix(f: FreeSeries, k: int, L: int, budget: int = W.WORD_BUDGET) -> np.ndarray:
    """The truncated x_k-localizing matrix (c_{I* x_k J})_{I,J}, |I|,|J| <= L.

    Scattered from the series' split list: every stored word w = I* x_k J
    with |I|, |J| <= L puts c_w at (pos I, pos J) in one fancy-index
    assignment, and every other entry is 0.
    """
    if not 1 <= k <= f.d:
        raise ValueError(f"letter k={k} is outside 1..{f.d}")
    order = W.enumerate_words(f.d, L, budget=budget)
    s = f.splits
    count = len(order)
    pick = (s.letter == k) & (s.pos_i < count) & (s.pos_j < count)
    M = np.zeros((count, count), dtype=np.complex128)
    M[s.pos_i[pick], s.pos_j[pick]] = s.coeff[pick]
    return M


def pencil_contraction(f: FreeSeries, X: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """left_I = X^{I*} and T[k-1, I] = sum_J c_{I* x_k J} X^J over |I|, |J| < degree.

    Contracts each localizing pencil with the monomial stack at X, so that
    Df(X)[H] = sum_k sum_I left_I H_k T[k-1, I].
    """
    order = W.enumerate_words(X.d, max(f.degree - 1, 0))
    stack = W.monomial_stack(X, order)
    left = stack[order.involution_positions()]
    T = np.stack(
        [np.tensordot(localizing_matrix(f, k, order.degree), stack, axes=1) for k in range(1, f.d + 1)]
    )
    return left, T


def derivative(
    f: FreeSeries,
    X: MatrixTuple,
    H: MatrixTuple,
    method: str = BLOCK,
    fd_step: float = FD_STEP,
    richardson: bool = False,
) -> np.ndarray:
    """Directional derivative Df(X)[H], by one of three routes.

    - block: f at the 2n x 2n tuple [[X_i, H_i], [0, X_i]] is
      [[f(X), Df(X)[H]], [0, f(X)]]; the Horner pass carries only its top
      block row, since the lower one is always [0, A], and reads the
      upper-right n x n corner;
    - localizing: Df(X)[H] = sum_k sum_{I,J} c_{I* x_k J} X^{I*} H_k X^J,
      the coefficient-pencil formula, contracted as sum_k sum_I X^{I*} H_k T_I
      with T_I = sum_J c_{I* x_k J} X^J (see :func:`pencil_contraction`);
    - fd: central difference (f(X + tH) - f(X - tH)) / 2t, with optional
      Richardson refinement.

    All three agree within 1e-6 relative on validated inputs, and the output
    is linear in H.
    """
    if not (f.d == X.d == H.d):
        raise ValueError(f"mismatched lengths: series d={f.d}, X d={X.d}, H d={H.d}")
    if X.n != H.n:
        raise ValueError(f"mismatched sizes: X is {X.n} x {X.n}, H is {H.n} x {H.n}")
    if method == BLOCK:
        n = X.n
        zero = np.zeros((n, n))
        big = np.stack([np.block([[Xi, Hi], [zero, Xi]]) for Xi, Hi in zip(X.mats, H.mats)])
        # a one-row product goes through numpy's gemv, which rounds apart
        # from the gemm of the full pass, so at n = 1 both rows are carried
        return _horner(f, big, n if n > 1 else 2 * n)[:n, n:]
    if method == LOCALIZING:
        if f.decay_rate is not None and X.max_norm() * f.d >= 1:
            warnings.warn(
                "localizing derivative at max||X_i|| * d >= 1; the pencil "
                "formula is only proven on the small polydisk",
                stacklevel=2,
            )
        left, T = pencil_contraction(f, X)
        return sum((left @ Hk @ Tk).sum(axis=0) for Hk, Tk in zip(H.mats, T))
    if method == FD:
        if not fd_step > 0:
            raise ValueError("fd_step must be positive")

        def central(t: float) -> np.ndarray:
            plus = MatrixTuple(tuple(Xi + t * Hi for Xi, Hi in zip(X.mats, H.mats)))
            minus = MatrixTuple(tuple(Xi - t * Hi for Xi, Hi in zip(X.mats, H.mats)))
            return (eval_series(f, plus).value - eval_series(f, minus).value) / (2 * t)

        if richardson:
            return (4 * central(fd_step / 2) - central(fd_step)) / 3
        return central(fd_step)
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
        H = MatrixTuple(tuple(1j * (A @ Xi - Xi @ A) for Xi in X.mats))
        lhs = derivative(f, X, H)
        fX = eval_series(f, X).value
        rhs = 1j * (A @ fX - fX @ A)
    elif kind == DIRECT_SUM_DERIVATIVE:
        Y = aux
        if not isinstance(Y, MatrixTuple) or Y.d != X.d or Y.n != X.n:
            raise ValueError("aux must be a tuple matching X in length and size")
        corner = [Xi - Yi for Xi, Yi in zip(X.mats, Y.mats)]
        zero = np.zeros((n, n))
        H = MatrixTuple(tuple(np.block([[zero, C], [C, zero]]) for C in corner))
        lhs = derivative(f, direct_sum(X, Y), H)
        diff = eval_series(f, X).value - eval_series(f, Y).value
        rhs = np.block([[zero, diff], [diff, zero]])
    elif kind == TENSOR_DERIVATIVE:
        A, B = aux
        if not isinstance(A, MatrixTuple) or A.d != X.d or A.n != X.n:
            raise ValueError("aux[0] must be a tuple matching X in length and size")
        B = np.asarray(B, dtype=np.complex128)
        eye = np.eye(B.shape[0])
        bigX = MatrixTuple(tuple(np.kron(Xi, eye) for Xi in X.mats))
        bigH = MatrixTuple(tuple(np.kron(Ai, B) for Ai in A.mats))
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


def _default_sampler(d: int):
    def sampler(n: int, seed: int) -> MatrixTuple:
        return sample("contraction_tuple", n, d, seed)

    return sampler


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
    f(U* X U) = U* f(X) U, reported as relative residuals.
    """
    sampler = sampler or _default_sampler(d)
    out: list[AxiomTrial] = []
    for t in range(trials):
        n = sizes[t % len(sizes)]
        n2 = sizes[(t + 1) % len(sizes)]
        try:
            X = sampler(n, seed + 7919 * t)
            Y = sampler(n2, seed + 7919 * t + 1)
            fX = np.asarray(evaluator(X))
            graded = fX.shape == (n, n)
            fY = np.asarray(evaluator(Y))
            both = np.asarray(evaluator(direct_sum(X, Y)))
            stacked = np.block(
                [[fX, np.zeros((n, n2))], [np.zeros((n2, n)), fY]]
            )
            ds_res = spectral_norm(both - stacked) / (1 + spectral_norm(stacked))
            U = sample("haar_unitary", n, 1, seed + 7919 * t + 2)
            conjugated = MatrixTuple(tuple(U.conj().T @ Xi @ U for Xi in X.mats))
            sim = np.asarray(evaluator(conjugated))
            sim_res = spectral_norm(sim - U.conj().T @ fX @ U) / (1 + spectral_norm(fX))
            out.append(AxiomTrial(n=n, graded=graded, direct_sum_residual=float(ds_res), similarity_residual=float(sim_res)))
        except Exception as exc:  # recorded, not fatal
            out.append(
                AxiomTrial(n=n, graded=False, direct_sum_residual=float("nan"), similarity_residual=float("nan"), error=f"{type(exc).__name__}: {exc}")
            )
    return AxiomReport(trials=tuple(out), tol=tol)


def series_evaluator(f: FreeSeries) -> Callable[[MatrixTuple], np.ndarray]:
    """The series as a black-box evaluator (for axiom fuzzing)."""

    def ev(X: MatrixTuple) -> np.ndarray:
        return eval_series(f, X).value

    return ev

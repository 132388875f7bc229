"""Free power series: validation, evaluation, derivatives, axiom checks.

A FreeSeries is its truncation: every theorem is checked at finite degree
with an explicit geometric tail bound instead of pretending to an infinite
series. The evaluation domain is wherever the tail bound is finite, which is
parameterized by the validated coefficient decay rate rather than by any
fixed radius convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import words as W
from .matcore import MatrixTuple, direct_sum, sample, spectral_norm

FD_STEP = 1e-5

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
            w = tuple(int(x) for x in w)
            W.check_alphabet(w, self.d)
            if len(w) > self.degree:
                raise ValueError(f"word {list(w)} is longer than the degree {self.degree}")
            c = complex(c)
            if not (np.isfinite(c.real) and np.isfinite(c.imag)):
                raise ValueError(f"coefficient of {list(w)} is not finite")
            clean[w] = c
        object.__setattr__(self, "coeffs", clean)
        if self.decay_rate is not None and not self.decay_rate > 0:
            raise ValueError("decay_rate must be positive when given")

    def coeff(self, w: W.Word) -> complex:
        return self.coeffs.get(w, 0.0 + 0.0j)


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Report of :func:`validate`: which invariants the coefficients break."""

    symmetry_violations: tuple[tuple[W.Word, float], ...]
    decay_violations: tuple[tuple[W.Word, float], ...]

    @property
    def ok(self) -> bool:
        return not self.symmetry_violations and not self.decay_violations


def validate(f: FreeSeries) -> SeriesDiagnostics:
    """Check the real_free symmetry and the decay bound, without raising."""
    sym: list[tuple[W.Word, float]] = []
    if f.real_free:
        seen = set()
        for w, c in f.coeffs.items():
            pair = (w, W.involute(w))
            if pair[1] in seen or pair[0] in seen:
                continue
            seen.update(pair)
            gap = abs(f.coeff(W.involute(w)) - np.conj(c))
            if gap > 1e-12 * max(1.0, abs(c)):
                sym.append((min(pair), float(gap)))
    decay: list[tuple[W.Word, float]] = []
    if f.decay_rate is not None:
        for w, c in f.coeffs.items():
            bound = f.decay_rate ** (-len(w))
            if abs(c) > bound * (1 + 1e-12):
                decay.append((w, float(abs(c) - bound)))
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


@dataclass(frozen=True)
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


def eval_series(f: FreeSeries, X: MatrixTuple) -> EvalResult:
    """f(X) = sum_{|I| <= degree} c_I X^I with the geometric tail bound."""
    if f.d != X.d:
        raise ValueError(f"series in {f.d} letters evaluated at a {X.d}-tuple")
    vals = W.eval_words(X, f.coeffs.keys())
    acc = np.zeros((X.n, X.n), dtype=np.complex128)
    for w, c in f.coeffs.items():
        acc += c * vals[w]
    return EvalResult(value=acc, tail_bound=tail_bound(f, X))


def monomial_vector(X: MatrixTuple, L: int, budget: int = W.WORD_BUDGET) -> np.ndarray:
    """The stacked monomial vector m_X: block-row I is X^I in canonical order."""
    order = W.enumerate_words(X.d, L, budget=budget)
    return W.monomial_stack(X, order).reshape(-1, X.n)


def localizing_matrix(f: FreeSeries, k: int, L: int, budget: int = W.WORD_BUDGET) -> np.ndarray:
    """The truncated x_k-localizing matrix (c_{I* x_k J})_{I,J}, |I|,|J| <= L."""
    if not 1 <= k <= f.d:
        raise ValueError(f"letter k={k} is outside 1..{f.d}")
    order = W.enumerate_words(f.d, L, budget=budget)
    count = len(order)
    M = np.zeros((count, count), dtype=np.complex128)
    for i, I in enumerate(order.words):
        left = W.involute(I) + (k,)
        for j, J in enumerate(order.words):
            c = f.coeffs.get(left + J)
            if c is not None:
                M[i, j] = c
    return M


def pencil_contraction(f: FreeSeries, X: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """left_I = X^{I*} and T[k-1, I] = sum_J c_{I* x_k J} X^J over |I|, |J| < degree.

    Contracts each localizing pencil with the monomial stack at X, so that
    Df(X)[H] = sum_k sum_I left_I H_k T[k-1, I].
    """
    order = W.enumerate_words(X.d, max(f.degree - 1, 0))
    stack = W.monomial_stack(X, order)
    left = stack[[order.position(W.involute(w)) for w in order.words]]
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

    - block: evaluate f at the 2n x 2n tuple [[X_i, H_i], [0, X_i]] and read
      the upper-right n x n corner;
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
        big = MatrixTuple(
            tuple(
                np.block([[Xi, Hi], [np.zeros((n, n)), Xi]])
                for Xi, Hi in zip(X.mats, H.mats)
            )
        )
        return eval_series(f, big).value[:n, n:]
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

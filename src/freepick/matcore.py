"""Dense complex-matrix substrate shared by the rest of the package.

Conventions used everywhere:

- the imaginary part of a matrix is Im M = (M - M*) / 2i, a Hermitian matrix;
- eigensolves act on the symmetrization (H + H*)/2, and asymmetry beyond
  1e-10 * ||H|| is an input error rather than something to fix silently;
- PSD verdicts are relative: min_eig >= -tol * (1 + ||H||_2);
- every inversion is guarded by a condition-number cutoff of 1e12, checked
  from the singular values unless the caller proves a bound under it;
- a point X = (X_1, ..., X_d) is a MatrixTuple, one (d, n, n) complex128
  array copied at construction, so stacked routes read it as it is.

All operations are pure given their inputs (and seed); values are treated as
immutable after construction, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la

COND_CUTOFF = 1e12
HERMITICITY_RTOL = 1e-10
DEFAULT_PSD_TOL = 1e-9

#: strict contractions sampled/required on the polydisk keep this margin
CONTRACTION_MARGIN = 1e-6


class CalcError(Exception):
    """Base class for the package's mathematical failures."""


class AsymmetryError(CalcError):
    """A matrix expected to be Hermitian was not, beyond tolerance."""


class SingularityError(CalcError):
    """An inversion hit the condition-number cutoff."""


class DomainError(CalcError):
    """An evaluation point lies outside the operation's domain."""


class BudgetError(CalcError):
    """A word enumeration exceeded the configured budget."""


class InfeasibleError(CalcError):
    """An interpolation target is inconsistent with the kernel span."""


class SchemaError(CalcError):
    """A JSON payload violated its schema or a type invariant."""


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 2-d array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def spectral_norms(S: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix in a stack (..., m, k), as
    la.norm(M, 2) takes it, and 0 for an empty matrix."""
    if S.size == 0:
        return np.zeros(S.shape[:-2])
    return la.svd(S, compute_uv=False).max(-1)


def spectral_norm(M: np.ndarray) -> float:
    return float(spectral_norms(M))


def screened_norms(S: np.ndarray, limit: float) -> np.ndarray:
    """Upper bounds on the spectral norms of a stack (..., m, k) that decide
    ||S_i||_2 <= limit exactly: the Frobenius norms, rounded up, when every
    one is within limit (||S||_2 <= ||S||_F), and spectral_norms(S) otherwise.

    So screened_norms(S, limit) <= limit is the verdict spectral_norms(S) <=
    limit matrix by matrix, a value above limit is the spectral norm, and a
    stack the screen passes takes no singular-value call.
    """
    k = S.shape[-2] * S.shape[-1]
    # the computed Frobenius norm, scaled for the rounding of its k squares and
    # padded for any square that underflows, is at least the exact one
    bound = la.norm(S, axis=(-2, -1)) * (1 + 1e-12 + k * np.finfo(float).eps) + 1e-150
    return bound if (bound <= limit).all() else spectral_norms(S)


def hermitianize(M: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, of a matrix or of each matrix of a stack."""
    return (M + M.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a positive-semidefiniteness check.

    is_psd holds exactly when min_eig >= -tol * (1 + ||H||_2), for the tol
    passed to :func:`psd_min_eig`.
    """

    min_eig: float
    is_psd: bool


def _reject_coordinates(mats) -> None:
    """Raise the error for the first bad coordinate of a rejected tuple."""
    coerced = [as_complex_matrix(M, name=f"coordinate {i + 1}") for i, M in enumerate(mats)]
    if not coerced:
        raise ValueError("a matrix tuple needs at least one coordinate")
    n = coerced[0].shape[0]
    for i, M in enumerate(coerced):
        if M.shape != (n, n):
            raise ValueError(f"coordinate {i + 1} has shape {M.shape}, expected ({n}, {n})")


@dataclass(frozen=True, eq=False)
class MatrixTuple:
    """A tuple X = (X_1, ..., X_d) of same-size square complex matrices.

    The evaluation point of everything in this package. mats is one
    (d, n, n) complex128 array, copied from the input at construction, and
    mats[i] is X_{i+1}. Flags such as self-adjointness are checked on demand
    rather than stored.
    """

    mats: np.ndarray

    def __post_init__(self) -> None:
        try:
            S = np.array(self.mats, dtype=np.complex128)
        except ValueError:  # coordinates of different shapes
            S = None
        if S is None or S.ndim != 3 or not len(S) or S.shape[1] != S.shape[2] or not np.isfinite(S).all():
            _reject_coordinates(self.mats)
        object.__setattr__(self, "mats", S)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    def adjoint(self) -> "MatrixTuple":
        return MatrixTuple(self.mats.conj().swapaxes(1, 2))

    def is_selfadjoint(self) -> bool:
        S = self.mats
        asym = screened_norms(S - S.conj().swapaxes(1, 2), HERMITICITY_RTOL)
        if (asym <= HERMITICITY_RTOL).all():  # the threshold below is at least HERMITICITY_RTOL
            return True
        return bool((asym <= HERMITICITY_RTOL * np.maximum(spectral_norms(S), 1.0)).all())

    def max_norm(self) -> float:
        """max_i ||X_i||_2, the radius used by tail bounds."""
        return float(spectral_norms(self.mats).max())


def imag_part(M) -> np.ndarray:
    """Im M = (M - M*) / 2i; Hermitian by construction."""
    A = as_complex_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"imag_part needs a square matrix, got {A.shape}")
    return (A - A.conj().T) / 2j


def real_part(M) -> np.ndarray:
    """Re M = (M + M*) / 2."""
    A = as_complex_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"real_part needs a square matrix, got {A.shape}")
    return hermitianize(A)


def psd_min_eig(H, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Smallest eigenvalue of (H + H*)/2 and the relative PSD verdict.

    :param H: Hermitian matrix, up to 1e-10 * ||H|| of asymmetry.
    :param tol: relative tolerance for the verdict.
    :raises AsymmetryError: when the asymmetry exceeds the gate; the message
        reports the offending norm so callers can see how bad it was.
    """
    A = as_complex_matrix(H)
    norm = spectral_norm(A)
    limit = HERMITICITY_RTOL * norm
    asym = float(screened_norms(A - A.conj().T, limit))
    if asym > limit:
        raise AsymmetryError(
            f"matrix is not Hermitian: ||H - H*|| = {asym:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} * ||H|| = {limit:.3e}"
        )
    w = la.eigvalsh(hermitianize(A))
    min_eig = float(w[0]) if w.size else np.inf  # the minimum of an empty spectrum
    return PsdReport(min_eig=min_eig, is_psd=min_eig >= -tol * (1 + norm))


def checked_solve(
    A: np.ndarray, B: np.ndarray, what: str | Sequence[str] = "pencil", cond_bound: float | None = None
) -> np.ndarray:
    """A^{-1} B with the package-wide condition cutoff.

    A is one matrix (N, N) or a stack (P, N, N), and B broadcasts against it
    as in numpy.linalg.solve. The 2-norm condition numbers come from one
    stacked singular-value call, the one numpy.linalg.cond makes, so the
    verdict is the same as la.cond's matrix by matrix. A stacked call names
    the first matrix past the cutoff by its index, or by its entry in what
    when what is a sequence of labels.

    cond_bound is a caller-proven upper bound on the 2-norm condition number
    of every matrix in A. At or below the cutoff it settles the verdict, and
    the solve skips the singular values; the solution is the same
    numpy.linalg.solve either way. Any other value, and None, checks them.
    """
    # an empty system has nothing to condition, and a proven bound settles the verdict
    if A.shape[-1] == 0 or (cond_bound is not None and cond_bound <= COND_CUTOFF):
        return la.solve(A, B)
    s = la.svd(A, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = s[..., 0] / s[..., -1]
    bad = ~(c <= COND_CUTOFF)
    if bad.any():
        if A.ndim == 2:
            label, worst = what, c
        else:
            p = int(np.argmax(bad))
            label = f"{what} at point {p}" if isinstance(what, str) else what[p]
            worst = c[p]
        if np.isnan(worst):  # 0/0 from a zero matrix; la.cond reports inf
            worst = np.inf
        raise SingularityError(f"{label} has condition number {worst:.3e} > {COND_CUTOFF:g}")
    return la.solve(A, B)


@dataclass(frozen=True, eq=False)
class AffinePencil:
    """The linear-pencil resolvent h(X) = a I + (l (x) I) L(X)^{-1} R(X).

    L(X) = A0 (x) I_n - sum_i C_i (x) X_i and R(X) = r (x) I_n +
    sum_i G_i (x) X_i, with A0 (N, N), l (1, N), r (N, 1) and CG the
    (d, N, N) stack of the C_i, or (d, N, N + 1) with G_i as its last
    column. what labels the solve's errors, and cond_bound is a proven
    bound on the condition number of L passed to checked_solve. A0, l and r
    tensored with I_n are built on first use for that n and kept on the
    pencil, which lives as long as the model that built it.
    """

    a: complex
    A0: np.ndarray
    l: np.ndarray
    r: np.ndarray
    CG: np.ndarray
    what: str
    cond_bound: float | None = None

    @cached_property
    def _scaffolds(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return {}

    def eval_batch(self, Xs: np.ndarray) -> np.ndarray:
        """h at each point of a (P, d, n, n) stack, (P, n, n): one stack of
        pencils and one guarded solve."""
        P, d, n, _ = Xs.shape
        parts = self._scaffolds.get(n)
        if parts is None:
            eye = np.eye(n)
            parts = self._scaffolds[n] = (np.kron(self.A0, eye), np.kron(self.l, eye), np.kron(self.r, eye))
        A0, l_row, r_col = parts
        N = A0.shape[-1]
        # [sum C_i (x) X_i | sum G_i (x) X_i], added in coordinate order, each
        # term an entrywise product as np.kron forms it
        CG = self.CG
        terms = CG[0][:, None, :, None] * Xs[:, 0, None, :, None, :]
        for i in range(1, d):
            terms += CG[i][:, None, :, None] * Xs[:, i, None, :, None, :]
        terms = terms.reshape(P, N, CG.shape[2] * n)
        R = r_col if terms.shape[-1] == N else r_col + terms[..., N:]
        sol = checked_solve(A0 - terms[..., :N], R, self.what, self.cond_bound)
        return self.a * np.eye(n) + l_row @ sol


def stack_points(points: Sequence[MatrixTuple]) -> np.ndarray:
    """The (P, d, n, n) array of a non-empty sequence of same-shape tuples."""
    shapes = {(X.d, X.n) for X in points}
    if len(shapes) != 1:
        raise ValueError(f"a batch needs at least one point and one (d, n) shape, got {sorted(shapes)}")
    return np.array([X.mats for X in points])


def direct_sum(X: MatrixTuple, Y: MatrixTuple) -> MatrixTuple:
    """Coordinate-wise block-diagonal tuple of size n_X + n_Y."""
    if X.d != Y.d:
        raise ValueError(f"direct_sum needs equal lengths, got d={X.d} and d={Y.d}")
    n = X.n
    out = np.zeros((X.d, n + Y.n, n + Y.n), dtype=np.complex128)
    out[:, :n, :n] = X.mats
    out[:, n:, n:] = Y.mats
    return MatrixTuple(out)


DISK_TO_HALF = "disk_to_half"
HALF_TO_DISK = "half_to_disk"


def cayley(P: MatrixTuple, direction: str) -> MatrixTuple:
    """Coordinate-wise Cayley transform between the polydisk and Pi^d.

    disk_to_half: Z_i = i (I - X_i)^{-1} (I + X_i);
    half_to_disk: X_i = (Z_i - iI)(Z_i + iI)^{-1}.

    The round trip is the identity to 1e-10, and disk_to_half maps strict
    contractions to coordinates with positive-definite imaginary part.
    """
    eye = np.eye(P.n, dtype=np.complex128)
    Xs = P.mats
    labels = range(1, P.d + 1)
    if direction == DISK_TO_HALF:
        what = [f"coordinate {i}: I - X_{i}" for i in labels]
        out = 1j * checked_solve(eye - Xs, eye + Xs, what)
    elif direction == HALF_TO_DISK:
        # (Z - iI)(Z + iI)^{-1}, via the transposed systems
        what = [f"coordinate {i}: Z_{i} + iI" for i in labels]
        A, B = (Xs + 1j * eye).swapaxes(-1, -2), (Xs - 1j * eye).swapaxes(-1, -2)
        out = checked_solve(A, B, what).swapaxes(-1, -2)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return MatrixTuple(out)


def _ginibre(N: np.ndarray) -> np.ndarray:
    """Ginibre matrices from standard normals N of shape (..., 2, n, n):
    the real parts, then the imaginary parts."""
    return (N[..., 0, :, :] + 1j * N[..., 1, :, :]) / np.sqrt(2)


def _phase_fixed_q(G: np.ndarray) -> np.ndarray:
    """The Q factor of each matrix of a stack, its columns rotated so that
    R has a positive diagonal: Haar-distributed for a Ginibre G."""
    Q, R = la.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return Q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre draw with phase fix."""
    return _phase_fixed_q(_ginibre(rng.standard_normal((2, n, n))))


HAAR_UNITARY = "haar_unitary"
HERMITIAN_TUPLE = "hermitian_tuple"
PI_POINT = "pi_point"
PSD_DIRECTION = "psd_direction"
CONTRACTION_TUPLE = "contraction_tuple"

# the standard-normal n x n blocks one coordinate of each kind draws
_NORMAL_BLOCKS = {HAAR_UNITARY: 2, HERMITIAN_TUPLE: 2, PI_POINT: 4, PSD_DIRECTION: 2, CONTRACTION_TUPLE: 2}


def sample_batch(kind: str, n: int, d: int, seeds: Sequence[int]) -> np.ndarray:
    """The draws of :func:`sample` for every seed, stacked: (P, d, n, n), or
    (P, n, n) for haar_unitary.

    Each seed has its own default_rng, and each draw takes its normals in one
    standard_normal((d, k, n, n)) call, k blocks per coordinate: the stream
    and order of separate draws, so every draw equals sample(kind, n, d,
    seed). contraction_tuple draws a coordinate's radius right after its
    normals, so it takes them one coordinate at a time. The values are
    formed for the whole stack at once: one stacked QR for haar_unitary, one
    stacked SVD for the contraction norms.
    """
    if n < 1 or d < 1:
        raise ValueError("sample needs n >= 1 and d >= 1")
    if kind not in _NORMAL_BLOCKS:
        raise ValueError(f"unknown sample kind {kind!r}")
    if kind == HAAR_UNITARY:
        d = 1
    N = np.empty((len(seeds), d, _NORMAL_BLOCKS[kind], n, n))
    radii = np.empty((len(seeds), d))
    for seed, normals, r in zip(seeds, N, radii):
        rng = np.random.default_rng(seed)
        if kind != CONTRACTION_TUPLE:
            rng.standard_normal(out=normals)
            continue
        for i in range(d):
            rng.standard_normal(out=normals[i])
            r[i] = rng.uniform(0.3, 1.0)
    G = _ginibre(N[:, :, :2])
    if kind == HAAR_UNITARY:
        return _phase_fixed_q(G[:, 0])
    if kind == HERMITIAN_TUPLE:
        return hermitianize(G)
    if kind == CONTRACTION_TUPLE:
        return G * (0.9 * radii / np.maximum(spectral_norms(G), 1e-30))[..., None, None]
    B = (G if kind == PSD_DIRECTION else _ginibre(N[:, :, 2:])) / np.sqrt(n)
    BB = B @ B.conj().swapaxes(-1, -2)
    if kind == PSD_DIRECTION:
        return BB
    return hermitianize(G) + 1j * (0.05 * np.eye(n) + BB)


def sample(kind: str, n: int, d: int = 1, seed: int = 0):
    """Seeded generator for test points, the one-seed case of :func:`sample_batch`.

    - haar_unitary: a single n x n unitary (||U*U - I|| <= 1e-12);
    - hermitian_tuple: d unnormalized Gaussian-Hermitian matrices;
    - pi_point: Z_i = S_i + i(0.05 I + B_i B_i*), so min eig Im Z_i >= 0.05;
    - psd_direction: H_i = B_i B_i* >= 0;
    - contraction_tuple: ||X_i|| <= 0.9.

    Deterministic given (kind, n, d, seed); no OS entropy. Returns the
    unitary as an array and every other kind as a MatrixTuple.
    """
    S = sample_batch(kind, n, d, (seed,))[0]
    return S if kind == HAAR_UNITARY else MatrixTuple(S)


def point_sampler(kind: str, d: int = 1) -> Callable[[int, int], MatrixTuple | np.ndarray]:
    """The draw (n, seed) -> sample(kind, n, d, seed), with batch(n, seeds)
    returning the draws of many seeds from one :func:`sample_batch`."""

    def sampler(n: int, seed: int):
        return sample(kind, n, d, seed)

    def batch(n: int, seeds: Sequence[int]):
        S = sample_batch(kind, n, d, seeds)
        return S if kind == HAAR_UNITARY else [MatrixTuple(Z) for Z in S]

    sampler.batch = batch
    return sampler

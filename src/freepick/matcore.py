"""Dense complex-matrix substrate shared by the rest of the package.

Conventions used everywhere:

- the imaginary part of a matrix is Im M = (M - M*) / 2i, a Hermitian matrix;
- eigensolves act on the symmetrization (H + H*)/2, and asymmetry beyond
  1e-10 * ||H|| is an input error rather than something to fix silently;
- PSD verdicts are relative: min_eig >= -tol * (1 + ||H||_2);
- every inversion is guarded by a condition-number cutoff of 1e12.

All operations are pure given their inputs (and seed); values are treated as
immutable after construction, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def spectral_norm(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(la.norm(M, 2))


def hermitianize(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a positive-semidefiniteness check.

    is_psd holds exactly when min_eig >= -tol_used * (1 + ||H||_2).
    """

    min_eig: float
    is_psd: bool
    tol_used: float


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple X = (X_1, ..., X_d) of same-size square complex matrices.

    The evaluation point of everything in this package. Flags such as
    self-adjointness are checked on demand rather than stored.
    """

    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        coerced = tuple(
            as_complex_matrix(M, name=f"coordinate {i + 1}")
            for i, M in enumerate(self.mats)
        )
        if not coerced:
            raise ValueError("a matrix tuple needs at least one coordinate")
        n = coerced[0].shape[0]
        for i, M in enumerate(coerced):
            if M.shape != (n, n):
                raise ValueError(
                    f"coordinate {i + 1} has shape {M.shape}, expected ({n}, {n})"
                )
        object.__setattr__(self, "mats", coerced)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def adjoint(self) -> "MatrixTuple":
        return MatrixTuple(tuple(M.conj().T for M in self.mats))

    def is_selfadjoint(self, rtol: float = HERMITICITY_RTOL) -> bool:
        return all(
            spectral_norm(M - M.conj().T) <= rtol * max(spectral_norm(M), 1.0)
            for M in self.mats
        )

    def max_norm(self) -> float:
        """max_i ||X_i||_2, the radius used by tail bounds."""
        return max(spectral_norm(M) for M in self.mats)


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
    asym = spectral_norm(A - A.conj().T)
    if asym > HERMITICITY_RTOL * norm:
        raise AsymmetryError(
            f"matrix is not Hermitian: ||H - H*|| = {asym:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} * ||H|| = {HERMITICITY_RTOL * norm:.3e}"
        )
    w = la.eigvalsh(hermitianize(A))
    min_eig = float(w[0])
    return PsdReport(min_eig=min_eig, is_psd=min_eig >= -tol * (1 + norm), tol_used=tol)


def checked_solve(A: np.ndarray, B: np.ndarray, what: str = "pencil") -> np.ndarray:
    """A^{-1} B with the package-wide condition cutoff."""
    c = la.cond(A)
    if not np.isfinite(c) or c > COND_CUTOFF:
        raise SingularityError(f"{what} has condition number {c:.3e} > {COND_CUTOFF:g}")
    return la.solve(A, B)


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    m = sum(b.shape[1] for b in blocks)
    out = np.zeros((n, m), dtype=np.complex128)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def direct_sum(X: MatrixTuple, Y: MatrixTuple) -> MatrixTuple:
    """Coordinate-wise block-diagonal tuple of size n_X + n_Y."""
    if X.d != Y.d:
        raise ValueError(f"direct_sum needs equal lengths, got d={X.d} and d={Y.d}")
    return MatrixTuple(tuple(_block_diag(a, b) for a, b in zip(X.mats, Y.mats)))


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
    out = []
    if direction == DISK_TO_HALF:
        for i, X in enumerate(P.mats):
            try:
                out.append(1j * checked_solve(eye - X, eye + X, what=f"I - X_{i + 1}"))
            except SingularityError as exc:
                raise SingularityError(f"coordinate {i + 1}: {exc}") from None
    elif direction == HALF_TO_DISK:
        for i, Z in enumerate(P.mats):
            try:
                # (Z - iI)(Z + iI)^{-1}, via the transposed system
                Xi = checked_solve((Z + 1j * eye).T, (Z - 1j * eye).T, what=f"Z_{i + 1} + iI").T
            except SingularityError as exc:
                raise SingularityError(f"coordinate {i + 1}: {exc}") from None
            out.append(Xi)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return MatrixTuple(tuple(out))


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre draw with phase fix."""
    Q, R = la.qr(_ginibre(rng, n))
    diag = np.diagonal(R).copy()
    diag[diag == 0] = 1.0
    return Q * (diag / np.abs(diag))


HAAR_UNITARY = "haar_unitary"
HERMITIAN_TUPLE = "hermitian_tuple"
PI_POINT = "pi_point"
PSD_DIRECTION = "psd_direction"
CONTRACTION_TUPLE = "contraction_tuple"


def sample(kind: str, n: int, d: int = 1, seed: int = 0):
    """Seeded generator for test points.

    - haar_unitary: a single n x n unitary (||U*U - I|| <= 1e-12);
    - hermitian_tuple: d unnormalized Gaussian-Hermitian matrices;
    - pi_point: Z_i = S_i + i(0.05 I + B_i B_i*), so min eig Im Z_i >= 0.05;
    - psd_direction: H_i = B_i B_i* >= 0;
    - contraction_tuple: ||X_i|| <= 0.9.

    Deterministic given (kind, n, d, seed); no OS entropy.
    """
    if n < 1 or d < 1:
        raise ValueError("sample needs n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    if kind == HAAR_UNITARY:
        return haar_unitary(n, rng)
    if kind == HERMITIAN_TUPLE:
        return MatrixTuple(tuple(hermitianize(_ginibre(rng, n)) for _ in range(d)))
    if kind == PI_POINT:
        eye = np.eye(n)
        mats = []
        for _ in range(d):
            S = hermitianize(_ginibre(rng, n))
            B = _ginibre(rng, n) / np.sqrt(n)
            mats.append(S + 1j * (0.05 * eye + B @ B.conj().T))
        return MatrixTuple(tuple(mats))
    if kind == PSD_DIRECTION:
        mats = []
        for _ in range(d):
            B = _ginibre(rng, n) / np.sqrt(n)
            mats.append(B @ B.conj().T)
        return MatrixTuple(tuple(mats))
    if kind == CONTRACTION_TUPLE:
        mats = []
        for _ in range(d):
            G = _ginibre(rng, n)
            radius = 0.9 * rng.uniform(0.3, 1.0)
            mats.append(G * (radius / max(spectral_norm(G), 1e-30)))
        return MatrixTuple(tuple(mats))
    raise ValueError(f"unknown sample kind {kind!r}")

"""Monotonicity certification for real free power series.

The x_k-localizing matrix of a series sum c_I X^I is the word-indexed matrix
with entry (I, J) = c_{I* x_k J}. A locally monotone series has every such
matrix positive semidefinite, so a negative eigenvalue at any truncation
degree refutes monotonicity of the truncated series near 0, while a PSD
verdict is an explicit degree-L certificate (a necessary-condition check of
the infinite statement, never a proof for the untruncated function).

The PSD square roots of the localizing matrices give the factorized
(Hamburger) form of the derivative, and freezing the evaluation point turns
the derivative into a linear map whose complete positivity is checked
through its Choi matrix and Kraus operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from . import words as W
from .matcore import (
    DEFAULT_PSD_TOL,
    DomainError,
    MatrixTuple,
    PsdReport,
    hermitianize,
    psd_min_eig,
    sample,
    spectral_norms,
)
from .series import (
    FreeSeries,
    _value_at,
    derivative,
    localizing_matrix,
    pencil_contraction,
    require_real_free,
)


@dataclass(frozen=True, eq=False)
class Witness:
    """Refutation data: a unit vector u with u* M_k u = min_eig < -tol."""

    k: int
    vector: np.ndarray
    min_eig: float


@dataclass(frozen=True, eq=False)
class LocalizingCertificate:
    d: int
    degree: int
    matrices: tuple[np.ndarray, ...]
    reports: tuple[PsdReport, ...]
    verdict: str  # "certified_psd" | "refuted"
    witness: Witness | None
    #: localizing entries read coefficients up to this degree (absent -> 0)
    coefficient_horizon: int

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_PSD


CERTIFIED_PSD = "certified_psd"
REFUTED = "refuted"


def certify_monotone(f: FreeSeries, L: int, tol: float = DEFAULT_PSD_TOL) -> LocalizingCertificate:
    """PSD-check every letter's localizing matrix at degree L.

    Refutation carries the worst letter's unit eigenvector as a witness.
    The verdict is invariant under scaling f by a positive constant.
    """
    require_real_free(f, "certify_monotone")
    matrices = []
    reports = []
    worst: tuple[int, float] | None = None
    for k in range(1, f.d + 1):
        M = localizing_matrix(f, k, L)
        matrices.append(M)
        rep = psd_min_eig(M, tol)
        reports.append(rep)
        if not rep.is_psd and (worst is None or rep.min_eig < worst[1]):
            worst = (k, rep.min_eig)
    witness = None
    verdict = CERTIFIED_PSD
    if worst is not None:
        verdict = REFUTED
        k = worst[0]
        vals, vecs = la.eigh(hermitianize(matrices[k - 1]))
        witness = Witness(k=k, vector=vecs[:, 0], min_eig=float(vals[0]))
    return LocalizingCertificate(
        d=f.d,
        degree=L,
        matrices=tuple(matrices),
        reports=tuple(reports),
        verdict=verdict,
        witness=witness,
        coefficient_horizon=2 * L + 1,
    )


@dataclass(frozen=True, eq=False)
class HamburgerModel:
    """PSD square roots F_k of the localizing matrices at degree L.

    reconstruct(X, H) evaluates the factorized derivative
    sum_k sum_I T_I* H_k T_I with T_I = sum_J (F_k)_IJ X^J, which converges
    to Df(X)[H] as L grows on decay-validated series.
    """

    degree: int
    factors: tuple[np.ndarray, ...]
    certificate: LocalizingCertificate

    def reconstruct(self, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
        if not (len(self.factors) == X.d == H.d):
            raise ValueError(
                f"mismatched lengths: model d={len(self.factors)}, X d={X.d}, H d={H.d}"
            )
        if X.n != H.n:
            raise ValueError(f"mismatched sizes: X is {X.n} x {X.n}, H is {H.n} x {H.n}")
        stack = W.monomial_stack(X, W.enumerate_words(X.d, self.degree))
        acc = np.zeros((X.n, X.n), dtype=np.complex128)
        for F, Hk in zip(self.factors, H.mats):
            T = np.tensordot(F, stack, axes=1)
            acc += (T.conj().transpose(0, 2, 1) @ Hk @ T).sum(axis=0)
        return acc


def hamburger_factor(f: FreeSeries, L: int) -> HamburgerModel:
    """Factor each localizing matrix as F_k* F_k with F_k its PSD square root.

    Eigenvalues in [-DEFAULT_PSD_TOL (1 + ||M||), 0] are clipped to 0; anything
    more negative means the certificate refused and this raises instead.
    """
    cert = certify_monotone(f, L)
    if not cert.certified:
        w = cert.witness
        raise DomainError(
            f"localizing matrix for letter {w.k} has min_eig {w.min_eig:.3e}; "
            "no PSD factorization (see the refuting certificate)"
        )
    factors = []
    for M in cert.matrices:
        vals, vecs = la.eigh(hermitianize(M))
        vals = np.clip(vals, 0.0, None)
        factors.append((vecs * np.sqrt(vals)) @ vecs.conj().T)
    return HamburgerModel(degree=L, factors=tuple(factors), certificate=cert)


@dataclass(frozen=True, eq=False)
class ChoiCoordinate:
    k: int
    choi: np.ndarray
    report: PsdReport
    kraus: tuple[np.ndarray, ...]
    reconstruction_residual: float | None


@dataclass(frozen=True, eq=False)
class ChoiReport:
    coordinates: tuple[ChoiCoordinate, ...]

    @property
    def min_eig(self) -> float:
        return min(c.report.min_eig for c in self.coordinates)

    @property
    def all_cp(self) -> bool:
        return all(c.report.is_psd for c in self.coordinates)


def choi_at(f: FreeSeries, X: MatrixTuple, tol: float = DEFAULT_PSD_TOL) -> ChoiReport:
    """Choi/Kraus analysis of the per-coordinate derivative maps at X.

    For each coordinate k, D_k(H) = Df(X)[H in slot k] = sum_I left_I H T_I,
    with left and T from the staircase of :func:`pencil_contraction`, which
    builds no count x count pencil. So the Choi matrix
    C_k = sum_{p,q} E_pq (x) D_k(E_pq) has sum_I (left_I)_{ap} (T_I)_{qb}
    at ((p, a), (q, b)). If C_k is PSD, the Kraus operators from its
    spectral decomposition reconstruct D_k as sum_j V_j* H V_j; a negative
    eigenvalue reports failure of complete positivity (local monotonicity
    fails at X).
    """
    if f.d != X.d:
        raise ValueError(f"mismatched lengths: series d={f.d}, X d={X.d}")
    if not X.is_selfadjoint():
        raise DomainError("choi_at needs a self-adjoint tuple")
    if f.decay_rate is not None and f.d * X.max_norm() >= f.decay_rate:
        raise DomainError(
            f"point radius {X.max_norm():.3g} is outside the evaluation domain "
            f"(d * rho >= decay_rate {f.decay_rate:.3g})"
        )
    n = X.n
    left, T = pencil_contraction(f, X)
    coords = []
    for k in range(1, f.d + 1):
        C = np.einsum("iap,iqb->paqb", left, T[k - 1], optimize=True).reshape(n * n, n * n)
        rep = psd_min_eig(C, tol)
        kraus: tuple[np.ndarray, ...] = ()
        residual = None
        if rep.is_psd:
            vals, vecs = la.eigh(hermitianize(C))
            trace = float(np.trace(C).real)
            cutoff = tol * max(trace, 0.0)
            # eigenvalues ascend, so those above the cutoff are the top ones
            top = np.flatnonzero(vals > cutoff)[::-1]
            V = np.conj(np.sqrt(vals[top])[:, None] * vecs.T[top])
            kraus = tuple(V.reshape(len(top), n, n))
            rebuilt = V.conj().T @ V  # block (p, q) is sum_j V_j* E_pq V_j
            # the n x n blocks (p, q) of C and of rebuilt, stacked as (n, n, n, n)
            D, R = (M.reshape(n, n, n, n).swapaxes(1, 2) for M in (C, rebuilt))
            residual = float((spectral_norms(D - R) / (1 + spectral_norms(D))).max(initial=0.0))
        coords.append(
            ChoiCoordinate(k=k, choi=C, report=rep, kraus=kraus, reconstruction_residual=residual)
        )
    return ChoiReport(coordinates=tuple(coords))


@dataclass(frozen=True)
class MonotoneSampleReport:
    trials: int
    violations: int
    worst_min_eig: float

    @property
    def clean(self) -> bool:
        return self.violations == 0


def sample_monotone_test(f: FreeSeries, n: int, trials: int = 100, seed: int = 0) -> MonotoneSampleReport:
    """Sampled check of monotonicity: X <= Y implies f(X) <= f(Y), locally too.

    Per trial draws a self-adjoint X in the evaluation domain, a PSD
    perturbation P with Y = X + eps P still inside, and a PSD direction H;
    checks f(Y) - f(X) >= 0 and Df(X)[H] >= 0 (psd_min_eig's relative verdicts).
    """
    require_real_free(f, "sample_monotone_test")
    if f.decay_rate is not None:
        radius = 0.45 * f.decay_rate / f.d
    else:
        radius = 0.5
    violations = 0
    worst = float("inf")
    for t in range(trials):
        base = sample("hermitian_tuple", n, f.d, seed + 31 * t)
        X = MatrixTuple(base.mats * (radius / np.maximum(spectral_norms(base.mats), 1e-30))[:, None, None])
        P = sample("psd_direction", n, f.d, seed + 31 * t + 1)
        eps = 0.1 * radius / max(P.max_norm(), 1e-30)
        Y = MatrixTuple(X.mats + eps * P.mats)
        gap = _value_at(f, Y) - _value_at(f, X)
        rep_gap = psd_min_eig(hermitianize(gap))
        H = sample("psd_direction", n, f.d, seed + 31 * t + 2)
        D = derivative(f, X, H, method="block")
        rep_der = psd_min_eig(hermitianize(D))
        for rep in (rep_gap, rep_der):
            worst = min(worst, rep.min_eig)
            if not rep.is_psd:
                violations += 1
    return MonotoneSampleReport(trials=trials, violations=violations, worst_min_eig=worst)

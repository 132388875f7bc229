"""Szego kernels of the free coefficient Hardy space at a matrix point.

A degree-L frame at an n x n tuple X collects, for every matrix position
(i, j), the coefficient vector k^{ij} whose entry at the word I is
conj((X^I)_{ij}). Under the coefficient inner product
<f, g> = sum_I f_I conj(g_I) these reproduce evaluation:
<f, k^{ij}> = f(X)_{ij} exactly for every series of degree <= L.

The Gram matrix of the kernels drives projection onto their span and
minimum-norm interpolation. The Gram matrix is singular whenever kernels
collide or vanish (a Jordan block has k^{21} = 0 identically), so all
inversions go through an eigenvalue-thresholded pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from . import words as W
from .matcore import InfeasibleError, MatrixTuple, as_complex_matrix, hermitianize
from .series import FreeSeries, eval_series

GRAM_RANK_RTOL = 1e-12
FEASIBILITY_RTOL = 1e-8


@dataclass(frozen=True)
class SzegoFrame:
    """Kernels at X up to degree L, stacked as columns of K.

    Column i*n + j holds k^{ij} over the canonical word order; gram is
    K*K and rank its count of eigenvalues above 1e-12 of the largest.
    """

    X: MatrixTuple
    degree: int
    order: W.WordOrder
    K: np.ndarray
    gram: np.ndarray
    rank: int

    def kernel(self, i: int, j: int) -> np.ndarray:
        """Coefficient vector of k^{ij} (0-based matrix position)."""
        return self.K[:, i * self.X.n + j]


def szego_kernels(X: MatrixTuple, L: int, budget: int = W.WORD_BUDGET) -> SzegoFrame:
    order = W.enumerate_words(X.d, L, budget=budget)
    K = W.monomial_stack(X, order).conj().reshape(len(order), X.n * X.n)
    gram = K.conj().T @ K
    vals = la.eigvalsh(hermitianize(gram))
    top = max(float(vals[-1]), 0.0)
    rank = int(np.sum(vals > GRAM_RANK_RTOL * top)) if top > 0 else 0
    return SzegoFrame(X=X, degree=L, order=order, K=K, gram=gram, rank=rank)


def _coefficient_vector(frame: SzegoFrame, f: FreeSeries) -> np.ndarray:
    if f.d != frame.X.d:
        raise ValueError(f"series in {f.d} letters paired with a frame in {frame.X.d} letters")
    if f.degree > frame.degree:
        raise ValueError(
            f"series degree {f.degree} exceeds the frame degree {frame.degree}"
        )
    c = np.zeros(len(frame.order), dtype=np.complex128)
    c[f.keys] = f.values
    return c


def reproduce_check(frame: SzegoFrame, f: FreeSeries) -> float:
    """Max |<f, k^{ij}> - f(X)_{ij}|; float noise for degree <= L."""
    c = _coefficient_vector(frame, f)
    via_kernels = (frame.K.conj().T @ c).reshape(frame.X.n, frame.X.n)
    direct = eval_series(f, frame.X).value
    return float(np.max(np.abs(via_kernels - direct)))


def _gram_pinv(frame: SzegoFrame) -> np.ndarray:
    vals, vecs = la.eigh(hermitianize(frame.gram))
    top = max(float(vals[-1]), 0.0)
    cutoff = GRAM_RANK_RTOL * top
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.conj().T


def gram_projection(frame: SzegoFrame) -> np.ndarray:
    """Orthogonal projection of coefficient space onto the kernel span."""
    return frame.K @ _gram_pinv(frame) @ frame.K.conj().T


def min_norm_interpolate(
    X: MatrixTuple, target: np.ndarray, L: int, budget: int = W.WORD_BUDGET
) -> FreeSeries:
    """The minimum-norm degree-L series with f(X) = target.

    Solves the normal equations through the Gram pseudo-inverse; a target
    outside the kernel span (for a Jordan block, any nonzero (2,1) entry)
    raises InfeasibleError carrying the residual.
    """
    target = as_complex_matrix(target, "target")
    if target.shape != (X.n, X.n):
        raise ValueError(f"target must be {X.n}x{X.n}, got {target.shape}")
    frame = szego_kernels(X, L, budget=budget)
    t = target.reshape(-1)
    g = _gram_pinv(frame) @ t
    residual = float(la.norm(frame.gram @ g - t))
    if residual > FEASIBILITY_RTOL * (1.0 + float(la.norm(t))):
        raise InfeasibleError(
            f"target is not in the kernel span at degree {L}: "
            f"normal-equation residual {residual:.3e}"
        )
    c = frame.K @ g
    coeffs = {w: c[idx] for idx, w in enumerate(frame.order.words) if c[idx] != 0.0}
    return FreeSeries(d=X.d, degree=L, coeffs=coeffs)


def frame_export(frame: SzegoFrame) -> dict:
    """JSON-ready sparse listing of the kernels (debugging aid)."""
    kernels = []
    n = frame.X.n
    for i in range(n):
        for j in range(n):
            vec = frame.kernel(i, j)
            entries = [
                {"word": list(w), "re": float(vec[idx].real), "im": float(vec[idx].imag)}
                for idx, w in enumerate(frame.order.words)
                if vec[idx] != 0.0
            ]
            kernels.append({"i": i, "j": j, "entries": entries})
    return {
        "d": frame.X.d,
        "n": n,
        "degree": frame.degree,
        "rank": frame.rank,
        "kernels": kernels,
    }

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
from .series import FreeSeries, _value_at

GRAM_RANK_RTOL = 1e-12
FEASIBILITY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
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


def _kernel_build(X: MatrixTuple, L: int) -> tuple[W.WordOrder, np.ndarray, np.ndarray]:
    """The word order, the kernel stack K and its Gram K*K: the one build
    that szego_kernels and min_norm_interpolate share.

    S is the unconjugated monomial stack, so K = conj(S) and K* = S^T: the
    Gram reads S through a transposed view instead of a second conj copy.
    """
    order = W.enumerate_words(X.d, L)
    S = W.monomial_stack(X, order).reshape(len(order), X.n * X.n)
    K = S.conj()
    return order, K, S.T @ K


def _kept(vals: np.ndarray) -> np.ndarray:
    """The Gram eigenvalues above GRAM_RANK_RTOL times the largest, the
    largest read as 0 when it is negative or the spectrum is empty (n = 0)."""
    top = max(float(vals[-1]), 0.0) if vals.size else 0.0
    return vals > GRAM_RANK_RTOL * top


def szego_kernels(X: MatrixTuple, L: int) -> SzegoFrame:
    """The degree-L kernel frame at X, with the rank of its Gram.

    The rank costs one eigvalsh of the n^2 x n^2 Gram; min_norm_interpolate
    shares the kernel build but not that eigvalsh, since it never reads the
    rank. An n = 0 tuple has the empty frame, of rank 0.
    """
    order, K, gram = _kernel_build(X, L)
    rank = int(np.count_nonzero(_kept(la.eigvalsh(hermitianize(gram)))))
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
    direct = _value_at(f, frame.X)
    return float(np.max(np.abs(via_kernels - direct)))


def _gram_pinv(gram: np.ndarray) -> np.ndarray:
    vals, vecs = la.eigh(hermitianize(gram))
    keep = _kept(vals)
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.conj().T


def gram_projection(frame: SzegoFrame) -> np.ndarray:
    """Orthogonal projection of coefficient space onto the kernel span."""
    return frame.K @ _gram_pinv(frame.gram) @ frame.K.conj().T


def min_norm_interpolate(X: MatrixTuple, target: np.ndarray, L: int) -> FreeSeries:
    """The minimum-norm degree-L series with f(X) = target.

    Builds the kernels and their Gram as szego_kernels does, without its
    rank eigvalsh, and solves the normal equations through one eigh-based
    Gram pseudo-inverse. A target outside the kernel span (for a Jordan
    block, any nonzero (2,1) entry) raises InfeasibleError carrying the
    residual. The interpolant K g is read back through FreeSeries.from_vector,
    so no per-word constructor loop runs; the 0 x 0 target at an n = 0 tuple
    gives the empty series.
    """
    target = as_complex_matrix(target, "target")
    if target.shape != (X.n, X.n):
        raise ValueError(f"target must be {X.n}x{X.n}, got {target.shape}")
    order, K, gram = _kernel_build(X, L)
    t = target.reshape(-1)
    g = _gram_pinv(gram) @ t
    residual = float(la.norm(gram @ g - t))
    if residual > FEASIBILITY_RTOL * (1.0 + float(la.norm(t))):
        raise InfeasibleError(
            f"target is not in the kernel span at degree {L}: "
            f"normal-equation residual {residual:.3e}"
        )
    return FreeSeries.from_vector(order, K @ g)


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

"""Herglotz models on the free polydisk and the Cayley bridges.

A model is a unitary U on a d-fold direct sum H_d = H + ... + H together
with a unit vector v in H_d (a rank-one isometry from C) and a real shift
a. Two evaluation forms are provided: the Cayley form

    h(X) = (v* (x) I)(I + (U (x) I) delta(X))(I - (U (x) I) delta(X))^{-1}(v (x) I)

and the resolvent form

    h(X) = -i a I + (v* (x) I)(U (x) I - delta(X))^{-1}(U (x) I + delta(X))(v (x) I),

where delta(X) is the block-diagonal sum of the I_m (x) X_i. Both have
positive real part on strict contraction tuples and h(0) = I when a = 0.
The two forms are distinct parameterizations of the class, not the same
function of (U, v) in general; for scalar models both reduce to Moebius
maps, which coincide exactly when U is real.

Both forms are linear-pencil resolvents v* L(X)^{-1} R with
L(X) = A_0 (x) I_n + sum_i A_i (x) X_i (the realization form of Helton,
Klep and McCullough, and of Ball, Groenewald and Malakorn). With E_i the
projection of H_d onto its block i, so that delta(X) = sum_i E_i (x) X_i:

    Cayley form:     A_0 = I, A_i = -U E_i, so L = I - (U (x) I) delta(X);
                     the product (U (x) I) delta(X) is formed once and
                     serves the pencil and the left factor I + (U (x) I) delta(X);
    resolvent form:  A_0 = U, A_i = -E_i, so L = U (x) I - delta(X), and
                     R = (U (x) I + delta(X))(v (x) I).

Both pencils are well conditioned wherever the model evaluates, so their
solves skip the singular values. With m = CONTRACTION_MARGIN and
t = UNITARITY_TOL, the contraction gate gives ||delta(X)|| = max_i ||X_i|| <= 1 - m,
and ||U*U - I|| <= t gives ||U|| <= 1 + t/2 and sigma_min(U) >= 1 - t, so

    Cayley form:     sigma_min(I - (U (x) I) delta(X)) >= m - t/2, sigma_max <= 2;
    resolvent form:  sigma_min(U (x) I - delta(X)) >= m - t, sigma_max <= 2 + t.

Both condition numbers are at most PENCIL_COND_BOUND = (2 + t) / (m - t),
about 2.0e6, five orders under COND_CUTOFF; that room also covers the
rounding of the pencil and of the computed norms the gates compare.

U (x) I_n, v (x) I_n and v* (x) I_n are built once per model and per n and
kept on the model (PencilScaffold); a batch of same-size points is one
stack of pencils and one guarded solve (eval_herglotz_batch), and
eval_herglotz is a batch of one.

The bridges move between the Pick class on the matricial half-plane and
the Herglotz class on the polydisk through the coordinatewise Cayley
transform, and schur_cayley passes on to the contractive Schur class.
lurking_unitary_reduce is the block-compression step that shrinks a
structured isometry [[A, B], [C, D]] to D - C (I + A)^{-1} B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la

from .matcore import (
    CONTRACTION_MARGIN,
    DISK_TO_HALF,
    HALF_TO_DISK,
    DomainError,
    MatrixTuple,
    PencilScaffold,
    as_complex_matrix,
    cayley,
    checked_solve,
    pencil_terms,
    screened_norms,
    spectral_norm,
    stack_points,
)

UNITARITY_TOL = 1e-10
UNIT_NORM_TOL = 1e-12

#: the condition number of either form's pencil at any point the contraction
#: gate admits is at most this (derived in the module docstring)
PENCIL_COND_BOUND = (2 + UNITARITY_TOL) / (CONTRACTION_MARGIN - UNITARITY_TOL)

CAYLEY_FORM = "cayley"
RESOLVENT_FORM = "resolvent"
FORMS = (CAYLEY_FORM, RESOLVENT_FORM)

PICK_TO_HERGLOTZ = "pick_to_herglotz"
HERGLOTZ_TO_PICK = "herglotz_to_pick"


@dataclass(frozen=True, eq=False)
class HerglotzModel(PencilScaffold):
    """Model data (U unitary on H_d, unit vector v, real shift a)."""

    d: int
    m: int
    U: np.ndarray
    v: np.ndarray
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")
        size = self.d * self.m
        U = as_complex_matrix(self.U, "U")
        if U.shape != (size, size):
            raise ValueError(f"U must be {size}x{size} (dm x dm), got {U.shape}")
        if spectral_norm(U.conj().T @ U - np.eye(size)) > UNITARITY_TOL:
            raise ValueError(f"U is not unitary within {UNITARITY_TOL:g}")
        v = np.asarray(self.v, dtype=np.complex128).reshape(-1)
        if v.shape != (size,):
            raise ValueError(f"v must have length {size}, got {v.shape[0]}")
        if not np.isfinite(v).all():
            raise ValueError("v has non-finite entries")
        if abs(la.norm(v) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"v must be a unit vector within {UNIT_NORM_TOL:g}")
        a = float(self.a)
        if not math.isfinite(a):
            raise ValueError(f"a must be finite, got {a}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a)

    @cached_property
    def _blocks(self) -> np.ndarray:
        """E_i, the projection of H_d onto its block i, stacked as (d, dm, dm)."""
        size = self.d * self.m
        owner = np.arange(size) // self.m
        return np.eye(size) * (owner == np.arange(self.d)[:, None])[:, None, :]

    @cached_property
    def pencil_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, v, v*): the scaffold is (U (x) I_n, v (x) I_n, v* (x) I_n)."""
        return self.U, self.v.reshape(-1, 1), self.v.conj().reshape(1, -1)


def _require_strict_contractions(Xs: np.ndarray) -> None:
    norms = screened_norms(Xs, 1.0 - CONTRACTION_MARGIN)
    bad = norms > 1.0 - CONTRACTION_MARGIN
    if bad.any():
        p, i = np.argwhere(bad)[0]
        where = f"point {p}: " if len(Xs) > 1 else ""
        raise DomainError(
            f"{where}coordinate {i + 1} has norm {norms[p, i]:.6g}; evaluation needs "
            f"strict contractions (norm <= {1.0 - CONTRACTION_MARGIN})"
        )


def eval_herglotz(model: HerglotzModel, X: MatrixTuple, form: str = CAYLEY_FORM) -> np.ndarray:
    """Evaluate the model at a strict contraction tuple in either form."""
    return eval_herglotz_batch(model, (X,), form)[0]


def eval_herglotz_batch(
    model: HerglotzModel, points: Sequence[MatrixTuple], form: str = CAYLEY_FORM
) -> np.ndarray:
    """Evaluate the model at same-size strict contraction tuples, (P, n, n).

    One pencil per point over a shared scaffold, one guarded stacked solve,
    whose verdict PENCIL_COND_BOUND settles.
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    Xs = stack_points(points)
    if Xs.shape[1] != model.d:
        raise ValueError(f"X has {Xs.shape[1]} coordinates, the model has {model.d}")
    _require_strict_contractions(Xs)
    n = Xs.shape[-1]
    UI, v_col, v_row = model.scaffold(n)
    D = pencil_terms(model._blocks, Xs)
    if form == CAYLEY_FORM:
        UD = UI @ D
        eye = np.eye(UD.shape[-1])
        sol = checked_solve(eye - UD, v_col, "Herglotz Cayley kernel", PENCIL_COND_BOUND)
        return v_row @ (eye + UD) @ sol
    sol = checked_solve(UI - D, (UI + D) @ v_col, "Herglotz resolvent", PENCIL_COND_BOUND)
    return -1j * model.a * np.eye(n) + v_row @ sol


def herglotz_evaluator(model: HerglotzModel) -> Callable[[MatrixTuple], np.ndarray]:
    """The model in the Cayley form as a black-box evaluator (axiom fuzzing,
    bridges); its batch attribute evaluates same-size points with one
    eval_herglotz_batch."""

    def ev(X: MatrixTuple) -> np.ndarray:
        return eval_herglotz(model, X)

    ev.batch = lambda points: eval_herglotz_batch(model, points)
    return ev


def pick_herglotz_bridge(
    fn: Callable[[MatrixTuple], np.ndarray], direction: str
) -> Callable[[MatrixTuple], np.ndarray]:
    """Conjugate an evaluator by the coordinatewise Cayley transform.

    pick_to_herglotz turns f on the matricial half-plane into
    h(X) = -i f(Z(X)) on the polydisk, with Z_i = i (I - X_i)^{-1}(I + X_i);
    herglotz_to_pick is the inverse, f(Z) = i h(X(Z)). The two compose to
    the identity wherever the coordinate transforms are defined.
    """
    if direction == PICK_TO_HERGLOTZ:

        def bridged(X: MatrixTuple) -> np.ndarray:
            return -1j * fn(cayley(X, DISK_TO_HALF))

    elif direction == HERGLOTZ_TO_PICK:

        def bridged(Z: MatrixTuple) -> np.ndarray:
            return 1j * fn(cayley(Z, HALF_TO_DISK))

    else:
        raise ValueError(
            f"direction must be {PICK_TO_HERGLOTZ!r} or {HERGLOTZ_TO_PICK!r}, got {direction!r}"
        )
    return bridged


def schur_cayley(
    h_eval: Callable[[MatrixTuple], np.ndarray]
) -> Callable[[MatrixTuple], np.ndarray]:
    """Cayley image phi(X) = (h(X) - I)(h(X) + I)^{-1} of a Herglotz evaluator."""

    def phi(X: MatrixTuple) -> np.ndarray:
        h = np.asarray(h_eval(X))
        eye = np.eye(h.shape[0])
        return checked_solve((h + eye).T, (h - eye).T, "Schur Cayley step").T

    return phi


def lurking_unitary_reduce(W: np.ndarray, top_dim: int) -> np.ndarray:
    """Compress a block isometry [[A, B], [C, D]] to U = D - C (I + A)^{-1} B.

    A is the leading top_dim x top_dim block. If W is an isometry the
    output is one (a unitary stays unitary); validation happens here for W
    and is left to the caller for U, whose defect the reduction bounds by
    the input defect. The inversion needs I + A nonsingular, a precondition
    the compression formula itself imposes.
    """
    W = as_complex_matrix(W, "W")
    rows, cols = W.shape
    if not 0 < top_dim < min(rows, cols):
        raise ValueError(f"top_dim must split {W.shape} into four blocks, got {top_dim}")
    defect = spectral_norm(W.conj().T @ W - np.eye(cols))
    if defect > 1e-9:
        raise DomainError(f"W is not an isometry within 1e-09 (defect {defect:.3e})")
    A = W[:top_dim, :top_dim]
    B = W[:top_dim, top_dim:]
    C = W[top_dim:, :top_dim]
    D = W[top_dim:, top_dim:]
    return D - C @ checked_solve(np.eye(top_dim) + A, B, "lurking-unitary compression")

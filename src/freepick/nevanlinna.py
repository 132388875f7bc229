"""Finite-dimensional Nevanlinna representations of free Pick functions.

A representation is built from a self-adjoint operator A on C^m, a vector v,
a real constant a, and a positive decomposition of the identity: PSD
operators Y_1..Y_d with sum I (kinds 1-3), or pairwise-orthogonal
projections P_1..P_d (kind 4, where the space splits as N (+) K with A
acting on K alone). Evaluation at a tuple Z in the matricial half-plane
Pi^d goes through the structured resolvent of the kind, and the kind is
recoverable from growth of h along the ray (is, ..., is):

    kind 1: s|h(is chi)| stays bounded,
    kind 2: s Im h(is chi) stays bounded,
    kind 3: (1/s) Im h(is chi) -> 0,
    kind 4: no growth condition.

In finite dimensions kinds 2 and 3 collapse (v always lies in the domain of
A), so a kind-3 built function classifies as type 2. The classifier takes
the lowest-numbered criterion that its three-point limit heuristic accepts
and always ships the raw sequences so a caller can re-decide.

Every kind is a linear-pencil resolvent h(Z) = a I + (l (x) I) L(Z)^{-1} R
with L(Z) = A_0 (x) I_n + sum_i A_i (x) Z_i. With
delta(Z) = sum_i Y_i (x) Z_i (P_i for kind 4):

    kinds 1, 2:  A_0 = A, A_i = -Y_i; l = v*, R = v (x) I;
    kind 3:      A_0 = A, A_i = -Y_i; with B = I - iA, l = v* B and
                 R = (I + delta(Z)(A (x) I))(B^{-1} v (x) I);
    kind 4:      A_0 = D1 = I_N (+) A, A_i = -P_i E_K with E_K the
                 projection onto K; with T = -i I_N (+) (I - iA), l = v* T
                 and R = (delta(Z)(D1 (x) I) + E_K (x) I)(T^{-1} v (x) I).

Kind 3 is the empty-N case of the kind-4 constants: with dimN = 0, T is B
and D1 is A, and kind 3 has no E_K. T, D1, E_K and the two vectors are
computed once per spec, and their tensor products with I_n once per spec
and per n (PencilScaffold). A batch of same-size points is one stack of
pencils and one guarded solve (eval_representation_batch);
eval_representation is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la

from .matcore import (
    DEFAULT_PSD_TOL,
    DomainError,
    MatrixTuple,
    PI_POINT,
    PencilScaffold,
    checked_solve,
    pencil_terms,
    point_sampler,
    spectral_norm,
    stack_points,
)

STRUCTURE_TOL = 1e-10
PROBE_REL_TOL = 1e-3
PROBE_ABS_TOL = 1e-9


def _as_vector(v, m: int) -> np.ndarray:
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    if arr.shape != (m,):
        raise ValueError(f"v must be a length-{m} vector, got shape {np.asarray(v).shape}")
    if not np.isfinite(arr).all():
        raise ValueError("v has non-finite entries")
    return arr


def _as_finite(M, name: str) -> np.ndarray:
    arr = np.asarray(M, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _check_hermitian(A: np.ndarray, name: str) -> None:
    if spectral_norm(A - A.conj().T) > STRUCTURE_TOL:
        raise ValueError(f"{name} is not Hermitian within {STRUCTURE_TOL:g}")


@dataclass(frozen=True, eq=False)
class RepresentationSpec(PencilScaffold):
    """Data of a type 1-4 Nevanlinna representation on C^m.

    kinds 1-3 carry a positive decomposition Y (kind 1 additionally has
    a = 0); kind 4 carries orthogonal projections P, the size dimN of the
    N block (the space is ordered N-first), and A on the K block only.
    """

    kind: int
    a: float
    m: int
    A: np.ndarray
    v: np.ndarray
    Y: tuple[np.ndarray, ...] | None = None
    P: tuple[np.ndarray, ...] | None = None
    dimN: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (1, 2, 3, 4):
            raise ValueError(f"kind must be 1..4, got {self.kind}")
        a = float(self.a)
        if not math.isfinite(a):
            raise ValueError(f"a must be finite, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "A", _as_finite(self.A, "A"))
        object.__setattr__(self, "v", _as_vector(self.v, self.m))
        if self.kind == 1 and self.a != 0.0:
            raise ValueError("kind 1 requires a = 0")
        projective = self.kind == 4
        if projective:
            if self.P is None or self.dimN is None:
                raise ValueError("kind 4 requires projections P and dimN")
            if self.Y is not None:
                raise ValueError("kind 4 does not take a positive decomposition Y")
            if not 0 <= self.dimN <= self.m:
                raise ValueError(f"dimN must lie in 0..{self.m}, got {self.dimN}")
            name, parts, k = "P", self.P, self.m - self.dimN
            A_shape = f"act on the K block alone ({k}x{k})"
        else:
            if self.Y is None:
                raise ValueError(f"kind {self.kind} requires a positive decomposition Y")
            if self.P is not None:
                raise ValueError("Y-kinds do not take projections P")
            if self.dimN is not None:
                raise ValueError("Y-kinds do not take dimN")
            name, parts, k = "Y", self.Y, self.m
            A_shape = f"be {k}x{k}"
        mats = tuple(_as_finite(M, f"{name}_{i}") for i, M in enumerate(parts, start=1))
        object.__setattr__(self, name, mats)
        if self.A.shape != (k, k):
            raise ValueError(f"A must {A_shape}, got {self.A.shape}")
        _check_hermitian(self.A, "A")
        total = np.zeros((self.m, self.m), dtype=np.complex128)
        for i, M in enumerate(mats, start=1):
            if M.shape != (self.m, self.m):
                raise ValueError(f"{name}_{i} must be {self.m}x{self.m}, got {M.shape}")
            _check_hermitian(M, f"{name}_{i}")
            if projective and spectral_norm(M @ M - M) > STRUCTURE_TOL:
                raise ValueError(f"{name}_{i} is not idempotent within {STRUCTURE_TOL:g}")
            if not projective and la.eigvalsh((M + M.conj().T) / 2).min() < -STRUCTURE_TOL:
                raise ValueError(f"{name}_{i} is not PSD within {STRUCTURE_TOL:g}")
            total += M
        if projective:
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    if spectral_norm(mats[i] @ mats[j]) > STRUCTURE_TOL:
                        raise ValueError(f"P_{i + 1} P_{j + 1} is not zero")
        if spectral_norm(total - np.eye(self.m)) > STRUCTURE_TOL:
            raise ValueError(f"sum of {name}_i differs from the identity")

    @property
    def d(self) -> int:
        return len(self.decomposition)

    @property
    def decomposition(self) -> tuple[np.ndarray, ...]:
        return self.Y if self.Y is not None else self.P

    @cached_property
    def _decomposition_stack(self) -> np.ndarray:
        return np.array(self.decomposition)

    @cached_property
    def pencil_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """(A_0, left row, right column, E_K) of the kind's resolvent, once per spec."""
        if self.kind in (1, 2):
            return self.A, self.v.conj().reshape(1, -1), self.v.reshape(-1, 1), None
        # kind 3 is kind 4 with an empty N block and no E_K
        nN = self.dimN or 0
        T = np.zeros((self.m, self.m), dtype=np.complex128)
        T[:nN, :nN] = -1j * np.eye(nN)
        T[nN:, nN:] = np.eye(self.m - nN) - 1j * self.A
        D1 = np.zeros((self.m, self.m), dtype=np.complex128)
        D1[:nN, :nN] = np.eye(nN)
        D1[nN:, nN:] = self.A
        EK = None
        if self.kind == 4:
            EK = np.zeros((self.m, self.m), dtype=np.complex128)
            EK[nN:, nN:] = np.eye(self.m - nN)
        label = "kind-3 constant I - iA" if self.kind == 3 else "kind-4 constant T = -iI (+) (I - iA)"
        T_inv_v = checked_solve(T, self.v, label)
        return D1, (self.v.conj() @ T).reshape(1, -1), T_inv_v.reshape(-1, 1), EK


def _require_half_plane(Zs: np.ndarray) -> None:
    # the lowest eigenvalue of each coordinate, none at n = 0
    low = la.eigvalsh((Zs - Zs.conj().swapaxes(-1, -2)) / 2j)[..., :1]
    bad = low <= 0
    if bad.any():
        p, i, _ = np.argwhere(bad)[0]
        where = f"point {p}: " if len(Zs) > 1 else ""
        raise DomainError(f"{where}coordinate {i + 1} is not in the open matricial half-plane")


def eval_representation(spec: RepresentationSpec, Z: MatrixTuple) -> np.ndarray:
    """Evaluate the structured resolvent of spec.kind at Z in Pi^d."""
    return eval_representation_batch(spec, (Z,))[0]


def eval_representation_batch(spec: RepresentationSpec, points: Sequence[MatrixTuple]) -> np.ndarray:
    """Evaluate the structured resolvent at same-size points of Pi^d, (P, n, n).

    One pencil per point over the spec's cached scaffold, one guarded
    stacked solve.
    """
    Zs = stack_points(points)
    _require_half_plane(Zs)
    if Zs.shape[1] != spec.d:
        raise ValueError(f"Z has {Zs.shape[1]} coordinates, the decomposition has {spec.d}")
    n = Zs.shape[-1]
    A0, v_row, v_col, EK = spec.scaffold(n)
    delta = pencil_terms(spec._decomposition_stack, Zs)
    if spec.kind in (1, 2):
        sol = checked_solve(A0 - delta, v_col, "structured resolvent")
    elif spec.kind == 3:
        sol = checked_solve(A0 - delta, v_col + delta @ A0 @ v_col, "structured resolvent")
    else:
        sol = checked_solve(A0 - delta @ EK, (delta @ A0 + EK) @ v_col, "structured resolvent")
    return spec.a * np.eye(n) + v_row @ sol


def representation_evaluator(spec: RepresentationSpec) -> Callable[[MatrixTuple], np.ndarray]:
    """The representation as a black-box evaluator (axiom fuzzing, probes);
    its batch attribute evaluates same-size points with one
    eval_representation_batch."""

    def ev(Z: MatrixTuple) -> np.ndarray:
        return eval_representation(spec, Z)

    ev.batch = lambda points: eval_representation_batch(spec, points)
    return ev


def scalar_evaluator(spec: RepresentationSpec) -> Callable[[complex], complex]:
    """h restricted to scalar points (z, ..., z), identified with C; its
    batch attribute evaluates a sequence of such z with one
    eval_representation_batch."""

    def point(z: complex) -> MatrixTuple:
        return MatrixTuple(np.full((spec.d, 1, 1), z))

    def ev(z: complex) -> complex:
        return complex(eval_representation(spec, point(z))[0, 0])

    ev.batch = lambda zs: eval_representation_batch(spec, [point(z) for z in zs])[:, 0, 0].tolist()
    return ev


def pi_sampler(d: int) -> Callable[[int, int], MatrixTuple]:
    """Half-plane point sampler with the (n, seed) shape axiom_verify wants,
    and batch(n, seeds) drawing many seeds at once."""
    return point_sampler(PI_POINT, d)


@dataclass(frozen=True)
class SequenceSummary:
    values: tuple[float, ...]
    limit: float | None
    converged: bool


def _summarize(values: list[float]) -> SequenceSummary:
    tail = values[-3:]
    if len(tail) == 3 and all(abs(x) < PROBE_ABS_TOL for x in tail):
        return SequenceSummary(tuple(values), 0.0, True)
    converged = False
    if len(tail) == 3 and all(np.isfinite(tail)):
        rel = max(
            abs(x - y) / max(abs(x), abs(y), 1e-300)
            for x, y in ((tail[0], tail[1]), (tail[0], tail[2]), (tail[1], tail[2]))
        )
        converged = rel <= PROBE_REL_TOL
    limit = values[-1] if converged else None
    return SequenceSummary(tuple(values), limit, converged)


@dataclass(frozen=True)
class AsymptoticProbe:
    """Growth of h along (is, ..., is) on a geometric grid of s.

    scaled_modulus carries s|h|, scaled_imag carries s Im h, damped_imag
    carries (1/s) Im h. Limit estimates repeat the value at the largest s;
    a sequence counts as converged when its last three values agree to
    relative 1e-3, or are all below 1e-9 in absolute value (limit 0).
    """

    grid: tuple[float, ...]
    scaled_modulus: SequenceSummary
    scaled_imag: SequenceSummary
    damped_imag: SequenceSummary


def asymptotic_probe(evaluator: Callable[[complex], complex], smax: float = 2.0**20) -> AsymptoticProbe:
    """Probe a scalar-level evaluator h along is for s = 1, 2, 4, ... <= smax.

    An evaluator with a batch attribute gets the whole grid in one
    batch(zs) call. If that raises, the grid is evaluated point by point,
    so the first failing point raises its own error.
    """
    if not (math.isfinite(smax) and smax >= 1):
        raise ValueError(f"smax must be finite and at least 1, got {smax}")
    grid: list[float] = []
    s = 1.0
    while s <= smax:
        grid.append(s)
        s *= 2.0
    mods: list[float] = []
    scaled: list[float] = []
    damped: list[float] = []
    zs = [1j * s for s in grid]
    hs = None
    if hasattr(evaluator, "batch"):
        try:
            hs = [complex(h) for h in evaluator.batch(zs)]
        except Exception:  # redone point by point below, which raises the first failing point's error
            pass
    if hs is None:
        hs = [complex(evaluator(z)) for z in zs]
    for s, h in zip(grid, hs):
        mods.append(s * abs(h))
        scaled.append(s * h.imag)
        damped.append(h.imag / s)
    return AsymptoticProbe(
        grid=tuple(grid),
        scaled_modulus=_summarize(mods),
        scaled_imag=_summarize(scaled),
        damped_imag=_summarize(damped),
    )


@dataclass(frozen=True)
class TypeVerdict:
    type: int
    inconclusive: bool


def classify_type(probe: AsymptoticProbe) -> TypeVerdict:
    """Lowest-numbered type whose growth criterion the probe accepts.

    Type 1 needs s|h| bounded (detected: converged), type 2 needs s Im h
    bounded, type 3 needs (1/s) Im h -> 0, type 4 is unconditional. When
    the (1/s) Im h sequence never settles the type-4 fallback is flagged
    inconclusive; the caller has the raw sequences either way.
    """
    if probe.scaled_modulus.converged:
        return TypeVerdict(1, False)
    if probe.scaled_imag.converged:
        return TypeVerdict(2, False)
    if probe.damped_imag.converged and probe.damped_imag.limit == 0.0:
        return TypeVerdict(3, False)
    return TypeVerdict(4, not probe.damped_imag.converged)


@dataclass(frozen=True)
class PickPositivityReport:
    samples: int
    levels: tuple[int, ...]
    min_imag_eig: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.min_imag_eig >= -self.tol


def pick_positivity_check(
    spec: RepresentationSpec,
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_PSD_TOL,
    levels: tuple[int, ...] = (1, 2, 3),
) -> PickPositivityReport:
    """Sampled check that Im h(Z) stays PSD over half-plane points.

    Sample t is the pi_point of size levels[t % len(levels)] drawn with seed
    seed + 104729 t; each level's samples are drawn as one batch and
    evaluated as one batch, and one stacked eigvalsh reads the spectra of
    their Im h = (h - h*)/2i.
    """
    if not levels:
        raise ValueError("levels must name at least one matrix size")
    worst = float("inf")
    draw = pi_sampler(spec.d).batch
    for k, n in enumerate(levels):
        seeds = [seed + 104729 * t for t in range(k, samples, len(levels))]
        if seeds:
            h = eval_representation_batch(spec, draw(n, seeds))
            worst = min(worst, float(la.eigvalsh((h - h.conj().swapaxes(1, 2)) / 2j).min()))
    return PickPositivityReport(samples=samples, levels=levels, min_imag_eig=worst, tol=tol)

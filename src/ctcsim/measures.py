"""Distinguishability functionals and standard-QM baselines.

Two states can be compared by a single projective measurement on each
system: the probability that the two outcomes disagree is an operational
distinguishability measure (0 for identical aligned states, 1 for
orthogonal states measured along their axis). Optimizing the measurement
axis relates it to the trace distance; the Helstrom bound covers the
identify-one-state-at-a-time game instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import depolarize
from .qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    PureQubit,
    ValidationError,
    hermitian_eigensystem,
    trace_distance,
)

__all__ = [
    "MeasurementDirection",
    "SIGMA_Z_AXIS",
    "DistinguishabilityReport",
    "mismatch_probability",
    "optimal_mismatch_probability",
    "helstrom_success_probability",
    "qm_baseline",
    "grid_search_mismatch",
    "bloch_measures",
]


@dataclass(frozen=True)
class MeasurementDirection:
    """Projective measurement along a unit Bloch axis; "+" projector (I + n.sigma)/2."""

    axis: BlochVector

    def __post_init__(self) -> None:
        if abs(self.axis.norm() - 1.0) > 1e-12:
            raise ValidationError(
                f"measurement axis must be a unit vector (norm = {self.axis.norm()})"
            )

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        n_sigma = self.axis.x * SIGMA_X + self.axis.y * SIGMA_Y + self.axis.z * SIGMA_Z
        return (ID2 + n_sigma) / 2.0, (ID2 - n_sigma) / 2.0


SIGMA_Z_AXIS = MeasurementDirection(BlochVector(0.0, 0.0, 1.0))


@dataclass(frozen=True)
class DistinguishabilityReport:
    """All figures of merit for one state pair, side by side."""

    L_sigma_z: float
    L_optimal: float
    optimal_axis: MeasurementDirection
    trace_dist: float
    p_succ_optimal: float

    def __post_init__(self) -> None:
        for name in ("L_sigma_z", "L_optimal", "trace_dist", "p_succ_optimal"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1 + 1e-12:
                raise ValidationError(f"{name} = {v} outside [0, 1]")
        if self.L_optimal < self.L_sigma_z - 1e-12:
            raise ValidationError("optimized measure fell below the fixed-axis value")


def mismatch_probability(rho1: DensityMatrix, rho2: DensityMatrix,
                         direction: MeasurementDirection) -> float:
    """Probability that one projective measurement per system gives different outcomes.

    <+|rho1|+><-|rho2|-> + <-|rho1|-><+|rho2|+>, which in Bloch form is
    (1 - (n.r1)(n.r2))/2.
    """
    p_plus, p_minus = direction.projectors()
    a1 = float(np.trace(p_plus @ rho1.mat).real)
    a2 = float(np.trace(p_plus @ rho2.mat).real)
    b1 = float(np.trace(p_minus @ rho1.mat).real)
    b2 = float(np.trace(p_minus @ rho2.mat).real)
    return a1 * b2 + b1 * a2


def optimal_mismatch_probability(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[float, MeasurementDirection]:
    """Mismatch probability maximized over measurement axes.

    (n.r1)(n.r2) is the quadratic form of the symmetric matrix
    (r1 r2^T + r2 r1^T)/2, so the maximum is (1 - lambda_min)/2 with the
    minimizing eigenvector as axis. When the form vanishes identically
    (either Bloch vector zero) every axis gives 1/2 and the z-axis is
    returned for determinism.
    """
    r1 = rho1.bloch().as_array()
    r2 = rho2.bloch().as_array()
    form = (np.outer(r1, r2) + np.outer(r2, r1)) / 2.0
    if np.abs(form).max() < 1e-14:
        return 0.5, SIGMA_Z_AXIS
    lam, vecs = hermitian_eigensystem(form)
    axis = vecs[:, 0].real
    axis = axis / np.linalg.norm(axis)
    # Canonical sign: first clearly nonzero component positive.
    for c in axis:
        if abs(c) > 1e-9:
            if c < 0:
                axis = -axis
            break
    value = float((1.0 - lam[0]) / 2.0)
    return min(max(value, 0.0), 1.0), MeasurementDirection(BlochVector(*axis))


def helstrom_success_probability(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Best equal-prior identification probability: (1 + trace distance)/2."""
    return 0.5 * (1.0 + trace_distance(rho1, rho2))


def bloch_measures(r1: np.ndarray, r2: np.ndarray):
    """(L_sigma_z, L_optimal, trace distance, Helstrom) of Bloch pairs (..., 3), batched.

    Closed forms (1 - z1 z2)/2, (1 - (r1.r2 - |r1||r2|)/2)/2, |r1 - r2|/2
    and (1 + D)/2; the eigen-based functions above are their oracles.
    """
    d = np.linalg.norm(r1 - r2, axis=-1) / 2.0
    l_z = (1.0 - r1[..., 2] * r2[..., 2]) / 2.0
    lam = (np.sum(r1 * r2, axis=-1)
           - np.linalg.norm(r1, axis=-1) * np.linalg.norm(r2, axis=-1)) / 2.0
    l_opt = np.clip((1.0 - lam) / 2.0, 0.0, 1.0)
    return l_z, l_opt, d, 0.5 * (1.0 + d)


@lru_cache(maxsize=8)
def _search_grid(points: int, levels: int):
    """Fibonacci sphere of `points` axes and each zoom level's (du, dv) mesh
    offsets, built on first use and shared (read-only) by later searches."""
    idx = np.arange(points, dtype=float)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (idx + 0.5) / points
    rad = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    ang = golden * idx
    axes = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), z])
    spread = math.sqrt(4.0 * math.pi / points)
    rng_grid = np.linspace(-1.0, 1.0, 21)
    zoom = []
    for _ in range(levels):
        du, dv = np.meshgrid(rng_grid * spread, rng_grid * spread)
        zoom.append((du.reshape(-1, 1), dv.reshape(-1, 1)))
        spread /= 8.0
    for a in (axes, *(d for pair in zoom for d in pair)):
        a.setflags(write=False)
    return axes, tuple(zoom)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, same arithmetic, without its per-call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def grid_search_mismatch(rho1: DensityMatrix, rho2: DensityMatrix,
                         points: int = 10_000, levels: int = 4) -> float:
    """Brute-force oracle for the optimized mismatch probability.

    Scans a Fibonacci sphere of `points` axes, then zooms onto the best
    region `levels` times, scanning a 21x21 mesh each time. Deliberately
    independent of the eigensystem shortcut it is used to check.
    """
    r1 = rho1.bloch().as_array()
    r2 = rho2.bloch().as_array()
    axes, zoom = _search_grid(points, levels)

    def value(ax: np.ndarray) -> np.ndarray:
        return (1.0 - (ax @ r1) * (ax @ r2)) / 2.0

    best_ax = axes[int(np.argmax(value(axes)))]
    # Local frame around the current best axis.
    for du, dv in zoom:
        ref = np.array([1.0, 0.0, 0.0]) if abs(best_ax[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = _cross(best_ax, ref)
        u /= np.linalg.norm(u)
        v = _cross(best_ax, u)
        cand = best_ax[None, :] + du * u[None, :] + dv * v[None, :]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        best_ax = cand[int(np.argmax(value(cand)))]
    return float(value(best_ax[None, :])[0])


@lru_cache(maxsize=65536)
def qm_baseline(phi: float, p: float = 0.0) -> DistinguishabilityReport:
    """Standard-QM reference for the pair {|H>, psi1(phi)} after depolarization p.

    This is the un-evolved comparison used against every loop experiment;
    it does not depend on how the states were prepared. Because
    depolarization shrinks both Bloch vectors isotropically, the optimal
    axis is the decoherence-free one and L_optimal equals its value on the
    noisy pair.
    """
    rho0 = depolarize(PureQubit(0.0, 0.0).density(), p)
    rho1 = depolarize(PureQubit(phi, 0.0).density(), p)
    l_z = mismatch_probability(rho0, rho1, SIGMA_Z_AXIS)
    l_opt, axis = optimal_mismatch_probability(rho0, rho1)
    d = trace_distance(rho0, rho1)
    return DistinguishabilityReport(
        L_sigma_z=l_z,
        L_optimal=l_opt,
        optimal_axis=axis,
        trace_dist=d,
        p_succ_optimal=0.5 * (1.0 + d),
    )

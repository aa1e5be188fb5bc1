"""Distinguishability functionals and standard-QM baselines.

Two states can be compared by a single projective measurement on each
system: the probability that the two outcomes disagree is an operational
distinguishability measure (0 for identical aligned states, 1 for
orthogonal states measured along their axis). Optimizing the measurement
axis relates it to the trace distance; the Helstrom bound covers the
identify-one-state-at-a-time game instead.

The measures on DensityMatrix pairs (mismatch_probability,
optimal_mismatch_probability, trace_distance) work on the matrices and
their eigensystems. bloch_measures gives the same quantities in closed
form on Bloch vectors; the reproduce tables and qm_baseline use it, and
the eigen-based functions are its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    PureQubit,
    ValidationError,
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


@dataclass(frozen=True, eq=False)
class MeasurementDirection:
    """Projective measurement along a unit Bloch axis; "+" projector (I + n.sigma)/2.

    `axis` is stored as a read-only (3,) float array; the projector pair is
    built on the first projectors() call and kept, read-only, for later ones.
    """

    axis: np.ndarray

    def __post_init__(self) -> None:
        axis = np.array(self.axis, dtype=float)
        if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= 1e-12:
            raise ValidationError(f"measurement axis must be a unit 3-vector, got {axis.tolist()}")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    @cached_property
    def _projector_pair(self) -> tuple[np.ndarray, np.ndarray]:
        x, y, z = self.axis
        n_sigma = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
        pair = (ID2 + n_sigma) / 2.0, (ID2 - n_sigma) / 2.0
        for proj in pair:
            proj.setflags(write=False)
        return pair

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(P+, P-) as read-only 2x2 arrays, the same pair on every call."""
        return self._projector_pair


SIGMA_Z_AXIS = MeasurementDirection(np.array([0.0, 0.0, 1.0]))


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
    minimizing eigenvector as axis. When either Bloch vector vanishes (norm
    below 1e-12) the form vanishes too, every axis gives 1/2 and the z-axis
    is returned for determinism.
    """
    r1, r2 = rho1.bloch(), rho2.bloch()
    if min(math.hypot(*r1), math.hypot(*r2)) < 1e-12:
        return 0.5, SIGMA_Z_AXIS
    # Solved as a complex Hermitian matrix: the real solver can flip the
    # sign of a roundoff-sized axis component, which the CLI prints. Those
    # signs also follow the signs of zeros, so + 0.0 makes every zero +0.0.
    form = (np.outer(r1, r2) + np.outer(r2, r1)) / 2.0 + 0.0
    lam, vecs = np.linalg.eigh(form.astype(complex))
    axis = vecs[:, 0].real
    value = float((1.0 - lam[0]) / 2.0)
    return min(max(value, 0.0), 1.0), _canonical_direction(axis / np.linalg.norm(axis))


def _canonical_direction(axis: np.ndarray) -> MeasurementDirection:
    """The direction of +-axis whose first clearly nonzero component is positive."""
    for c in axis.tolist():
        if abs(c) > 1e-9:
            if c < 0:
                axis = -axis
            break
    return MeasurementDirection(axis)


def helstrom_success_probability(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Best equal-prior identification probability: (1 + trace distance)/2."""
    return 0.5 * (1.0 + trace_distance(rho1, rho2))


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of real vectors, same arithmetic, without its per-call overhead."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def bloch_measures(r1: np.ndarray, r2: np.ndarray):
    """(L_sigma_z, L_optimal, trace distance, Helstrom) of Bloch pairs (..., 3), batched.

    Closed forms (1 - z1 z2)/2, (1 - (r1.r2 - |r1||r2|)/2)/2, |r1 - r2|/2
    and (1 + D)/2; the eigen-based functions above are their oracles.
    """
    d = _norms(r1 - r2) / 2.0
    l_z = (1.0 - r1[..., 2] * r2[..., 2]) / 2.0
    lam = (np.add.reduce(r1 * r2, axis=-1) - _norms(r1) * _norms(r2)) / 2.0
    l_opt = np.clip((1.0 - lam) / 2.0, 0.0, 1.0)
    return l_z, l_opt, d, 0.5 * (1.0 + d)


# grid_search_mismatch's Fibonacci sphere size and number of zoom levels.
_GRID_POINTS = 10_000
_ZOOM_LEVELS = 4


@cache
def _search_grid():
    """Fibonacci sphere of _GRID_POINTS axes and each zoom level's (du, dv)
    mesh offsets, built on first use and shared (read-only) by later searches."""
    idx = np.arange(_GRID_POINTS, dtype=float)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (idx + 0.5) / _GRID_POINTS
    rad = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    ang = golden * idx
    axes = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), z])
    spread = math.sqrt(4.0 * math.pi / _GRID_POINTS)
    rng_grid = np.linspace(-1.0, 1.0, 21)
    zoom = []
    for _ in range(_ZOOM_LEVELS):
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


def grid_search_mismatch(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Brute-force oracle for the optimized mismatch probability.

    Scans a Fibonacci sphere of _GRID_POINTS axes, then zooms onto the
    best region _ZOOM_LEVELS times, each time scanning a 21x21 mesh 8
    times finer than the last. Deliberately independent of the
    eigensystem shortcut it is used to check.
    """
    r1, r2 = rho1.bloch(), rho2.bloch()
    axes, zoom = _search_grid()

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


def qm_baseline(phi: float, p: float = 0.0) -> DistinguishabilityReport:
    """Standard-QM reference for the pair {|H>, psi1(phi)} after depolarization p.

    This is the un-evolved comparison used against every loop experiment;
    it does not depend on how the states were prepared. Depolarization
    shrinks the Bloch vectors to (1 - p) z and (1 - p) r(phi); the measures
    are bloch_measures' closed forms on them, as in the reproduce tables.
    The shrink is isotropic, so the optimal axis is the noise-free one,
    along z - r(phi), i.e. (-cos(phi/2), 0, sin(phi/2)), in canonical sign
    (the x-axis at phi = 0); at p = 1 every axis gives 1/2 and it is z.
    The eigen-based measures on the depolarized matrices are the oracles.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    psi1 = PureQubit(phi, 0.0)
    shrink = 1.0 - p
    l_z, l_opt, d, p_succ = bloch_measures(np.array([0.0, 0.0, shrink]), shrink * psi1.bloch())
    half = psi1.polar / 2.0
    axis = (SIGMA_Z_AXIS if p == 1.0
            else _canonical_direction(np.array([-math.cos(half), 0.0, math.sin(half)])))
    return DistinguishabilityReport(
        L_sigma_z=float(l_z),
        L_optimal=float(l_opt),
        optimal_axis=axis,
        trace_dist=float(d),
        p_succ_optimal=float(p_succ),
    )

"""Distinguishability functionals and standard-QM baselines.

Two states can be compared by a single projective measurement on each
system: the probability that the two outcomes disagree is an operational
distinguishability measure (0 for identical aligned states, 1 for
orthogonal states measured along their axis). Optimizing the measurement
axis relates it to the trace distance; the Helstrom bound covers the
identify-one-state-at-a-time game instead.

Every production measure is a closed form on Bloch vectors.
bloch_measures computes all four for stacked pairs; the reproduce tables
and qm_baseline use it. On DensityMatrix pairs, mismatch_probability is
(1 - (n.r1)(n.r2))/2, and optimal_mismatch_probability is bloch_measures
as a batch of one, with the optimal axis along r1/|r1| - r2/|r2|.

Two oracles stay independent of these closed forms: _eigen_optima, the
stacked eigensolve of the quadratic form (the selftest's C9 and C10), and
the grid search over measurement axes (C10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DensityMatrix, PureQubit, ValidationError, trace_distance

__all__ = [
    "MeasurementDirection",
    "SIGMA_Z_AXIS",
    "DistinguishabilityReport",
    "mismatch_probability",
    "optimal_mismatch_probability",
    "helstrom_success_probability",
    "qm_baseline",
    "grid_search_mismatch",
    "grid_search_mismatches",
    "bloch_measures",
]


@dataclass(frozen=True, eq=False)
class MeasurementDirection:
    """Projective measurement along a unit Bloch axis n, with outcomes
    +-1 for the projectors (I +- n.sigma)/2.

    `axis` is stored as a read-only (3,) float array.
    """

    axis: np.ndarray

    def __post_init__(self) -> None:
        axis = np.array(self.axis, dtype=float)
        if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= 1e-12:
            raise ValidationError(f"measurement axis must be a unit 3-vector, got {axis.tolist()}")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)


SIGMA_Z_AXIS = MeasurementDirection(np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
class DistinguishabilityReport:
    """All figures of merit for one state pair, side by side."""

    L_sigma_z: float
    L_optimal: float
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

    <+|rho1|+><-|rho2|-> + <-|rho1|-><+|rho2|+>, computed in Bloch form as
    (1 - (n.r1)(n.r2))/2; along z it is bloch_measures' L_sigma_z.
    """
    n = direction.axis
    return float((1.0 - (n @ rho1.bloch()) * (n @ rho2.bloch())) / 2.0)


def _eigen_optima(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: mismatch probability maximized over measurement axes, of
    Bloch pairs (N, 3), by eigensolve.

    (n.r1)(n.r2) is the quadratic form of the symmetric matrix
    (r1 r2^T + r2 r1^T)/2, so the maximum is (1 - lambda_min)/2 with the
    minimizing eigenvector as axis. Returns the values clipped to [0, 1]
    (N,) and the axes (N, 3), not normalised, from one stacked eigensolve.
    The selftest's C9 and C10 check bloch_measures' closed form with it.
    """
    outer = r1[:, :, None] * r2[:, None, :]
    lam, vecs = np.linalg.eigh((outer + outer.swapaxes(1, 2)) / 2.0)
    return np.clip((1.0 - lam[:, 0]) / 2.0, 0.0, 1.0), vecs[:, :, 0]


def optimal_mismatch_probability(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[float, MeasurementDirection]:
    """Mismatch probability maximized over measurement axes, with an optimal
    axis in canonical sign.

    The value is bloch_measures' L_optimal as a batch of one, the reproduce
    tables' formula. For unit vectors u1 = r1/|r1| and u2 = r2/|r2| the
    form (n.u1)(n.u2) is least along u1 - u2, so that is the axis returned.
    When either Bloch vector vanishes (norm below 1e-12) the form vanishes
    too, every axis gives 1/2 and the z-axis is returned for determinism.
    When both point the same way u (|u1 - u2| <= 1e-9), every axis
    perpendicular to u is optimal; the one returned is z x u, or x when
    |z x u| <= 1e-9.
    """
    r1, r2 = rho1.bloch(), rho2.bloch()
    n1, n2 = math.hypot(*r1), math.hypot(*r2)
    if min(n1, n2) < 1e-12:
        return 0.5, SIGMA_Z_AXIS
    axis = r1 / n1 - r2 / n2
    if math.hypot(*axis) <= 1e-9:
        u = r1 / n1 + r2 / n2
        axis = np.array([-u[1], u[0], 0.0])
        if math.hypot(*axis) <= 1e-9 * math.hypot(*u):
            axis = np.array([1.0, 0.0, 0.0])
    return float(bloch_measures(r1, r2)[1]), _canonical_direction(axis / np.linalg.norm(axis))


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


def bloch_measures(r1: np.ndarray, r2: np.ndarray):
    """(L_sigma_z, L_optimal, trace distance, Helstrom) of Bloch pairs (..., 3), batched.

    Closed forms (1 - z1 z2)/2, (1 - (r1.r2 - |r1||r2|)/2)/2, |r1 - r2|/2
    and (1 + D)/2; _eigen_optima and the grid search are the optimized
    measure's oracles.
    """
    d = qmath._norms(r1 - r2) / 2.0
    l_z = (1.0 - r1[..., 2] * r2[..., 2]) / 2.0
    lam = (np.add.reduce(r1 * r2, axis=-1) - qmath._norms(r1) * qmath._norms(r2)) / 2.0
    l_opt = np.minimum(np.maximum((1.0 - lam) / 2.0, 0.0), 1.0)
    return l_z, l_opt, d, 0.5 * (1.0 + d)


# grid_search_mismatches' Fibonacci sphere size, number of zoom levels, and
# the pairs whose zoom meshes are scanned as one stack: each (25, 441, 3)
# array is 0.26 MB, small enough to leave the selftest's peak RSS unchanged.
_GRID_POINTS = 10_000
_ZOOM_LEVELS = 4
_ZOOM_CHUNK = 25


def _search_grid():
    """Fibonacci sphere of _GRID_POINTS axes and each zoom level's (du, dv) mesh offsets."""
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
        zoom.append((du.reshape(-1), dv.reshape(-1)))
        spread /= 8.0
    return axes, zoom


def grid_search_mismatches(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Brute-force oracle for the optimized mismatch probability of Bloch pairs (N, 3).

    For each pair, scans a Fibonacci sphere of _GRID_POINTS axes for the
    largest (1 - (n.r1)(n.r2))/2, then zooms onto the best region
    _ZOOM_LEVELS times, each time scanning a 21x21 mesh 8 times finer than
    the last in a local frame around the current best axis. Deliberately
    independent of the eigensystem shortcut it is used to check.

    The sphere scan runs pair by pair, so the working set stays one
    _GRID_POINTS column; the zoom meshes of up to _ZOOM_CHUNK pairs are
    scanned as one stack. Every value is computed as a search of one pair
    computes it, with the same dot products, so a pair's result does not
    depend on the batch it is in.
    """
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    if r1.ndim != 2 or r1.shape[1:] != (3,) or r1.shape != r2.shape:
        raise ValidationError(f"Bloch stacks must both be (N, 3), got {r1.shape} and {r2.shape}")
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise ValidationError("Bloch stacks must be finite")
    axes, zoom = _search_grid()
    best = axes[[int(np.argmax((1.0 - (axes @ a) * (axes @ b)) / 2.0)) for a, b in zip(r1, r2)]]
    out = np.empty(len(r1))
    for lo in range(0, len(r1), _ZOOM_CHUNK):
        ax = best[lo:lo + _ZOOM_CHUNK]
        a, b = r1[lo:lo + _ZOOM_CHUNK, :, None], r2[lo:lo + _ZOOM_CHUNK, :, None]
        rows = np.arange(len(ax))
        cand = np.empty((len(ax), zoom[0][0].size, 3))
        for du, dv in zoom:
            ref = np.where(np.abs(ax[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
            u = np.cross(ax, ref)
            u /= np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
            v = np.cross(ax, u)
            # Built component-major (3, P, mesh), so each elementwise loop runs
            # over a mesh, then normalized into cand (P, mesh, 3), whose rows
            # the dot products need contiguous.
            c = ax.T[:, :, None] + du * u.T[:, :, None] + dv * v.T[:, :, None]
            np.divide(c, np.sqrt(np.add.reduce(c * c, axis=0)), out=np.moveaxis(cand, -1, 0))
            value = (1.0 - (cand @ a)[..., 0] * (cand @ b)[..., 0]) / 2.0
            ax = cand[rows, np.argmax(value, axis=1)]
        out[lo:lo + _ZOOM_CHUNK] = (1.0 - (ax[:, None, :] @ a) * (ax[:, None, :] @ b))[:, 0, 0] / 2.0
    return out


def grid_search_mismatch(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """grid_search_mismatches of one state pair."""
    return float(grid_search_mismatches(rho1.bloch()[None], rho2.bloch()[None])[0])


def qm_baseline(phi: float, p: float = 0.0) -> DistinguishabilityReport:
    """Standard-QM reference for the pair {|H>, psi1(phi)} after depolarization p.

    This is the un-evolved comparison used against every loop experiment;
    it does not depend on how the states were prepared. Depolarization
    shrinks the Bloch vectors to (1 - p) z and (1 - p) r(phi); the measures
    are bloch_measures' closed forms on them, as in the reproduce tables.
    The eigen-based measures on the depolarized matrices are the oracles.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    psi1 = PureQubit(phi, 0.0)
    shrink = 1.0 - p
    l_z, l_opt, d, p_succ = bloch_measures(np.array([0.0, 0.0, shrink]), shrink * psi1.bloch())
    return DistinguishabilityReport(
        L_sigma_z=float(l_z),
        L_optimal=float(l_opt),
        trace_dist=float(d),
        p_succ_optimal=float(p_succ),
    )

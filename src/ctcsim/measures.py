"""Distinguishability measures of state pairs, and the standard-QM baseline.

The measures are closed forms on Bloch vectors (bloch_measures and its pair
forms). _eigen_optima and the grid search over measurement axes are independent
oracles of the optimized measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DensityMatrix, PureQubit, ValidationError, _require_type, trace_distance

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
    """Projective measurement with projectors (I +- n.sigma)/2 along the unit axis n,
    stored as a read-only (3,) float array."""

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
    """Probability that one measurement per system gives different outcomes,
    (1 - (n.r1)(n.r2))/2."""
    _require_type(DensityMatrix, "state", rho1, rho2)
    _require_type(MeasurementDirection, "measurement direction", direction)
    n = direction.axis
    return float((1.0 - (n @ rho1.bloch()) * (n @ rho2.bloch())) / 2.0)


def _eigen_optima(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the mismatch probability of Bloch pairs (N, 3) maximized over axes, and
    the axes (not normalised), by eigensolve: (n.r1)(n.r2) is the quadratic form of
    (r1 r2^T + r2 r1^T)/2, so the maximum is (1 - lambda_min)/2, clipped to [0, 1]."""
    outer = r1[:, :, None] * r2[:, None, :]
    lam, vecs = np.linalg.eigh((outer + outer.swapaxes(1, 2)) / 2.0)
    return np.clip((1.0 - lam[:, 0]) / 2.0, 0.0, 1.0), vecs[:, :, 0]


def optimal_mismatch_probability(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[float, MeasurementDirection]:
    """Mismatch probability maximized over axes, with bloch_measures' bits, and an
    optimal axis in canonical sign: u1 - u2 for the unit vectors u_i = r_i/|r_i|.
    If a Bloch vector is below 1e-12 every axis gives 1/2 and z is returned; if
    |u1 - u2| <= 1e-9 the axis is z x u, or x when that is below 1e-9."""
    _require_type(DensityMatrix, "state", rho1, rho2)
    r1, r2 = rho1._xyz(), rho2._xyz()
    n1, n2 = math.hypot(*r1), math.hypot(*r2)
    if min(n1, n2) < 1e-12:
        return 0.5, SIGMA_Z_AXIS
    u1, u2 = [c / n1 for c in r1], [c / n2 for c in r2]
    axis = [a - b for a, b in zip(u1, u2)]
    if math.hypot(*axis) <= 1e-9:
        u = [a + b for a, b in zip(u1, u2)]
        axis = [-u[1], u[0], 0.0]
        if math.hypot(*axis) <= 1e-9 * math.hypot(*u):
            axis = [1.0, 0.0, 0.0]
    axis = np.array(axis)
    return _pair_measures(r1, r2)[1], _canonical_direction(axis / np.linalg.norm(axis))


def _canonical_direction(axis: np.ndarray) -> MeasurementDirection:
    """The direction of +-axis, a unit (3,) float array, whose first clearly nonzero
    component is positive; built without the constructor's copy and norm check."""
    for c in axis.tolist():
        if abs(c) > 1e-9:
            if c < 0:
                axis = -axis
            break
    axis.setflags(write=False)
    direction = object.__new__(MeasurementDirection)
    object.__setattr__(direction, "axis", axis)
    return direction


def helstrom_success_probability(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Best equal-prior identification probability: (1 + trace distance)/2."""
    return 0.5 * (1.0 + trace_distance(rho1, rho2))


def bloch_measures(r1: np.ndarray, r2: np.ndarray):
    """(L_sigma_z, L_optimal, trace distance D, Helstrom) of Bloch pairs (..., 3):
    (1 - z1 z2)/2, (1 - (r1.r2 - |r1||r2|)/2)/2, |r1 - r2|/2 and (1 + D)/2."""
    d = qmath._norms(r1 - r2) / 2.0
    l_z = (1.0 - r1[..., 2] * r2[..., 2]) / 2.0
    lam = (np.add.reduce(r1 * r2, axis=-1) - qmath._norms(r1) * qmath._norms(r2)) / 2.0
    l_opt = np.minimum(np.maximum((1.0 - lam) / 2.0, 0.0), 1.0)
    return l_z, l_opt, d, 0.5 * (1.0 + d)


def _pair_measures(r1: tuple, r2: tuple) -> tuple[float, float, float, float]:
    """bloch_measures of one pair of float triples, with its bits while np.add.reduce sums
    a 3-vector left to right, as Python's a + b + c does."""
    (x1, y1, z1), (x2, y2, z2) = r1, r2
    d = qmath._bloch_distance(r1, r2)
    norms = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1) * math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    lam = (x1 * x2 + y1 * y2 + z1 * z2 - norms) / 2.0
    return (1.0 - z1 * z2) / 2.0, min(max((1.0 - lam) / 2.0, 0.0), 1.0), d, 0.5 * (1.0 + d)


# grid_search_mismatches' Fibonacci sphere size, number of zoom levels, the
# pairs whose sphere values are one (8, 10000) product (0.64 MB), and those
# whose zoom meshes are scored as one (25, 441) stack of quadratic forms.
_GRID_POINTS = 10_000
_ZOOM_LEVELS = 4
_SCAN_CHUNK = 8
_ZOOM_CHUNK = 25
# A near-parallel pair peaks on a narrow crest that one mesh follows only part
# of the way: at the _RESCAN_LEVELS coarsest levels, a pair whose best mesh
# point beats the centre and lies in the mesh's outer ring (more than 7 of its
# 10 steps out along either mesh axis) is scanned again around that point, at
# most _RESCANS times.
_RESCAN_LEVELS = 2
_RESCANS = 16
_OUTER = np.logical_or.outer(*2 * [np.abs(np.arange(-10, 11)) > 7]).reshape(-1)
_CENTRE = _OUTER.size // 2


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


def _sphere_argmax(axes: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Per pair of Bloch stacks (N, 3), the index of the axis in axes (M, 3) that
    minimizes (n.r1)(n.r2), as a form in six features n_i n_j: one (_SCAN_CHUNK, 6) @
    (6, M) product per chunk. Axes tied to within its rounding could swap."""
    i, j = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    features = axes.T[i] * axes.T[j]
    ab = r1[:, :, None] * r2[:, None, :]
    # a_i b_j + a_j b_i, halved (exactly) on the diagonal.
    weights = (ab + ab.swapaxes(1, 2))[:, i, j] * [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    best = np.empty(len(r1), dtype=np.intp)
    for lo in range(0, len(r1), _SCAN_CHUNK):
        best[lo:lo + _SCAN_CHUNK] = np.argmin(weights[lo:lo + _SCAN_CHUNK] @ features, axis=1)
    return best


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (P, 3) stacks, with its products and differences (so its
    bits) at half its call overhead."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _zoom(ax: np.ndarray, pairs: np.ndarray, d: np.ndarray, w: np.ndarray):
    """One mesh scan of a stack of pairs (a, b) as columns of pairs (P, 3, 2): each
    pair's best unit axis of the mesh around its axis in ax (P, 3), and whether it
    beats the centre from the mesh's outer ring. In the orthonormal frame (ax, u, v)
    mesh point k is ax + du u + dv v, with d[:, k] = (1, du, dv) and squared norm
    w[k] = 1 + du^2 + dv^2, so its unit axis n has (n.a)(n.b) = (f_a.d)(f_b.d)/w = q
    for the pair's frame coordinates f. The score 1 - q ties where the one-pair
    search's values (1 - (n.a)(n.b))/2 tie; only the winner is built, as
    (du u + ax) + dv v normalized."""
    ref = np.where(np.abs(ax[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = _cross(ax, ref)
    u /= np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    v = _cross(ax, u)
    f = (np.stack([ax, u, v], axis=1) @ pairs).swapaxes(1, 2) @ d
    score = 1.0 - f[:, 0] * f[:, 1] / w
    best = np.argmax(score, axis=1)
    n = (d[1, best, None] * u + ax) + d[2, best, None] * v
    n /= np.sqrt((n * n).sum(axis=1))[:, None]
    return n, _OUTER[best] & (score[np.arange(len(ax)), best] > score[:, _CENTRE])


def grid_search_mismatches(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Brute-force oracle: the optimized mismatch probability of Bloch pairs (N, 3).

    Scans a Fibonacci sphere of _GRID_POINTS axes, then _ZOOM_LEVELS 21x21 meshes,
    each 8 times finer, around the best axis; the two coarsest levels rescan
    around a best axis in the mesh's outer ring (see _RESCANS). A pair's result
    does not depend on the batch it is in. ValidationError unless both stacks
    are finite and (N, 3).
    """
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    if r1.ndim != 2 or r1.shape[1:] != (3,) or r1.shape != r2.shape:
        raise ValidationError(f"Bloch stacks must both be (N, 3), got {r1.shape} and {r2.shape}")
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise ValidationError("Bloch stacks must be finite")
    axes, zoom = _search_grid()
    ax = axes[_sphere_argmax(axes, r1, r2)]
    a, b = r1[:, :, None], r2[:, :, None]
    pairs = np.concatenate([a, b], axis=2)
    for level, (du, dv) in enumerate(zoom):
        d, w = np.stack([np.ones_like(du), du, dv]), 1.0 + du * du + dv * dv
        rows = np.arange(len(ax))
        for _ in range(1 + _RESCANS * (level < _RESCAN_LEVELS)):
            again = np.empty(len(rows), dtype=bool)
            for lo in range(0, len(rows), _ZOOM_CHUNK):
                part = rows[lo:lo + _ZOOM_CHUNK]
                ax[part], again[lo:lo + _ZOOM_CHUNK] = _zoom(ax[part], pairs[part], d, w)
            rows = rows[again]
            if not rows.size:
                break
    return (1.0 - (ax[:, None, :] @ a) * (ax[:, None, :] @ b))[:, 0, 0] / 2.0


def grid_search_mismatch(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """grid_search_mismatches of one state pair."""
    _require_type(DensityMatrix, "state", rho1, rho2)
    return float(grid_search_mismatches(rho1.bloch()[None], rho2.bloch()[None])[0])


def qm_baseline(phi: float, p: float = 0.0) -> DistinguishabilityReport:
    """Standard-QM reference: the measures of the un-evolved pair {|H>, psi1(phi)}
    after depolarization p, whatever the preparation, with bloch_measures' bits."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    polar = PureQubit(phi, 0.0).polar
    shrink, s = 1.0 - p, math.sin(polar)
    # shrink * PureQubit(phi, 0.0).bloch(): sin * cos(0) is sin, sin * sin(0) a signed zero.
    r1 = (shrink * s, shrink * (s * 0.0), shrink * math.cos(polar))
    return DistinguishabilityReport(*_pair_measures((0.0, 0.0, shrink), r1))

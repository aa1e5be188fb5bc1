"""The reproduction catalog as tabular records.

Each sweep emits one SweepRecord per grid point, in grid order, with every
figure of merit for the loop and the standard-QM baseline and the solver
diagnostics; its experiment id names the published panel. SWEEP_TABLES and
reproduce name the bundled tables.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circuits import CircuitKind
from .deutsch import RESIDUAL_TOL, LoopBatch, _check_count, _swap_cnot_passes, run_batch
from .measures import bloch_measures
from .qmath import ValidationError

__all__ = [
    "SweepRecord",
    "ThresholdResult",
    "VARIANTS",
    "MODES",
    "SWEEP_TABLES",
    "ThresholdNotFound",
    "WORKING_POINT_PHI",
    "WORKING_POINT_THETA",
    "nonlinearity_sweep",
    "discrimination_sweep",
    "discrimination_sweeps",
    "decoherence_surface",
    "find_threshold",
    "find_thresholds",
    "reproduce",
    "validate_records",
]

# Decoherence study working point: controlled Hadamard on the state pair
# {|H>, psi1(3pi/2)}, where the gate is optimal at zero noise.
WORKING_POINT_PHI = 3 * math.pi / 2
WORKING_POINT_THETA = math.pi / 4

# Default grid size of each discrimination sweep variant.
_DEFAULT_GRID = {"optimal-gate": 32, "fixed-state": 64, "fixed-gate": 32}
VARIANTS = tuple(_DEFAULT_GRID)
MODES = ("local", "nonlocal")
# The discrimination-sweep targets as (experiment_id, variant, mode) triples,
# in emission order; every record of a triple carries its experiment_id.
SWEEP_TABLES = {
    "fig5a": [("fig5a", "optimal-gate", "local")],
    "fig5b": [(f"fig5b-{v}", v, "nonlocal") for v in VARIANTS],
    "fig5c": [(f"fig5c-{v}-{m}", v, m) for v in VARIANTS[1:] for m in MODES],
    **{t: [(f"{t}-{v}-{m}", v, m) for v in VARIANTS for m in MODES] for t in ("s1", "s2")},
}

# find_thresholds' sign-change scan resolution, final bracket width and
# bisection-tree levels scored per batch (2**5 - 1 = 31 midpoints).
_SCAN_POINTS = 41
_BISECT_TOL = 1e-12
_SPEC_LEVELS = 5


class SweepRecord(NamedTuple):
    """One row of a reproduction experiment, as an immutable tuple in column order."""

    experiment_id: str
    phi: float
    phase: float
    theta_xz: float
    p: float
    epsilon: float
    prep_mode: str
    n_iterations: int
    L_ctc_sigma_z: float
    L_ctc_optimal: float
    D_ctc: float
    L_qm: float
    D_qm: float
    p_succ_ctc: float
    p_succ_qm: float
    fixed_point_residual: float
    consistency_fidelity: float
    fixed_set_dimension: int


class ThresholdResult(NamedTuple):
    """Noise level where the loop advantage over standard QM disappears."""

    parameter: str
    crossing: float
    bracket: tuple[float, float]
    achieved_tolerance: float


class ThresholdNotFound(RuntimeError):
    """No sign change found: the advantage region vanished (regression guard)."""


def _pure_bloch(phi, phase) -> np.ndarray:
    """Bloch vectors (N, 3) of the pure states psi(phi, phase)."""
    phi, phase = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(phase, dtype=float))
    return np.stack([np.sin(phi) * np.cos(phase), np.sin(phi) * np.sin(phase), np.cos(phi)],
                    axis=-1)


def _diagnostics(batches: list[LoopBatch], rows) -> tuple[np.ndarray, ...]:
    """Worst residual, fidelity and dimension of each record over its scenarios:
    each index in rows picks one scenario per record from every batch."""
    def worst(name, reduce):
        return reduce([getattr(b, name)[r] for b in batches for r in rows], axis=0)

    return (worst("residual", np.max), worst("consistency_fidelity", np.min),
            worst("fixed_set_dimension", np.max))


def _records(out0: np.ndarray, out1: np.ndarray, qm_pair: tuple[np.ndarray, np.ndarray],
             qm_fixed_axis: bool, diagnostics, **columns) -> list[SweepRecord]:
    """Records of N output pairs (N, 3) against their standard-QM input pairs, scored
    with the optimal measurement or, if qm_fixed_axis, sigma-z; scalar columns broadcast."""
    l_z, l_opt, d, p_succ = bloch_measures(out0, out1)
    qm_z, qm_opt, qm_d, qm_p = bloch_measures(*qm_pair)
    resid, fid, dim = diagnostics
    columns.update(
        L_ctc_sigma_z=l_z, L_ctc_optimal=l_opt, D_ctc=d,
        L_qm=qm_z if qm_fixed_axis else qm_opt, D_qm=qm_d,
        p_succ_ctc=p_succ, p_succ_qm=qm_p,
        fixed_point_residual=resid, consistency_fidelity=fid, fixed_set_dimension=dim,
    )
    n = len(out0)
    values = [np.broadcast_to(np.asarray(columns[name]), (n,)).tolist()
              for name in SweepRecord._fields]
    return list(map(SweepRecord._make, zip(*values)))


def nonlinearity_sweep(phi_grid: list[float] | None = None,
                       phase_grid: list[float] | None = None,
                       iterations: list[int] | None = None) -> list[SweepRecord]:
    """Nonlinear-evolution sweep (CNOT-then-SWAP loop) against the |H> reference, with
    rows for each pass count in `iterations` (as deutsch.iterate_circuit passes).

    The defaults are the 14 published states: polar angles {0, pi/4, pi/2, 3pi/4,
    pi} by 4 phases, one phase at the poles. Grids must be finite and non-empty.
    """
    if phi_grid is None:
        phi_grid = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    if phase_grid is None:
        phase_grid = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    if iterations is None:
        iterations = [2, 3, 4, 5]
    if len(phi_grid) == 0 or len(phase_grid) == 0:
        raise ValidationError("sweep grids must be non-empty")
    if not all(math.isfinite(x) for x in (*phi_grid, *phase_grid)):
        raise ValidationError("sweep grids must be finite")
    for k in iterations:
        _check_count(k, "iteration count", 1)
    passes = [1, *iterations]

    states = [(phi, phase) for phi in phi_grid
              for phase in phase_grid[: 1 if abs(math.sin(phi)) < 1e-15 else len(phase_grid)]]
    phi, phase = (np.array(c) for c in zip(*states))
    n = len(states)
    swept, ref = slice(n), slice(n, None)  # rows of the swept states and the |H> reference
    batches = _swap_cnot_passes(
        np.vstack([_pure_bloch(phi, phase), np.tile([0.0, 0.0, 1.0], (n, 1))]), max(passes))
    # The nonlinearity experiment compares against the fixed sigma-z
    # measurement on the un-evolved inputs (the reference state is known,
    # the swept one is not).
    qm_pair = (np.array([0.0, 0.0, 1.0]), _pure_bloch(phi, 0.0))
    return [record for k in passes for record in _records(
        batches[k - 1].outputs[swept], batches[k - 1].outputs[ref], qm_pair, True,
        _diagnostics(batches[:k], (swept, ref)), experiment_id="fig3", phi=phi, phase=phase,
        theta_xz=0.0, p=0.0, epsilon=0.0, prep_mode="local_pure", n_iterations=k,
    )]


def _solve_pairs(local, phi, theta, p, epsilon):
    """The output pairs (N, 3) of {|H>, psi1(phi)} at each point, the depolarized input
    pair and each point's worst diagnostics, from one batch: a local point solves one
    loop per state, a non-local point one for the mixture. Arguments broadcast."""
    local, phi, theta, p, epsilon = np.broadcast_arrays(local, phi, theta, p, epsilon)
    n = len(phi)
    psi0 = np.broadcast_to([0.0, 0.0, 1.0], (n, 3))
    psi1 = _pure_bloch(phi, 0.0)
    # Row i is point i's |H> loop (local) or mixture loop (non-local); the
    # psi1 loops of the local points follow. second[i] is point i's psi1 row.
    extra = np.flatnonzero(local)
    second = np.arange(n)
    second[extra] = n + np.arange(len(extra))
    rows = np.concatenate([np.arange(n), extra])
    batch = run_batch(CircuitKind.SWAP_THEN_CU, theta[rows], epsilon[rows], p[rows],
                      np.vstack([np.where(local[:, None], psi0, (psi0 + psi1) / 2), psi1[extra]]))
    shrink = (1.0 - p)[:, None]
    return (batch.outputs[:n], batch.outputs[second], (psi0 * shrink, psi1 * shrink),
            _diagnostics([batch], (slice(0, n), second)))


def _discrimination_records(experiment_id, local, phi, theta, p, epsilon) -> list[SweepRecord]:
    """Discrimination records at each point (arguments as for _solve_pairs)."""
    out0, out1, qm_pair, diagnostics = _solve_pairs(local, phi, theta, p, epsilon)
    # Discrimination experiments compare against standard QM with the
    # optimal measurement and full state knowledge.
    return _records(
        out0, out1, qm_pair, False, diagnostics,
        experiment_id=experiment_id, phi=phi, phase=0.0, theta_xz=theta, p=p, epsilon=epsilon,
        prep_mode=np.where(local, "local_pure", "nonlocal_ensemble"), n_iterations=1,
    )


def _sweep_grid(variant: str, grid_size: int | None) -> tuple[np.ndarray, np.ndarray]:
    """phi and theta at each point of a discrimination sweep variant."""
    n = _DEFAULT_GRID[variant] if grid_size is None else grid_size
    k = np.arange(n)
    if variant == "fixed-state":
        return np.full(n, WORKING_POINT_PHI), -math.pi / 2 + math.pi * k / n
    phi = 2 * math.pi * k / n
    return phi, np.full(n, WORKING_POINT_THETA) if variant == "fixed-gate" else (phi - math.pi) / 2


def discrimination_sweeps(tables, grid_size: int | None = None) -> list[SweepRecord]:
    """Discrimination sweeps of the pair {|H>, psi1(phi)}, triple by triple of tables'
    (experiment_id, variant, mode), mode in MODES. grid_size, an integer >= 2,
    overrides every variant's default grid:
    "optimal-gate": phi over [0, 2pi) with theta = (phi - pi)/2;
    "fixed-state":  phi = 3pi/2, theta over [-pi/2, pi/2);
    "fixed-gate":   theta = pi/4, phi over [0, 2pi).
    The degenerate phi = 0 point is kept, its degeneracy in fixed_set_dimension.
    """
    if grid_size is not None:
        _check_count(grid_size, "grid size", 2)
    for _, variant, mode in tables:
        if variant not in VARIANTS:
            raise ValidationError(f"unknown sweep variant {variant!r}")
        if mode not in MODES:
            raise ValidationError(f"unknown preparation mode {mode!r}")
    if not tables:
        return []
    grids = [_sweep_grid(variant, grid_size) for _, variant, _ in tables]
    sizes = [len(phi) for phi, _ in grids]
    phi, theta = (np.concatenate(axis) for axis in zip(*grids))
    return _discrimination_records(
        np.repeat([eid for eid, _, _ in tables], sizes),
        np.repeat([mode == "local" for _, _, mode in tables], sizes), phi, theta, 0.0, 0.0)


def discrimination_sweep(mode: str, variant: str, grid_size: int | None = None) -> list[SweepRecord]:
    """One discrimination_sweeps table, under the experiment id "<variant>-<mode>"."""
    return discrimination_sweeps([(f"{variant}-{mode}", variant, mode)], grid_size)


def decoherence_surface(p_grid: list[float] | None = None,
                        eps_grid: list[float] | None = None) -> list[SweepRecord]:
    """Discrimination at the working point, local preparation, over the noise grids in
    [0, 1] (eps fastest). The loop side keeps sigma-z and the QM side its noise-free
    optimal axis: the experimenter does not know the noise."""
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 41).tolist()
    if eps_grid is None:
        eps_grid = np.linspace(0.0, 1.0, 41).tolist()
    for g in (p_grid, eps_grid):
        if len(g) == 0:
            raise ValidationError("noise grids must be non-empty")
        if any(not 0.0 <= x <= 1.0 for x in g):
            raise ValidationError("noise grids must stay within [0, 1]")
    p = np.repeat(np.asarray(p_grid, dtype=float), len(eps_grid))
    eps = np.tile(np.asarray(eps_grid, dtype=float), len(p_grid))
    return _discrimination_records("fig6", True, WORKING_POINT_PHI, WORKING_POINT_THETA, p, eps)


def reproduce(target: str, grid: int | None = None) -> list[SweepRecord]:
    """Records of a bundled table, fig3, fig6 or a SWEEP_TABLES key; grid, an
    integer >= 2, sets the sweeps' grids and fig6's axes. fig3's grid is fixed."""
    if target in SWEEP_TABLES:
        return discrimination_sweeps(SWEEP_TABLES[target], grid)
    if target == "fig3":
        if grid is not None:
            raise ValidationError("reproduce fig3 has a fixed grid; drop --grid")
        return nonlinearity_sweep()
    if target == "fig6":
        if grid is not None:
            _check_count(grid, "grid size", 2)
        axis = None if grid is None else np.linspace(0.0, 1.0, grid).tolist()
        return decoherence_surface(axis, axis)
    raise ValidationError(f"unknown reproduce target {target!r}")


def _advantage_gaps(parameters, xs) -> np.ndarray:
    """L_ctc(sigma_z) minus the QM baseline at each noise level xs[i] along the
    axis parameters[i] ("p" at eps = 0, "epsilon" at p = 0): one batch, no records."""
    xs = np.asarray(xs, dtype=float)
    on_p = np.asarray(parameters) == "p"
    out0, out1, qm_pair, _ = _solve_pairs(True, WORKING_POINT_PHI, WORKING_POINT_THETA,
                                          np.where(on_p, xs, 0.0), np.where(on_p, 0.0, xs))
    return bloch_measures(out0, out1)[0] - bloch_measures(*qm_pair)[1]


def _bisection_plan(lo, hi, flo, fhi) -> list[float]:
    """The midpoints find_thresholds scores for the bracket [lo, hi]: its tree of
    _SPEC_LEVELS levels in heap order (node i's halves at 2i + 1, 2i + 2), then the
    path below the tree that bisection takes if the root sits at the regula-falsi
    estimate from the gaps flo and fhi at lo and hi (NaN-guarded, kept in [lo, hi])."""
    nodes, mids = [(lo, hi)], []
    while len(mids) < 2 ** _SPEC_LEVELS - 1:
        a, b = nodes[len(mids)]
        mids.append((a + b) / 2)
        nodes += [(a, mids[-1]), (mids[-1], b)]
    root = lo + (hi - lo) * flo / (flo - fhi)
    root = min(max(root, lo), hi) if root == root else lo
    path = []
    while hi - lo > _BISECT_TOL:
        path.append((lo + hi) / 2)
        lo, hi = (path[-1], hi) if path[-1] < root else (lo, path[-1])
    return mids + path[_SPEC_LEVELS:]  # the path's first _SPEC_LEVELS points are tree nodes


def find_thresholds(parameters) -> list[ThresholdResult]:
    """Where the loop advantage dies along each axis, "p" (eps = 0) or "epsilon" (p = 0).

    A scan of _SCAN_POINTS levels finds the first sign change (the gap also vanishes
    at full noise, so [0, 1] is no bracket); bisection then narrows it to _BISECT_TOL.
    Each batch scores, per bracket, the full tree of its next _SPEC_LEVELS levels
    and the path below it that a root at the regula-falsi estimate predicts
    (_bisection_plan). The walk consumes a scored point only while it is the
    bisection's next midpoint (lo + hi)/2, and decides with that point's own gap,
    so every bracket, crossing and tolerance is the step-by-step one, and each
    batch advances every bracket by at least _SPEC_LEVELS levels.
    parameters is any iterable of axis names, each string kept as a plain str.
    ThresholdNotFound if an axis has no sign change; ValidationError on a bare
    string or an unknown name.
    """
    if isinstance(parameters, str):
        raise ValidationError(f"threshold parameters must be a sequence, not the str {parameters!r}")
    parameters = tuple(str(x) if isinstance(x, str) else x for x in parameters)
    for parameter in parameters:
        if parameter not in ("p", "epsilon"):
            raise ValidationError(f"unknown threshold parameter {parameter!r}")
    if not parameters:
        return []
    xs = np.linspace(0.0, 1.0, _SCAN_POINTS)
    scans = _advantage_gaps(np.repeat(parameters, _SCAN_POINTS), np.tile(xs, len(parameters)))
    brackets, state = [], []  # state: [lo, hi, gap at lo, gap at hi] of each bracket
    for parameter, v in zip(parameters, scans.reshape(len(parameters), -1)):
        starts = np.flatnonzero((v[:-1] > 0.0) & (v[1:] <= 0.0))
        if not starts.size:
            raise ThresholdNotFound(f"no advantage crossing found along {parameter}")
        i = starts[0]
        brackets.append((float(xs[i]), float(xs[i + 1])))
        state.append([*brackets[-1], *v[i:i + 2].tolist()])
    while any(hi - lo > _BISECT_TOL for lo, hi, _, _ in state):
        plans = [_bisection_plan(*s) for s in state]
        gaps = iter(_advantage_gaps(np.repeat(parameters, [len(plan) for plan in plans]),
                                    np.concatenate(plans)).tolist())
        for s, plan in zip(state, plans):
            scored = dict(zip(plan, gaps))  # takes this bracket's len(plan) gaps
            lo, hi, flo, fhi = s
            while hi - lo > _BISECT_TOL and (mid := (lo + hi) / 2) in scored:
                if (flo > 0) == (scored[mid] > 0):
                    lo, flo = mid, scored[mid]
                else:
                    hi, fhi = mid, scored[mid]
            s[:] = lo, hi, flo, fhi
    return [ThresholdResult(parameter=parameter, crossing=(lo + hi) / 2, bracket=bracket,
                            achieved_tolerance=hi - lo)
            for parameter, bracket, (lo, hi, _, _) in zip(parameters, brackets, state)]


def find_threshold(parameter: str) -> ThresholdResult:
    """find_thresholds of one axis."""
    return find_thresholds([parameter])[0]


def validate_records(records: list[SweepRecord]) -> list[str]:
    """Regression guard: list of human-readable invariant violations (empty = good)."""
    problems = []
    for i, r in enumerate(records):
        if not r.fixed_point_residual <= RESIDUAL_TOL:
            problems.append(f"row {i}: residual {r.fixed_point_residual:.3e} > {RESIDUAL_TOL:.0e}")
        if not r.consistency_fidelity >= 1 - 1e-9:
            problems.append(f"row {i}: consistency fidelity {r.consistency_fidelity}")
        for name in ("L_ctc_sigma_z", "L_ctc_optimal", "D_ctc", "L_qm", "D_qm",
                     "p_succ_ctc", "p_succ_qm"):
            v = getattr(r, name)
            if not -1e-12 <= v <= 1 + 1e-12:
                problems.append(f"row {i}: {name} = {v} outside [0, 1]")
    return problems

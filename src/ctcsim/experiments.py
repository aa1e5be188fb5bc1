"""Parameterized reproduction of the quantitative results, as tabular records.

Each sweep emits one SweepRecord per grid point carrying every figure of
merit at once (fixed sigma-z measurement, optimized measurement, trace
distance, identification probability) for both the loop circuit and the
standard-QM baseline, plus the solver diagnostics. Nothing is discarded;
the experiment id says which published panel a sweep corresponds to.

Every sweep solves its whole grid as one batch (deutsch.run_batch) and
builds its records through one function from the Bloch closed forms of
the measures; records are emitted in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuits import CircuitKind
from .deutsch import LoopBatch, run_batch
from .measures import bloch_measures
from .qmath import ValidationError

__all__ = [
    "SweepRecord",
    "ThresholdResult",
    "ThresholdNotFound",
    "WORKING_POINT_PHI",
    "WORKING_POINT_THETA",
    "nonlinearity_sweep",
    "discrimination_sweep",
    "decoherence_surface",
    "find_threshold",
    "validate_records",
]

# Decoherence study working point: controlled Hadamard on the state pair
# {|H>, psi1(3pi/2)}, where the gate is optimal at zero noise.
WORKING_POINT_PHI = 3 * math.pi / 2
WORKING_POINT_THETA = math.pi / 4

# find_threshold's sign-change scan resolution, final bracket width and
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


@dataclass(frozen=True)
class ThresholdResult:
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


def _diagnostics(batches: list[LoopBatch], n: int) -> tuple[np.ndarray, ...]:
    """Worst residual, fidelity and dimension over the scenarios of each record.

    Every batch holds one or more scenarios per record, as blocks of n rows.
    """
    def worst(name, reduce):
        return reduce(np.concatenate([getattr(b, name) for b in batches]).reshape(-1, n), axis=0)

    return (worst("residual", np.max), worst("consistency_fidelity", np.min),
            worst("fixed_set_dimension", np.max))


def _records(out0: np.ndarray, out1: np.ndarray, qm_pair: tuple[np.ndarray, np.ndarray],
             qm_fixed_axis: bool, diagnostics, **columns) -> list[SweepRecord]:
    """Records of N output pairs (N, 3) against their standard-QM input pairs.

    The QM side is scored with the optimal measurement and full state
    knowledge, or with the fixed sigma-z measurement if qm_fixed_axis.
    Scalar columns are broadcast to every record.
    """
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
    """Nonlinear-evolution sweep (CNOT-then-SWAP loop) against the |H> reference.

    Defaults reproduce the 14 published states: polar angles
    {0, pi/4, pi/2, 3pi/4, pi} crossed with 4 phases, de-duplicated at the
    poles where the phase is meaningless, plus iterated-circuit rows for
    each n in `iterations`. Pass 1 sends each pure state through the loop;
    every later pass sends the previous output as an improper mixture
    (deutsch.iterate_circuit). All states and the reference go through
    each pass as one batch.
    """
    if phi_grid is None:
        phi_grid = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    if phase_grid is None:
        phase_grid = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    if iterations is None:
        iterations = [2, 3, 4, 5]
    if not phi_grid or not phase_grid:
        raise ValidationError("sweep grids must be non-empty")
    passes = [1] + list(iterations)
    if min(passes) < 1:
        raise ValidationError("iteration count must be >= 1")

    states = [(phi, phase) for phi in phi_grid
              for phase in phase_grid[: 1 if abs(math.sin(phi)) < 1e-15 else len(phase_grid)]]
    phi, phase = (np.array(c) for c in zip(*states))
    n = len(states)
    # Rows 0..n-1 carry the swept states, rows n..2n-1 the |H> reference.
    state = np.vstack([_pure_bloch(phi, phase), np.tile([0.0, 0.0, 1.0], (n, 1))])
    zeros = np.zeros(2 * n)
    batches = []
    for _ in range(max(passes)):
        batches.append(run_batch(CircuitKind.SWAP_CNOT, zeros, zeros, zeros, state))
        state = batches[-1].outputs
    # The nonlinearity experiment compares against the fixed sigma-z
    # measurement on the un-evolved inputs (the reference state is known,
    # the swept one is not).
    qm_pair = (np.array([0.0, 0.0, 1.0]), _pure_bloch(phi, 0.0))
    return [record for k in passes for record in _records(
        batches[k - 1].outputs[:n], batches[k - 1].outputs[n:], qm_pair, True,
        _diagnostics(batches[:k], n), experiment_id="fig3", phi=phi, phase=phase,
        theta_xz=0.0, p=0.0, epsilon=0.0, prep_mode="local_pure", n_iterations=k,
    )]


def _discrimination_batch(mode: str, phi, theta, p, epsilon):
    """Solve the pair {|H>, psi1(phi)} at each point of equal-length grids, as one batch.

    Local preparation solves one loop per state; non-local preparation one
    loop for the unconditioned mixture, which is also what both outputs are
    evolved from. Returns the output pairs (N, 3), the depolarized input
    pair (the standard-QM side) and the batch.
    """
    n = len(phi)
    psi0 = np.broadcast_to([0.0, 0.0, 1.0], (n, 3))
    psi1 = _pure_bloch(phi, 0.0)
    kind = CircuitKind.SWAP_THEN_CU
    if mode == "local":
        batch = run_batch(kind, np.tile(theta, 2), np.tile(epsilon, 2), np.tile(p, 2),
                          np.vstack([psi0, psi1]))
        out0, out1 = batch.outputs[:n], batch.outputs[n:]
    elif mode == "nonlocal":
        batch = run_batch(kind, theta, epsilon, p, (psi0 + psi1) / 2.0)
        out0 = out1 = batch.outputs
    else:
        raise ValidationError(f"unknown preparation mode {mode!r}")
    shrink = (1.0 - p)[:, None]
    return out0, out1, (psi0 * shrink, psi1 * shrink), batch


def _discrimination_records(experiment_id: str, mode: str, phi, theta, p,
                            epsilon) -> list[SweepRecord]:
    """Discrimination records at each grid point; phi, theta, p and epsilon
    are per-point sequences (or scalars)."""
    phi, theta, p, epsilon = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (phi, theta, p, epsilon)))
    if len(phi) == 0:
        return []
    out0, out1, qm_pair, batch = _discrimination_batch(mode, phi, theta, p, epsilon)
    # Discrimination experiments compare against standard QM with the
    # optimal measurement and full state knowledge.
    return _records(
        out0, out1, qm_pair, False, _diagnostics([batch], len(phi)),
        experiment_id=experiment_id, phi=phi, phase=0.0, theta_xz=theta, p=p,
        epsilon=epsilon, prep_mode="local_pure" if mode == "local" else "nonlocal_ensemble",
        n_iterations=1,
    )


def discrimination_sweep(mode: str, variant: str, grid_size: int | None = None,
                         experiment_id: str | None = None) -> list[SweepRecord]:
    """State-discrimination sweep for the pair {|H>, psi1(phi)}.

    variant "optimal-gate": phi over [0, 2pi) with theta = (phi - pi)/2;
    variant "fixed-state":  phi = 3pi/2, theta over [-pi/2, pi/2);
    variant "fixed-gate":   theta = pi/4, phi over [0, 2pi).

    The phi = 0 point (psi1 identical to the reference) is emitted with
    its degeneracy visible in fixed_set_dimension rather than skipped.
    """
    if variant == "fixed-state":
        grid_size = 64 if grid_size is None else grid_size
    else:
        grid_size = 32 if grid_size is None else grid_size
    if grid_size < 2:
        raise ValidationError("grid size must be >= 2")
    if experiment_id is None:
        experiment_id = f"{variant}-{mode}"

    if variant == "optimal-gate":
        phi = [2 * math.pi * k / grid_size for k in range(grid_size)]
        theta = [(x - math.pi) / 2 for x in phi]
    elif variant == "fixed-gate":
        phi = [2 * math.pi * k / grid_size for k in range(grid_size)]
        theta = WORKING_POINT_THETA
    elif variant == "fixed-state":
        phi = WORKING_POINT_PHI
        theta = [-math.pi / 2 + math.pi * j / grid_size for j in range(grid_size)]
    else:
        raise ValidationError(f"unknown sweep variant {variant!r}")
    return _discrimination_records(experiment_id, mode, phi, theta, 0.0, 0.0)


def decoherence_surface(p_grid: list[float] | None = None,
                        eps_grid: list[float] | None = None) -> list[SweepRecord]:
    """Discrimination under both noise channels at the working point, local prep.

    The loop side keeps the sigma-z measurement and the QM side its
    decoherence-free optimal axis: the experimenter does not know the
    noise parameters. Records run over eps fastest, then p.
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 41).tolist()
    if eps_grid is None:
        eps_grid = np.linspace(0.0, 1.0, 41).tolist()
    for g in (p_grid, eps_grid):
        if any(not 0.0 <= x <= 1.0 for x in g):
            raise ValidationError("noise grids must stay within [0, 1]")
    p = np.repeat(np.asarray(p_grid, dtype=float), len(eps_grid))
    eps = np.tile(np.asarray(eps_grid, dtype=float), len(p_grid))
    return _discrimination_records("fig6", "local", WORKING_POINT_PHI, WORKING_POINT_THETA,
                                   p, eps)


def _advantage_gaps(parameter: str, xs) -> np.ndarray:
    """L_ctc(sigma_z) minus the QM baseline along one noise axis: one batch, no records."""
    xs = np.asarray(xs, dtype=float)
    zero = np.zeros_like(xs)
    p, eps = (xs, zero) if parameter == "p" else (zero, xs)
    out0, out1, qm_pair, _ = _discrimination_batch(
        "local", np.full_like(xs, WORKING_POINT_PHI), np.full_like(xs, WORKING_POINT_THETA), p, eps)
    return bloch_measures(out0, out1)[0] - bloch_measures(*qm_pair)[1]


def find_threshold(parameter: str) -> ThresholdResult:
    """Locate where the loop advantage dies along the p (eps=0) or epsilon (p=0) axis.

    Scans _SCAN_POINTS evenly spaced noise levels for a sign change first
    (the gap also vanishes at full noise, so a blind [0, 1] bracket would
    be ambiguous), then bisects it down to a width of at most _BISECT_TOL.
    Bisection is evaluated in batches by tree level: the (lo + hi) / 2
    midpoints of the next _SPEC_LEVELS levels are scored as one batch in
    heap order (node i's halves at 2i + 1, 2i + 2), then walked with the
    sign rule, so every bracket is the one a step-by-step bisection takes.
    """
    if parameter not in ("p", "epsilon"):
        raise ValidationError(f"unknown threshold parameter {parameter!r}")
    xs = np.linspace(0.0, 1.0, _SCAN_POINTS)
    vals = _advantage_gaps(parameter, xs)
    starts = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if not starts.size:
        raise ThresholdNotFound(f"no advantage crossing found along {parameter}")
    i = starts[0]
    bracket = (float(xs[i]), float(xs[i + 1]))
    (lo, hi), flo = bracket, vals[i]
    while hi - lo > _BISECT_TOL:
        nodes, mids = [(lo, hi)], []
        while len(mids) < 2 ** _SPEC_LEVELS - 1:
            a, b = nodes[len(mids)]
            mids.append((a + b) / 2)
            nodes += [(a, mids[-1]), (mids[-1], b)]
        gaps = _advantage_gaps(parameter, mids)
        node = 0
        while node < len(mids) and hi - lo > _BISECT_TOL:
            mid, fm = mids[node], gaps[node]
            if (flo > 0) == (fm > 0):
                lo, flo, node = mid, fm, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
    crossing = (lo + hi) / 2
    return ThresholdResult(
        parameter=parameter,
        crossing=crossing,
        bracket=bracket,
        achieved_tolerance=hi - lo,
    )


def validate_records(records: list[SweepRecord]) -> list[str]:
    """Regression guard: list of human-readable invariant violations (empty = good)."""
    problems = []
    for i, r in enumerate(records):
        if not r.fixed_point_residual <= 1e-10:
            problems.append(f"row {i}: residual {r.fixed_point_residual:.3e} > 1e-10")
        if not r.consistency_fidelity >= 1 - 1e-9:
            problems.append(f"row {i}: consistency fidelity {r.consistency_fidelity}")
        for name in ("L_ctc_sigma_z", "L_ctc_optimal", "D_ctc", "L_qm", "D_qm",
                     "p_succ_ctc", "p_succ_qm"):
            v = getattr(r, name)
            if not -1e-12 <= v <= 1 + 1e-12:
                problems.append(f"row {i}: {name} = {v} outside [0, 1]")
    return problems

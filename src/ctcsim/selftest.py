"""The acceptance checks of `ctcsim selftest` and the pytest acceptance suite: each
compares the engine with an independent oracle (closed forms, recurrences,
brute-force search) at a fixed tolerance. Random draws come from the
stdlib's random.Random through _uniform, so the suite never imports numpy.random.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

import numpy as np

from .circuits import _FAMILIES, CircuitKind, CircuitSpec, _failure_kraus, build_interaction
from .deutsch import (
    _swap_cnot_passes,
    damped_iteration,
    run_batch,
    solve_fixed_point,
    swap_cnot_closed_form,
)
from .experiments import (
    SweepRecord,
    _pure_bloch,
    _solve_pairs,
    _sweep_grid,
    decoherence_surface,
    find_thresholds,
    nonlinearity_sweep,
    reproduce,
)
from .measures import _eigen_optima, grid_search_mismatches
from .qmath import DensityMatrix, PureQubit, trace_distance, trace_distances

__all__ = ["CheckResult", "SelfTestReport", "run_selftest", "CHECKS"]


class CheckResult(NamedTuple):
    """One criterion's outcome; elapsed in seconds."""

    check_id: str
    description: str
    passed: bool
    detail: str
    elapsed: float


class Context:
    """Shared state across checks: observed fidelities and the fig5b sweeps C7
    and C9 read, solved once on first use so each check can run alone."""

    def __init__(self) -> None:
        self.fidelities: list[float] = []
        self._nonlocal: list[SweepRecord] | None = None

    def nonlocal_sweeps(self) -> list[SweepRecord]:
        if self._nonlocal is None:
            self._nonlocal = reproduce("fig5b")
            self.fidelities.extend(r.consistency_fidelity for r in self._nonlocal)
        return self._nonlocal


def _uniform(rng: random.Random, low, high, shape) -> np.ndarray:
    """Uniform draws in [low, high) (broadcast to shape) by numpy's formula
    low + (high - low) (w >> 11) 2^-53, each from its own little-endian 64-bit
    word of rng.randbytes in C order: a stacked draw equals one-at-a-time draws."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8").reshape(shape)
    low = np.asarray(low, dtype=float)
    return low + (np.asarray(high, dtype=float) - low) * ((words >> 11) * 2.0 ** -53)


def _mixed_pairs(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random pairs of qubit states as two Bloch stacks (n, 3), uniform in the
    ball (the Hilbert-Schmidt measure): psi(acos u, phase) shrunk to radius
    cbrt(w), each state one (u, phase, w) draw."""
    u, phase, w = np.moveaxis(_uniform(rng, [-1.0, 0.0, 0.0], [1.0, 2 * math.pi, 1.0], (n, 2, 3)),
                              -1, 0)
    r = _pure_bloch(np.arccos(u), phase) * np.cbrt(w)[..., None]
    return r[:, 0], r[:, 1]


def _density_rows(r: np.ndarray) -> np.ndarray:
    """density_from_bloch row by row: matrices (N, 2, 2) of Bloch vectors (N, 3)."""
    x, y, z = r.T
    return np.stack([1 + z, x - 1j * y, x + 1j * y, 1 - z], axis=-1).reshape(-1, 2, 2) / 2.0


def _check_closed_form(ctx: Context) -> tuple[bool, str]:
    """Engine vs analytic loop/output states on a 64-point population grid."""
    start = time.perf_counter()
    pops = np.linspace(0.0, 1.0, 64).tolist()
    [batch] = _swap_cnot_passes(_pure_bloch([2 * math.acos(math.sqrt(a)) for a in pops], 0.0), 1)
    ctx.fidelities.extend(batch.consistency_fidelity.tolist())
    refs = np.array([[r.mat for r in swap_cnot_closed_form(a)] for a in pops])  # (64, out/ctc, 2, 2)
    worst = np.max([trace_distances(_density_rows(batch.outputs), refs[:, 0]).max(),
                    trace_distances(_density_rows(batch.loop), refs[:, 1]).max()])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    return ok, f"worst trace distance {worst:.2e}, {elapsed:.2f}s"


def _check_phase_erasure(ctx: Context) -> tuple[bool, str]:
    """Outputs agree across a 16-point phase grid at each of 5 polar angles."""
    phis = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
    phases = [2 * math.pi * k / 16 for k in range(16)]
    [batch] = _swap_cnot_passes(_pure_bloch(np.repeat(phis, 16), phases * len(phis)), 1)
    ctx.fidelities.extend(batch.consistency_fidelity.tolist())
    outs = _density_rows(batch.outputs).reshape(len(phis), 16, 2, 2)
    worst = trace_distances(outs[:, :1], outs[:, 1:]).max()
    return worst <= 1e-10, f"worst pairwise trace distance {worst:.2e}"


def _check_degenerate_fixed_point(ctx: Context) -> tuple[bool, str]:
    """Equator input: two-dimensional fixed set, maximally mixed maximizer."""
    spec = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    fp = solve_fixed_point(
        PureQubit(math.pi / 2, 0.0).density(), build_interaction(spec)
    )
    d = trace_distance(fp.rho_ctc, DensityMatrix.maximally_mixed())
    ok = fp.fixed_set_dimension == 2 and d <= 1e-10
    return ok, f"fixed_set_dimension={fp.fixed_set_dimension}, distance to I/2 {d:.2e}"


def _check_nonlinearity_region(ctx: Context) -> tuple[bool, str]:
    """Loop curve sin^2(phi)/2 vs QM curve sin^2(phi/2), advantage iff phi < pi/2."""
    devs = []
    region_ok = True
    recs = nonlinearity_sweep([k * math.pi / 16 for k in range(17)], [0.0], iterations=[])
    for k, rec in enumerate(recs):
        ctx.fidelities.append(rec.consistency_fidelity)
        l_ctc_ref = 0.5 * math.sin(rec.phi) ** 2
        l_qm_ref = math.sin(rec.phi / 2) ** 2
        devs += [abs(rec.L_ctc_sigma_z - l_ctc_ref), abs(rec.L_qm - l_qm_ref)]
        gap = rec.L_ctc_sigma_z - rec.L_qm
        if 0 < k < 8:
            region_ok &= gap > 0
        elif k == 8:
            region_ok &= abs(gap) <= 1e-10
        else:
            region_ok &= gap <= 1e-10
    worst = np.max(devs)
    ok = worst <= 1e-10 and region_ok
    return ok, f"worst closed-form deviation {worst:.2e}, advantage region {'ok' if region_ok else 'WRONG'}"


def _diag_recurrence(a: float, n: int) -> float:
    # Independent oracle: |H>-population after n passes of the loop.
    for _ in range(n):
        a = a * a + (1 - a) * (1 - a)
    return a


def _check_iterated_distance(ctx: Context) -> tuple[bool, str]:
    """Trace-distance advantage appears only from the third pass on."""
    sweep = nonlinearity_sweep([math.pi / 4], [0.0], iterations=[2, 3])  # passes 1, 2, 3
    recs = {r.n_iterations: r for r in sweep[1:]}
    ctx.fidelities.extend(r.consistency_fidelity for r in recs.values())
    a0 = math.cos(math.pi / 8) ** 2
    expect = {n: 1.0 - _diag_recurrence(a0, n) for n in (2, 3)}
    dev = max(abs(recs[n].D_ctc - expect[n]) for n in (2, 3))
    d_qm = math.sin(math.pi / 8)
    ordered = recs[2].D_ctc < d_qm < recs[3].D_ctc
    ok = dev <= 1e-10 and ordered and abs(expect[2] - 0.375) < 1e-15 \
        and abs(expect[3] - 0.46875) < 1e-15
    return ok, (
        f"D(n=2)={recs[2].D_ctc:.6f}, D_qm={d_qm:.6f}, D(n=3)={recs[3].D_ctc:.6f}, "
        f"oracle deviation {dev:.2e}"
    )


def _check_perfect_discrimination(ctx: Context) -> tuple[bool, str]:
    """Optimal gate, local preparation: mismatch probability 1 for all 31 states."""
    # The phi = 0 record is the reference state itself, degenerate by construction.
    recs = [r for r in reproduce("fig5a") if r.phi != 0.0]
    ctx.fidelities.extend(r.consistency_fidelity for r in recs)
    worst_l = np.max([abs(r.L_ctc_sigma_z - 1.0) for r in recs])
    worst_r = np.max([r.fixed_point_residual for r in recs])
    ok = worst_l <= 1e-9 and worst_r <= 1e-10
    return ok, f"worst |L-1| {worst_l:.2e}, worst residual {worst_r:.2e}"


def _check_nonlocal_ceiling(ctx: Context) -> tuple[bool, str]:
    """Non-local preparation: maximally mixed outputs at the optimum, never above 1/2."""
    # fig5b's optimal-gate points but phi = 0. Each loop adapts to the ensemble
    # mean of |H> and psi(phi), and both states emerge as its evolved output.
    phi, theta = (axis[1:] for axis in _sweep_grid("optimal-gate", 32))
    out, _, _, (_, fid, _) = _solve_pairs(False, phi, theta, 0.0, 0.0)
    ctx.fidelities.extend(fid.tolist())
    worst_d = trace_distances(_density_rows(out), DensityMatrix.maximally_mixed().mat).max()
    ceiling = np.max([0.0] + [r.L_ctc_sigma_z - 0.5 for r in ctx.nonlocal_sweeps()])
    ok = worst_d <= 1e-10 and ceiling <= 1e-9
    return ok, f"worst distance to I/2 {worst_d:.2e}, max L - 1/2 = {ceiling:.2e}"


def _check_decoherence_thresholds(ctx: Context) -> tuple[bool, str]:
    """Full noise surface plus bisected advantage thresholds sqrt(2)-1 and 1/3."""
    start = time.perf_counter()
    records = decoherence_surface()
    ctx.fidelities.extend(r.consistency_fidelity for r in records)
    thr_p, thr_e = find_thresholds(("p", "epsilon"))
    elapsed = time.perf_counter() - start
    dev_p = abs(thr_p.crossing - (math.sqrt(2.0) - 1.0))
    dev_e = abs(thr_e.crossing - 1.0 / 3.0)
    ok = dev_p <= 1e-6 and dev_e <= 1e-6 and elapsed < 5.0
    return ok, (
        f"p* = {thr_p.crossing:.9f} (dev {dev_p:.2e}), "
        f"eps* = {thr_e.crossing:.9f} (dev {dev_e:.2e}), "
        f"{len(records)} surface points in {elapsed:.2f}s"
    )


def _check_supplement_identities(ctx: Context) -> tuple[bool, str]:
    """Optimized-measure and Helstrom identities, and the non-local 1/2 plateau."""
    rng = random.Random(20260810)
    # 1000 pairs of pure states psi(acos u, phase), u and the phase uniform.
    u, phase = np.moveaxis(_uniform(rng, [-1.0, 0.0], [1.0, 2 * math.pi], (1000, 2, 2)), -1, 0)
    a, b = np.moveaxis(_pure_bloch(np.arccos(u), phase), 1, 0)
    # The eigensolve oracle of the optimized measure against the pure-state
    # identity; unit Bloch vectors, so no row's quadratic form vanishes.
    d = trace_distances(_density_rows(a), _density_rows(b))
    worst_si = float(np.abs(_eigen_optima(a, b)[0] - 0.5 * (1 + d * d)).max())

    m1, m2 = map(_density_rows, _mixed_pairs(rng, 1000))
    lam, v = np.linalg.eigh(m1 - m2)
    # Projector onto the positive eigenspace of each difference, built from
    # its top k eigenvectors for each dimension k (none: the zero matrix).
    positive = (lam > 0).sum(axis=1)
    proj = np.zeros_like(m1)
    for k in (1, 2):
        top = v[positive == k][:, :, 2 - k:]
        proj[positive == k] = top @ top.conj().swapaxes(-1, -2)
    explicit = 0.5 * (np.trace(proj @ m1, axis1=-2, axis2=-1).real
                      + np.trace((np.eye(2) - proj) @ m2, axis1=-2, axis2=-1).real)
    worst_hel = float(np.abs(0.5 * (1.0 + trace_distances(m1, m2)) - explicit).max())

    plateau = np.max([abs(r.L_ctc_optimal - 0.5) for r in ctx.nonlocal_sweeps()])
    ok = (
        worst_si <= 1e-10
        and worst_hel <= 1e-10
        and plateau <= 1e-9
    )
    return ok, (
        f"optimal-measure identity dev {worst_si:.2e}, Helstrom dev {worst_hel:.2e}, "
        f"non-local plateau dev {plateau:.2e}"
    )


# C10 draws until SOLVER_CHECKS candidates have a unique fixed point, then
# runs the damped oracle once on all of them.
SOLVER_CHECKS = 1000
_CANDIDATE_LOW = [-math.pi / 2, 0.0, 0.0, -1.0, 0.0]
_CANDIDATE_HIGH = [math.pi / 2 - 1e-9, 1.0, 1.0, 1.0, 2 * math.pi]


def _draw_candidates(rng: random.Random, n: int):
    """n random swap-cu candidates from one draw of n rows (theta, eps, p,
    cos polar, phase), as run_batch's arguments: theta, eps, p and the pure
    Bloch rows (n, 3) of psi(acos(cos polar), phase)."""
    theta, eps, p, cos_polar, phase = _uniform(rng, _CANDIDATE_LOW, _CANDIDATE_HIGH, (n, 5)).T
    return theta, eps, p, _pure_bloch(np.arccos(cos_polar), phase)


def _unique_candidates(rng: random.Random, count: int):
    """theta, eps, input Bloch rows (pure rows depolarized by p) and engine
    loop states (count, 3) of the first `count` candidates whose fixed point
    is unique, solved by run_batch, the fixed-basis solve every command
    takes. Each draw takes only the candidates still needed, so the generator
    ends just after the last accepted one, as if drawn one at a time."""
    rows, need = [], count
    while need:
        theta, eps, p, pure = _draw_candidates(rng, need)
        batch = run_batch(CircuitKind.SWAP_THEN_CU, theta, eps, p, pure)
        keep = batch.fixed_set_dimension == 1
        rows.append((theta[keep], eps[keep], (1.0 - p[keep])[:, None] * pure[keep], batch.loop[keep]))
        need -= int(keep.sum())
    return tuple(map(np.concatenate, zip(*rows)))


def _check_solver_equivalence(ctx: Context) -> tuple[bool, str]:
    """Both solver methods agree; eigen measurement optimum matches grid search."""
    rng = random.Random(42)
    theta, eps, bloch, loop = _unique_candidates(rng, SOLVER_CHECKS)
    damped = damped_iteration(_density_rows(bloch),
                              _failure_kraus(_FAMILIES[CircuitKind.SWAP_THEN_CU], theta, eps))
    worst = trace_distances(_density_rows(loop), damped.rho).max()

    r1, r2 = _mixed_pairs(rng, 200)
    worst_grid = np.max(np.abs(_eigen_optima(r1, r2)[0] - grid_search_mismatches(r1, r2)))
    ok = worst <= 1e-9 and worst_grid <= 1e-6
    return ok, f"solver disagreement {worst:.2e}, grid-search deviation {worst_grid:.2e}"


def _check_consistency_fidelity(ctx: Context) -> tuple[bool, str]:
    """Every scenario solved so far closed its loop with fidelity 1."""
    if not ctx.fidelities:
        return False, "no scenarios recorded"
    worst = np.min(ctx.fidelities)
    ok = worst >= 1 - 1e-9
    return ok, f"minimum fidelity {worst:.12f} over {len(ctx.fidelities)} scenarios"


CHECKS = [
    ("C1", "closed-form loop/output states on a 64-point population grid", _check_closed_form),
    ("C2", "phase information is erased by the nonlinear loop", _check_phase_erasure),
    ("C3", "degenerate fixed set detected, entropy maximizer returned", _check_degenerate_fixed_point),
    ("C4", "nonlinearity advantage region ends exactly at the 1/sqrt(2) boundary", _check_nonlinearity_region),
    ("C5", "trace-distance advantage needs at least three circuit passes", _check_iterated_distance),
    ("C6", "perfect discrimination of 31 non-orthogonal pairs (local prep)", _check_perfect_discrimination),
    ("C7", "non-local preparation caps discrimination at coin flipping", _check_nonlocal_ceiling),
    ("C8", "decoherence thresholds sqrt(2)-1 and 1/3 on the 41x41 surface", _check_decoherence_thresholds),
    ("C9", "optimized-measure / Helstrom identities and the non-local plateau", _check_supplement_identities),
    ("C10", "solver cross-validation and measurement grid-search oracle", _check_solver_equivalence),
    ("C11", "loop state consistent across the wormhole in every scenario", _check_consistency_fidelity),
]


class SelfTestReport(NamedTuple):
    """Every criterion's result, C12 last, and the suite's time in seconds."""

    results: list[CheckResult]
    total_elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_selftest(echo=print) -> SelfTestReport:
    """Run all acceptance checks; C12 is the runtime/aggregate criterion itself."""
    ctx = Context()
    results = []
    t0 = time.perf_counter()
    for check_id, description, fn in CHECKS:
        t = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        results.append(CheckResult(check_id, description, bool(passed), detail, dt))
        if echo:
            status = "PASS" if passed else "FAIL"
            echo(f"[{status}] {check_id}: {description} ({dt:.2f}s) -- {detail}")
    total = time.perf_counter() - t0
    c12 = CheckResult("C12", "full acceptance suite finishes under 60 s",
                      all(r.passed for r in results) and total < 60.0, f"total {total:.2f}s", 0.0)
    results.append(c12)
    if echo:
        echo(f"[{'PASS' if c12.passed else 'FAIL'}] C12: {c12.description} -- {c12.detail}")
    return SelfTestReport(results=results, total_elapsed=total)

"""End-to-end acceptance checks runnable from the CLI (`ctcsim selftest`).

Each check re-derives its expected values from an independent oracle
(closed forms, recurrences, brute-force search) and compares the matrix
engine against them at a pinned tolerance. The checks double as the
pytest acceptance suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    SWAP,
    CircuitKind,
    CircuitSpec,
    _depolarized,
    _transfer_tensors,
    build_interaction,
    make_cu_xz,
)
from .deutsch import (
    LocalPure,
    NonLocalEnsemble,
    damped_iteration,
    run_scenario,
    solve_fixed_point,
    solve_loops,
    swap_cnot_closed_form,
)
from .experiments import (
    SweepRecord,
    decoherence_surface,
    discrimination_sweep,
    find_threshold,
    nonlinearity_sweep,
)
from .measures import grid_search_mismatch, optimal_mismatch_probability
from .qmath import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    PureQubit,
    ValidationError,
    _eig_ranges_2x2,
    trace_distance,
    trace_distances,
)

__all__ = ["CheckResult", "SelfTestReport", "run_selftest", "CHECKS"]


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    detail: str
    elapsed: float


# The non-local discrimination sweeps (variant, grid) that C7 and C9 both read.
NONLOCAL_SWEEPS = (("optimal-gate", 32), ("fixed-state", 64), ("fixed-gate", 32))


@dataclass
class Context:
    """Shared state across checks: tolerance scale, observed fidelities and
    the non-local sweeps, solved once on first use so each check can run alone."""

    tol_scale: float = 1.0
    fidelities: list[float] = field(default_factory=list)
    _nonlocal: list[SweepRecord] | None = field(default=None, init=False, repr=False)

    def tol(self, base: float) -> float:
        return base * self.tol_scale

    def nonlocal_sweeps(self) -> list[SweepRecord]:
        if self._nonlocal is None:
            self._nonlocal = [r for variant, n in NONLOCAL_SWEEPS
                              for r in discrimination_sweep("nonlocal", variant, n)]
            self.fidelities.extend(r.consistency_fidelity for r in self._nonlocal)
        return self._nonlocal


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 row by row, the symmetrisation DensityMatrix applies."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _pure_outer(cos_polar: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """|psi><psi| (..., 2, 2) of PureQubit(acos(cos_polar), phase), row by row,
    before DensityMatrix's symmetrisation; the phase is wrapped as PureQubit does."""
    # math.acos, not np.arccos: the two round differently.
    half = np.array([math.acos(c) for c in cos_polar.ravel().tolist()])
    half = half.reshape(cos_polar.shape) / 2
    phase = np.mod(phase, 2 * math.pi)
    v = np.stack([np.cos(half).astype(complex), np.exp(1j * phase) * np.sin(half)], axis=-1)
    return v[..., :, None] * v[..., None, :].conj()


def _checked_states(m: np.ndarray) -> np.ndarray:
    """A stack (N, 2, 2) checked against DensityMatrix's invariants (finite,
    Hermitian, unit trace, min eigenvalue >= -PSD_TOL) and symmetrised as it
    does; a violation raises ValidationError."""
    if not np.isfinite(m).all():
        raise ValidationError("density matrix stack has non-finite entries")
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERMITICITY_TOL:
        raise ValidationError(
            "density matrix stack violates Hermiticity (|m - m^dag|_max > 1e-12)")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if not np.abs(trace - 1.0).max() <= TRACE_TOL:
        raise ValidationError("density matrix stack violates unit trace")
    lo = _eig_ranges_2x2(m)[0].min()
    if not lo >= -PSD_TOL:
        raise ValidationError(
            f"density matrix stack violates positivity (min eigenvalue = {lo:.3e})")
    return _hermitian_part(m)


def _random_pairs(rng: np.random.Generator, n: int, pure: bool) -> tuple[np.ndarray, np.ndarray]:
    """n random pairs of qubit states as two (n, 2, 2) stacks, equal bit for bit
    to n pairs drawn one state at a time: pure psi(acos u, phase) with u and
    the phase uniform, or mixed G G^dag / Tr(G G^dag) with G complex Gaussian.
    Symmetrised as DensityMatrix does, so wrapping a row leaves it unchanged."""
    if pure:
        u, phase = np.moveaxis(rng.uniform([-1.0, 0.0], [1.0, 2 * math.pi], size=(n, 2, 2)), -1, 0)
        m = _pure_outer(u, phase)
    else:
        x = rng.normal(size=(n, 2, 2, 2, 2))
        g = x[:, :, 0] + 1j * x[:, :, 1]
        m = g @ g.conj().swapaxes(-1, -2)
        m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    m = _hermitian_part(m)
    return m[:, 0], m[:, 1]


def _bloch_rows(m: np.ndarray) -> np.ndarray:
    """bloch_from_density row by row: Bloch vectors (N, 3) of matrices (N, 2, 2)."""
    return np.stack([2 * m[:, 0, 1].real, -2 * m[:, 0, 1].imag, (m[:, 0, 0] - m[:, 1, 1]).real],
                    axis=-1)


def _density_rows(r: np.ndarray) -> np.ndarray:
    """density_from_bloch row by row: matrices (N, 2, 2) of Bloch vectors (N, 3)."""
    x, y, z = r.T
    return np.stack([1 + z, x - 1j * y, x + 1j * y, 1 - z], axis=-1).reshape(-1, 2, 2) / 2.0


def _check_closed_form(ctx: Context) -> tuple[bool, str]:
    """Engine vs analytic loop/output states on a 64-point population grid."""
    start = time.perf_counter()
    spec = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 64):
        phi = 2 * math.acos(math.sqrt(a))
        res = run_scenario(spec, LocalPure(PureQubit(phi, 0.0)))
        ctx.fidelities.append(res.consistency_fidelity)
        ref_out, ref_ctc = swap_cnot_closed_form(float(a))
        worst = max(
            worst,
            trace_distance(res.rho_out_per_input[0], ref_out),
            trace_distance(res.fixed_point.rho_ctc, ref_ctc),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= ctx.tol(1e-10) and elapsed < 1.0
    return ok, f"worst trace distance {worst:.2e}, {elapsed:.2f}s"


def _check_phase_erasure(ctx: Context) -> tuple[bool, str]:
    """Outputs agree across a 16-point phase grid at each of 5 polar angles."""
    spec = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    worst = 0.0
    for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        outs = []
        for k in range(16):
            res = run_scenario(spec, LocalPure(PureQubit(phi, 2 * math.pi * k / 16)))
            ctx.fidelities.append(res.consistency_fidelity)
            outs.append(res.rho_out_per_input[0])
        for o in outs[1:]:
            worst = max(worst, trace_distance(outs[0], o))
    return worst <= ctx.tol(1e-10), f"worst pairwise trace distance {worst:.2e}"


def _check_degenerate_fixed_point(ctx: Context) -> tuple[bool, str]:
    """Equator input: two-dimensional fixed set, maximally mixed maximizer."""
    spec = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    fp = solve_fixed_point(
        PureQubit(math.pi / 2, 0.0).density(), build_interaction(spec)
    )
    d = trace_distance(fp.rho_ctc, DensityMatrix.maximally_mixed())
    ok = fp.fixed_set_dimension == 2 and d <= ctx.tol(1e-10)
    return ok, f"fixed_set_dimension={fp.fixed_set_dimension}, distance to I/2 {d:.2e}"


def _check_nonlinearity_region(ctx: Context) -> tuple[bool, str]:
    """Loop curve sin^2(phi)/2 vs QM curve sin^2(phi/2), advantage iff phi < pi/2."""
    worst = 0.0
    region_ok = True
    for k in range(0, 17):
        phi = k * math.pi / 16
        rec = nonlinearity_sweep([phi], [0.0], iterations=[])[0]
        ctx.fidelities.append(rec.consistency_fidelity)
        l_ctc_ref = 0.5 * math.sin(phi) ** 2
        l_qm_ref = math.sin(phi / 2) ** 2
        worst = max(worst, abs(rec.L_ctc_sigma_z - l_ctc_ref), abs(rec.L_qm - l_qm_ref))
        gap = rec.L_ctc_sigma_z - rec.L_qm
        if 0 < k < 8:
            region_ok &= gap > 0
        elif k == 8:
            region_ok &= abs(gap) <= ctx.tol(1e-10)
        else:
            region_ok &= gap <= ctx.tol(1e-10)
    ok = worst <= ctx.tol(1e-10) and region_ok
    return ok, f"worst closed-form deviation {worst:.2e}, advantage region {'ok' if region_ok else 'WRONG'}"


def _diag_recurrence(a: float, n: int) -> float:
    # Independent oracle: |H>-population after n passes of the loop.
    for _ in range(n):
        a = a * a + (1 - a) * (1 - a)
    return a


def _check_iterated_distance(ctx: Context) -> tuple[bool, str]:
    """Trace-distance advantage appears only from the third pass on."""
    recs = {n: nonlinearity_sweep([math.pi / 4], [0.0], iterations=[n])[-1] for n in (2, 3)}
    for r in recs.values():
        ctx.fidelities.append(r.consistency_fidelity)
    a0 = math.cos(math.pi / 8) ** 2
    expect = {n: 1.0 - _diag_recurrence(a0, n) for n in (2, 3)}
    dev = max(abs(recs[n].D_ctc - expect[n]) for n in (2, 3))
    d_qm = math.sin(math.pi / 8)
    ordered = recs[2].D_ctc < d_qm < recs[3].D_ctc
    ok = dev <= ctx.tol(1e-10) and ordered and abs(expect[2] - 0.375) < 1e-15 \
        and abs(expect[3] - 0.46875) < 1e-15
    return ok, (
        f"D(n=2)={recs[2].D_ctc:.6f}, D_qm={d_qm:.6f}, D(n=3)={recs[3].D_ctc:.6f}, "
        f"oracle deviation {dev:.2e}"
    )


def _check_perfect_discrimination(ctx: Context) -> tuple[bool, str]:
    """Optimal gate, local preparation: mismatch probability 1 for all 31 states."""
    recs = discrimination_sweep("local", "optimal-gate", 32)
    worst_l, worst_r = 0.0, 0.0
    for r in recs:
        if r.phi == 0.0:
            continue  # reference state itself; degenerate by construction
        ctx.fidelities.append(r.consistency_fidelity)
        worst_l = max(worst_l, abs(r.L_ctc_sigma_z - 1.0))
        worst_r = max(worst_r, r.fixed_point_residual)
    ok = worst_l <= ctx.tol(1e-9) and worst_r <= ctx.tol(1e-10)
    return ok, f"worst |L-1| {worst_l:.2e}, worst residual {worst_r:.2e}"


def _check_nonlocal_ceiling(ctx: Context) -> tuple[bool, str]:
    """Non-local preparation: maximally mixed outputs at the optimum, never above 1/2."""
    worst_d = 0.0
    half = DensityMatrix.maximally_mixed()
    for k in range(1, 32):
        phi = 2 * math.pi * k / 32
        spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=(phi - math.pi) / 2)
        res = run_scenario(
            spec, NonLocalEnsemble((PureQubit(0.0, 0.0), PureQubit(phi, 0.0)), (0.5, 0.5))
        )
        ctx.fidelities.append(res.consistency_fidelity)
        for o in res.rho_out_per_input:
            worst_d = max(worst_d, trace_distance(o, half))
    ceiling = max([0.0] + [r.L_ctc_sigma_z - 0.5 for r in ctx.nonlocal_sweeps()])
    ok = worst_d <= ctx.tol(1e-10) and ceiling <= ctx.tol(1e-9)
    return ok, f"worst distance to I/2 {worst_d:.2e}, max L - 1/2 = {ceiling:.2e}"


def _check_decoherence_thresholds(ctx: Context) -> tuple[bool, str]:
    """Full noise surface plus bisected advantage thresholds sqrt(2)-1 and 1/3."""
    start = time.perf_counter()
    records = decoherence_surface()
    for r in records:
        ctx.fidelities.append(r.consistency_fidelity)
    thr_p = find_threshold("p")
    thr_e = find_threshold("epsilon")
    elapsed = time.perf_counter() - start
    dev_p = abs(thr_p.crossing - (math.sqrt(2.0) - 1.0))
    dev_e = abs(thr_e.crossing - 1.0 / 3.0)
    ok = dev_p <= ctx.tol(1e-6) and dev_e <= ctx.tol(1e-6) and elapsed < 5.0
    return ok, (
        f"p* = {thr_p.crossing:.9f} (dev {dev_p:.2e}), "
        f"eps* = {thr_e.crossing:.9f} (dev {dev_e:.2e}), "
        f"{len(records)} surface points in {elapsed:.2f}s"
    )


def _check_supplement_identities(ctx: Context) -> tuple[bool, str]:
    """Optimized-measure and Helstrom identities, and the non-local 1/2 plateau."""
    rng = np.random.default_rng(20260810)
    a, b = _random_pairs(rng, 1000, pure=True)
    # optimal_mismatch_probability's eigensolve, stacked. Pure states have
    # unit Bloch vectors, so its vanishing-form branch never applies.
    outer = _bloch_rows(a)[:, :, None] * _bloch_rows(b)[:, None, :]
    lam = np.linalg.eigh(((outer + outer.swapaxes(1, 2)) / 2.0).astype(complex))[0][:, 0]
    d = trace_distances(a, b)
    worst_si = float(np.abs(np.clip((1.0 - lam) / 2.0, 0.0, 1.0) - 0.5 * (1 + d * d)).max())

    m1, m2 = _random_pairs(rng, 1000, pure=False)
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

    plateau = max(abs(r.L_ctc_optimal - 0.5) for r in ctx.nonlocal_sweeps())
    ok = (
        worst_si <= ctx.tol(1e-10)
        and worst_hel <= ctx.tol(1e-10)
        and plateau <= ctx.tol(1e-9)
    )
    return ok, (
        f"optimal-measure identity dev {worst_si:.2e}, Helstrom dev {worst_hel:.2e}, "
        f"non-local plateau dev {plateau:.2e}"
    )


# C10 draws its candidates CHUNK at a time: the damped oracle and the
# engine each solve a chunk as one batch, while the working set stays small.
SOLVER_CHECKS = 1000
CHUNK = 200
_CANDIDATE_LOW = [-math.pi / 2, 0.0, 0.0, -1.0, 0.0]
_CANDIDATE_HIGH = [math.pi / 2 - 1e-9, 1.0, 1.0, 1.0, 2 * math.pi]


def _draw_candidates(rng: np.random.Generator, n: int):
    """n random swap-cu candidates from one draw of n rows (theta, eps, p,
    cos polar, phase), as stacks: the depolarized input states (n, 2, 2),
    their Bloch rows (n, 3) and the Kraus stack (weights (n, 2), ops
    (n, 2, 4, 4)) of build_interaction's gate-failure channel, [1 - eps, eps]
    on [CU_xz(theta) SWAP, SWAP]. Each equals, bit for bit, what n
    successive draws built one spec and one state at a time would give.
    """
    theta, eps, p, cos_polar, phase = rng.uniform(_CANDIDATE_LOW, _CANDIDATE_HIGH, size=(n, 5)).T
    rho_in = _checked_states(_depolarized(_hermitian_part(_pure_outer(cos_polar, phase)), p))
    cu = np.array([make_cu_xz(t) for t in theta.tolist()])
    ops = np.stack([cu @ SWAP, np.broadcast_to(SWAP, cu.shape)], axis=1)
    return rho_in, _bloch_rows(rho_in), (np.stack([1.0 - eps, eps], axis=1), ops)


def _unique_fixed_point_chunks(rng: np.random.Generator, count: int, chunk: int):
    """Yield (Kraus stack, rho_in (M, 2, 2), engine loop states (M, 3)) for the
    first `count` candidates whose fixed point is unique, chunk by chunk.

    Each chunk's engine side is one solve_loops batch, one term whose
    transfer tensors come from the same Kraus stack the oracle iterates. A
    chunk draws at most as many candidates as are still needed, so the
    generator ends just after the last accepted draw, as if the candidates
    had been drawn one at a time.
    """
    need = count
    while need:
        rho_in, bloch, (weights, ops) = _draw_candidates(rng, min(chunk, need))
        batch = solve_loops([(1.0, _transfer_tensors(weights, ops))], bloch,
                            np.empty((len(bloch), 0, 3)))
        keep = np.flatnonzero(batch.fixed_set_dimension == 1)
        need -= len(keep)
        if len(keep):
            yield (weights[keep], ops[keep]), rho_in[keep], batch.loop[keep]


def _check_solver_equivalence(ctx: Context) -> tuple[bool, str]:
    """Both solver methods agree; eigen measurement optimum matches grid search."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for kraus, rho_in, loop in _unique_fixed_point_chunks(rng, SOLVER_CHECKS, CHUNK):
        damped = damped_iteration(rho_in, kraus)
        worst = max(worst, float(trace_distances(_density_rows(loop), damped.rho).max()))

    worst_grid = 0.0
    for m1, m2 in zip(*_random_pairs(rng, 200, pure=False)):
        r1, r2 = DensityMatrix(m1), DensityMatrix(m2)
        val, _ = optimal_mismatch_probability(r1, r2)
        worst_grid = max(worst_grid, abs(val - grid_search_mismatch(r1, r2)))
    ok = worst <= ctx.tol(1e-9) and worst_grid <= ctx.tol(1e-6)
    return ok, f"solver disagreement {worst:.2e}, grid-search deviation {worst_grid:.2e}"


def _check_consistency_fidelity(ctx: Context) -> tuple[bool, str]:
    """Every scenario solved so far closed its loop with fidelity 1."""
    if not ctx.fidelities:
        return False, "no scenarios recorded"
    worst = min(ctx.fidelities)
    ok = worst >= 1 - ctx.tol(1e-9)
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


@dataclass
class SelfTestReport:
    results: list[CheckResult]
    total_elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_selftest(tol_scale: float = 1.0, echo=print) -> SelfTestReport:
    """Run all acceptance checks; C12 is the runtime/aggregate criterion itself."""
    ctx = Context(tol_scale=tol_scale)
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
    c12 = all(r.passed for r in results) and total < 60.0
    results.append(
        CheckResult(
            "C12",
            "full acceptance suite finishes under 60 s",
            c12,
            f"total {total:.2f}s",
            0.0,
        )
    )
    if echo:
        echo(f"[{'PASS' if c12 else 'FAIL'}] C12: full acceptance suite finishes under 60 s -- total {total:.2f}s")
    return SelfTestReport(results=results, total_elapsed=total)

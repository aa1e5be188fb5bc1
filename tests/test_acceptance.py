"""Acceptance suite: every exit criterion at its pinned tolerance.

The criteria live in ctcsim.selftest (the same code the `ctcsim selftest`
command runs). The battery runs once per session, through the command
line, and each criterion is asserted individually from that run's report,
so `pytest -v` shows one pass/fail line per criterion. Run with -s to see
the timing and tolerance details.
"""

import io
import json
import math
import random
import time
import tracemalloc
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

import ctcsim.cli as cli
import ctcsim.deutsch as deutsch
import ctcsim.experiments as experiments
import ctcsim.selftest as selftest
from ctcsim.circuits import (
    CircuitKind,
    CircuitSpec,
    _FAMILIES,
    _failure_kraus,
    build_interaction,
    depolarize,
)
from ctcsim.cli import main
from ctcsim.deutsch import (
    LocalPure,
    NonLocalEnsemble,
    _kraus_stack,
    damped_iteration,
    run_batch,
    run_scenario,
    solve_fixed_point,
)
from ctcsim.measures import _eigen_optima, helstrom_success_probability
from ctcsim.qmath import DensityMatrix, PureQubit, density_from_bloch, trace_distances
from ctcsim.selftest import (
    CHECKS,
    SOLVER_CHECKS,
    CheckResult,
    Context,
    SelfTestReport,
    _density_rows,
    _unique_candidates,
)
from test_cli import run_python
from test_measures import scalar_grid_search

SWAP_CU = _FAMILIES[CircuitKind.SWAP_THEN_CU]
CRITERIA = [check_id for check_id, _, _ in CHECKS] + ["C12"]
# The points of the non-local sweeps that C7 and C9 share: 32, 64 and 32.
NONLOCAL_POINTS = 128


@pytest.fixture(scope="session")
def selftest_run():
    """One `ctcsim selftest`: exit code, wall time, printed output and report."""
    reports = []
    real = cli.run_selftest

    def keep_report(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    cli.run_selftest = keep_report
    out = io.StringIO()
    try:
        start = time.perf_counter()
        with redirect_stdout(out):
            rc = main(["selftest"])
        elapsed = time.perf_counter() - start
    finally:
        cli.run_selftest = real
    print(out.getvalue())
    assert len(reports) == 1
    return rc, elapsed, out.getvalue(), reports[0]


@pytest.fixture(scope="session")
def report(selftest_run):
    return selftest_run[3]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(report, criterion):
    result = {r.check_id: r for r in report.results}[criterion]
    assert result.passed, f"{criterion} failed: {result.description} -- {result.detail}"


def test_selftest_command_exits_zero_under_a_minute(selftest_run):
    rc, elapsed, out, _ = selftest_run
    assert rc == 0
    assert elapsed < 60.0
    assert out.count("[PASS]") == 12


def test_json_report(report, capsys, monkeypatch):
    """--json prints the run's per-check report instead of the text lines;
    the exit code still says whether every check passed."""
    calls = []
    failing = SelfTestReport([CheckResult("C4", "criterion C4", False, "detail C4", 0.25)], 1.5)

    def fake_run(echo=print):
        calls.append(echo)
        return report if len(calls) == 1 else failing

    monkeypatch.setattr(cli, "run_selftest", fake_run)
    assert main(["selftest", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert calls == [None]
    assert list(data) == ["all_passed", "total_elapsed", "checks"]
    assert data["all_passed"] is True
    assert data["total_elapsed"] == report.total_elapsed
    assert [c["check_id"] for c in data["checks"]] == CRITERIA
    for got, r in zip(data["checks"], report.results):
        assert got == {"check_id": r.check_id, "description": r.description,
                       "passed": True, "detail": r.detail, "elapsed": r.elapsed}

    assert main(["selftest", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is False
    assert data["checks"] == [{"check_id": "C4", "description": "criterion C4",
                               "passed": False, "detail": "detail C4", "elapsed": 0.25}]


def test_c11_counts_every_scenario_once(report):
    """Each check, run on a fresh context, records one consistency fidelity per
    scenario it solves: the batched checks neither drop nor double-count one.
    In a full run C9 reuses C7's non-local sweeps, so C11 sees 2034."""
    counts = {}
    for check_id, _, check in CHECKS[:-1]:
        ctx = Context()
        assert check(ctx)[0], check_id
        counts[check_id] = len(ctx.fidelities)
    swept = NONLOCAL_POINTS
    assert counts == {"C1": 64, "C2": 80, "C3": 0, "C4": 17, "C5": 2, "C6": 31,
                      "C7": 31 + swept, "C8": 1681, "C9": swept, "C10": 0}
    assert sum(counts.values()) - swept == 2034
    assert {r.check_id: r.detail for r in report.results}["C11"].endswith("over 2034 scenarios")


def scenarios_one_at_a_time(check_id):
    """Oracle: the (spec, preparation) of each scenario C1, C2 or C7 solves, in order."""
    swap_cnot = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    if check_id == "C1":
        return [(swap_cnot, LocalPure(PureQubit(2 * math.acos(math.sqrt(a)), 0.0)))
                for a in np.linspace(0.0, 1.0, 64)]
    if check_id == "C2":
        return [(swap_cnot, LocalPure(PureQubit(phi, 2 * math.pi * k / 16)))
                for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
                for k in range(16)]
    phis = [2 * math.pi * k / 32 for k in range(1, 32)]
    return [(CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=(phi - math.pi) / 2),
             NonLocalEnsemble((PureQubit(0.0, 0.0), PureQubit(phi, 0.0)), (0.5, 0.5)))
            for phi in phis]


# The module whose run_batch each check reaches: C1 and C2 through
# deutsch._swap_cnot_passes, C7 through experiments._solve_pairs.
BATCH_MODULES = {"C1": deutsch, "C2": deutsch, "C7": experiments}


@pytest.mark.parametrize("check_id", ["C1", "C2", "C7"])
def test_batched_check_matches_run_scenario(check_id, monkeypatch):
    """C1, C2 and C7 each solve their scenarios as one run_batch, whose rows are
    run_scenario's results one at a time bit for bit: loop state, every
    output and the consistency fidelity the check records."""
    batches = []
    module = BATCH_MODULES[check_id]
    real = module.run_batch

    def recorded(*args):
        batches.append(real(*args))
        return batches[-1]

    monkeypatch.setattr(module, "run_batch", recorded)
    ctx = Context()
    assert {c: check for c, _, check in CHECKS}[check_id](ctx)[0]
    # C7's second batch is the fig5b sweeps it shares with C9 (Context.nonlocal_sweeps).
    assert len(batches) == (2 if check_id == "C7" else 1)
    batch = batches[0]
    scenarios = scenarios_one_at_a_time(check_id)
    assert len(batch.loop) == len(scenarios)
    loops, outputs = _density_rows(batch.loop), _density_rows(batch.outputs)
    rows = zip(loops, outputs, batch.consistency_fidelity.tolist())
    for (spec, prep), (loop, output, fid) in zip(scenarios, rows):
        res = run_scenario(spec, prep)
        np.testing.assert_array_equal(res.fixed_point.rho_ctc.mat, loop)
        for out in res.rho_out_per_input:
            np.testing.assert_array_equal(out.mat, output)
        assert res.consistency_fidelity == fid
    assert ctx.fidelities[:len(scenarios)] == batch.consistency_fidelity.tolist()


def scalar_uniform(rng, low, high):
    """Oracle: one uniform draw in [low, high), numpy's formula in Python floats
    on the next 8 bytes of rng read as a little-endian 64-bit word."""
    word = int.from_bytes(rng.randbytes(8), "little")
    return low + (high - low) * ((word >> 11) * 2.0 ** -53)


@pytest.mark.parametrize("low, high, shape", [
    (-1.0, 1.0, ()), (0.0, 2 * math.pi, (7,)), ([-1.0, 0.0], [1.0, 2 * math.pi], (5, 3, 2)),
    (selftest._CANDIDATE_LOW, selftest._CANDIDATE_HIGH, (4, 5)), (0.0, 1.0, (0, 3)),
])
def test_uniform_matches_one_at_a_time(low, high, shape):
    """A stacked _uniform draw is the one-at-a-time draws in C order bit for
    bit, and leaves the generator where they do."""
    stacked, scalar = random.Random(42), random.Random(42)
    got = selftest._uniform(stacked, low, high, shape)
    lows, highs = (np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1).tolist()
                   for x in (low, high))
    want = [scalar_uniform(scalar, lo, hi) for lo, hi in zip(lows, highs)]
    assert got.shape == shape
    assert got.reshape(-1).tolist() == want
    assert all(lo <= x < hi for x, lo, hi in zip(want, lows, highs))
    assert stacked.getstate() == scalar.getstate()


def test_selftest_never_imports_numpy_random():
    """`ctcsim selftest` in a fresh interpreter passes without loading
    numpy.random or the secrets module it pulls in."""
    proc = run_python("-c", (
        "import io, sys, contextlib, ctcsim.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['selftest']) == 0\n"
        "print(sorted({'numpy.random', 'secrets'} & set(sys.modules)))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_chunked_draw_matches_one_at_a_time_draw():
    """C10's draw, in pieces of the candidates still needed, accepts the
    candidates, and leaves the generator in the state, of drawing and solving
    one candidate at a time: the same Kraus stacks bit for bit, the same
    depolarized states and loop states to roundoff."""
    count = 7
    one_at_a_time, stacked = random.Random(42), random.Random(42)
    expected = []
    while len(expected) < count:
        rng = one_at_a_time
        spec = CircuitSpec(
            kind=CircuitKind.SWAP_THEN_CU,
            theta_xz=scalar_uniform(rng, -math.pi / 2, math.pi / 2 - 1e-9),
            gate_noise=scalar_uniform(rng, 0.0, 1.0),
            input_noise=scalar_uniform(rng, 0.0, 1.0),
        )
        psi = PureQubit(math.acos(scalar_uniform(rng, -1.0, 1.0)),
                        scalar_uniform(rng, 0.0, 2 * math.pi))
        rho_in = depolarize(psi.density(), spec.input_noise)  # built as a matrix
        fp = solve_fixed_point(rho_in, build_interaction(spec))
        if fp.fixed_set_dimension == 1:
            expected.append((build_interaction(spec), rho_in.mat, fp.rho_ctc.bloch()))

    theta, eps, bloch, loop = _unique_candidates(stacked, count)
    assert len(theta) == len(eps) == len(bloch) == len(loop) == count
    weights, ops = _failure_kraus(SWAP_CU, theta, eps)
    want_weights, want_ops = _kraus_stack([ch for ch, _, _ in expected])
    np.testing.assert_array_equal(weights, want_weights)
    np.testing.assert_array_equal(ops, want_ops)
    np.testing.assert_allclose(_density_rows(bloch), [m for _, m, _ in expected],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(loop, [r for _, _, r in expected], rtol=0, atol=1e-15)
    assert stacked.getstate() == one_at_a_time.getstate()


def test_unique_candidates_redraw_only_the_rejected(monkeypatch):
    """A candidate without a unique fixed point is replaced by the next one in
    the stream: with the first row of every draw of more than one rejected,
    7 candidates take draws of 7 and 1, are candidates 2 to 8 of one-candidate
    draws bit for bit, and leave the generator where 8 such draws do."""
    sizes = []
    real = selftest.run_batch

    def reject_first(kind, theta, *args):
        batch = real(kind, theta, *args)
        sizes.append(len(theta))
        dim = batch.fixed_set_dimension.copy()
        if len(dim) > 1:
            dim[0] = 2
        return SimpleNamespace(loop=batch.loop, fixed_set_dimension=dim)

    monkeypatch.setattr(selftest, "run_batch", reject_first)
    redrawn = random.Random(42)
    got = _unique_candidates(redrawn, 7)
    assert sizes == [7, 1]
    monkeypatch.undo()
    one_at_a_time = random.Random(42)
    want = [_unique_candidates(one_at_a_time, 1) for _ in range(8)][1:]
    for column, rows in zip(got, zip(*want)):
        np.testing.assert_array_equal(column, np.concatenate(rows))
    assert redrawn.getstate() == one_at_a_time.getstate()


def test_nonlocal_sweeps_shared_by_c7_and_c9(monkeypatch):
    """C9 run alone solves the fig5b non-local sweeps with one reproduce("fig5b");
    C7 after it reuses them, and their scenarios are counted once for C11."""
    calls = []
    real = selftest.reproduce

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selftest, "reproduce", counted)
    ctx = Context()
    assert selftest._check_supplement_identities(ctx)[0]
    assert calls == [("fig5b",)]
    assert sorted({r.experiment_id for r in ctx.nonlocal_sweeps()}) == [
        f"fig5b-{v}" for v in ("fixed-gate", "fixed-state", "optimal-gate")]
    assert len(ctx.fidelities) == NONLOCAL_POINTS
    assert selftest._check_nonlocal_ceiling(ctx)[0]
    assert len(calls) == 1
    assert len(ctx.fidelities) == NONLOCAL_POINTS + 31  # C7's own 31 scenarios


def test_c8_bisects_both_thresholds_together(monkeypatch):
    """C8 finds both thresholds with one find_thresholds call."""
    calls = []
    real = selftest.find_thresholds

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(selftest, "find_thresholds", counted)
    assert selftest._check_decoherence_thresholds(Context())[0]
    assert calls == [(("p", "epsilon"),)]


def test_drawn_c10_inputs_are_density_matrices(monkeypatch):
    """Every input state C10 draws, depolarized and built as a matrix from its
    Bloch row, is density_from_bloch's matrix bit for bit and passes
    DensityMatrix unchanged; the accepted rows are among them."""
    drawn = []
    real = selftest._draw_candidates

    def recorded(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(selftest, "_draw_candidates", recorded)
    _, _, accepted, _ = _unique_candidates(random.Random(42), SOLVER_CHECKS)
    bloch = np.concatenate([(1.0 - p)[:, None] * pure for _, _, p, pure in drawn])
    assert len(accepted) == SOLVER_CHECKS <= len(bloch)
    assert {r.tobytes() for r in accepted} <= {r.tobytes() for r in bloch}
    for r, m in zip(bloch, _density_rows(bloch)):
        np.testing.assert_array_equal(density_from_bloch(r).mat, m)
        np.testing.assert_array_equal(DensityMatrix(m).mat, m)


def c10_rows():
    """C10's accepted candidates as one stack each: Kraus stack, rho_in (N,
    2, 2) and engine loop states (N, 3)."""
    theta, eps, bloch, loop = _unique_candidates(random.Random(42), SOLVER_CHECKS)
    return _failure_kraus(SWAP_CU, theta, eps), _density_rows(bloch), loop


def test_c10_runs_one_damped_oracle_on_all_its_rows(monkeypatch):
    """C10 calls damped_iteration once, on all SOLVER_CHECKS accepted rows,
    and its result equals that of the oracle run 200 rows at a time bit for bit."""
    calls = []
    real = selftest.damped_iteration

    def recorded(rho_in, kraus):
        calls.append((rho_in, kraus, real(rho_in, kraus)))
        return calls[-1][2]

    monkeypatch.setattr(selftest, "damped_iteration", recorded)
    assert selftest._check_solver_equivalence(Context())[0]
    [(rho_in, kraus, whole)] = calls
    assert len(rho_in) == len(kraus[0]) == len(kraus[1]) == SOLVER_CHECKS
    want_kraus, want_rho_in, _ = c10_rows()
    np.testing.assert_array_equal(rho_in, want_rho_in)
    np.testing.assert_array_equal(kraus[0], want_kraus[0])
    np.testing.assert_array_equal(kraus[1], want_kraus[1])
    for start in range(0, SOLVER_CHECKS, 200):
        rows = slice(start, start + 200)
        part = real(rho_in[rows], (kraus[0][rows], kraus[1][rows]))
        np.testing.assert_array_equal(whole.rho[rows], part.rho)
        np.testing.assert_array_equal(whole.iterations[rows], part.iterations)


def test_c10_engine_side_is_run_batch_on_the_draw(monkeypatch):
    """C10's engine loop states are run_batch's on the drawn angles, noise and
    input states bit for bit, here one batch of every drawn candidate,
    restricted to the rows of a unique fixed point."""
    drawn = []
    real = selftest._draw_candidates

    def recorded(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(selftest, "_draw_candidates", recorded)
    _, _, loop = c10_rows()
    theta, eps, p, pure = (np.concatenate(column) for column in zip(*drawn))
    batch = run_batch(CircuitKind.SWAP_THEN_CU, theta, eps, p, pure)
    np.testing.assert_array_equal(loop, batch.loop[batch.fixed_set_dimension == 1])


def test_c10_damped_oracle_memory_does_not_grow_with_its_rows():
    """The traced peak of damped_iteration grows by at most 512 bytes a row
    from C10's first 200 rows to all 1000: the superoperator build runs in
    blocks, so only the per-row arrays grow (about 260 bytes a row, against
    about 8 KB a row for a build in one block)."""
    kraus, rho_in, _ = c10_rows()

    def peak(n):
        tracemalloc.start()
        try:
            damped_iteration(rho_in[:n], (kraus[0][:n], kraus[1][:n]))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(SOLVER_CHECKS) - peak(200) <= 512 * (SOLVER_CHECKS - 200)


def one_state_at_a_time(rng, pure):
    """Oracle: the Bloch vector (3,) of one random state, psi(acos u, phase)
    with u and the phase uniform (np.arccos, which rounds unlike math.acos, as
    C9 draws it), and if not pure shrunk to the radius cbrt(w) of a third
    uniform w, which makes it uniform in the ball."""
    u, phase = scalar_uniform(rng, -1.0, 1.0), scalar_uniform(rng, 0.0, 2 * math.pi)
    r = PureQubit(float(np.arccos(u)), phase).bloch()
    return r if pure else r * float(np.cbrt(scalar_uniform(rng, 0.0, 1.0)))


@pytest.mark.parametrize("seed", [20260810, 42])
def test_mixed_pairs_match_one_at_a_time(seed):
    """The stacked mixed pairs are the one-at-a-time states to roundoff, lie
    in the ball, leave the generator where the one-at-a-time draws do, and
    their density matrices (as C9 builds them) are DensityMatrix-exact."""
    stacked, scalar = random.Random(seed), random.Random(seed)
    a, b = selftest._mixed_pairs(stacked, 500)
    want = np.array([one_state_at_a_time(scalar, False) for _ in range(1000)])
    np.testing.assert_allclose(np.stack([a, b], axis=1).reshape(-1, 3), want, rtol=0, atol=1e-15)
    assert (np.linalg.norm(a, axis=1) < 1.0).all() and (np.linalg.norm(b, axis=1) < 1.0).all()
    for r, m in zip(a, _density_rows(a)):
        np.testing.assert_array_equal(density_from_bloch(r).mat, m)
        np.testing.assert_array_equal(DensityMatrix(m).mat, m)
    assert stacked.getstate() == scalar.getstate()


def draw_candidates_one_at_a_time(rng, n):
    """Oracle: C10's draw made one candidate at a time, one CircuitSpec, one
    PureQubit and its depolarized density per candidate."""
    specs, pure, states = [], [], []
    for _ in range(n):
        theta, eps, p, cos_polar, phase = (
            scalar_uniform(rng, low, high)
            for low, high in zip(selftest._CANDIDATE_LOW, selftest._CANDIDATE_HIGH))
        specs.append(CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
                                 gate_noise=eps, input_noise=p))
        pure.append(PureQubit(math.acos(cos_polar), phase))
        states.append(depolarize(pure[-1].density(), p))
    return specs, pure, states


@pytest.mark.parametrize("seed", [42, 20260810])
def test_stacked_candidates_match_one_at_a_time(seed):
    """C10's stacked draw gives the one-at-a-time Bloch rows and states to
    roundoff, the drawn angle and noise columns bit for bit, and so the
    build_interaction Kraus stacks through _failure_kraus, and leaves the
    generator where the one-at-a-time draw does."""
    stacked, scalar = random.Random(seed), random.Random(seed)
    for n in (200, 200, 37):
        theta, eps, p, pure = selftest._draw_candidates(stacked, n)
        specs, pure_states, states = draw_candidates_one_at_a_time(scalar, n)
        assert theta.tolist() == [s.theta_xz for s in specs]
        assert eps.tolist() == [s.gate_noise for s in specs]
        assert p.tolist() == [s.input_noise for s in specs]
        np.testing.assert_allclose(pure, [q.bloch() for q in pure_states], rtol=0, atol=1e-15)
        bloch = (1.0 - p)[:, None] * pure  # as C10 depolarizes them
        np.testing.assert_allclose(bloch, [s.bloch() for s in states], rtol=0, atol=1e-15)
        np.testing.assert_allclose(_density_rows(bloch), [s.mat for s in states],
                                   rtol=0, atol=1e-15)
        weights, ops = _failure_kraus(SWAP_CU, theta, eps)
        want_weights, want_ops = _kraus_stack([build_interaction(s) for s in specs])
        np.testing.assert_array_equal(weights, want_weights)
        np.testing.assert_array_equal(ops, want_ops)
    assert stacked.getstate() == scalar.getstate()


def test_c9_deviations_match_scalar_measures(report):
    """C9's stacked identities report the deviations the one-pair-at-a-time
    eigensolve and Helstrom measurement give on the same draws, to the
    printed digits."""
    rng = random.Random(20260810)
    worst_si = worst_hel = 0.0
    for _ in range(1000):
        r1 = density_from_bloch(one_state_at_a_time(rng, True))
        r2 = density_from_bloch(one_state_at_a_time(rng, True))
        d = trace_distances(r1.mat, r2.mat)
        l_opt = _eigen_optima(r1.bloch()[None], r2.bloch()[None])[0][0]
        worst_si = max(worst_si, abs(l_opt - 0.5 * (1 + d * d)))
    for _ in range(1000):
        r1 = density_from_bloch(one_state_at_a_time(rng, False))
        r2 = density_from_bloch(one_state_at_a_time(rng, False))
        lam, v = np.linalg.eigh(r1.mat - r2.mat)
        proj = (v[:, lam > 0] @ v[:, lam > 0].conj().T) if (lam > 0).any() else np.zeros((2, 2))
        explicit = 0.5 * float(
            np.trace(proj @ r1.mat).real + np.trace((np.eye(2) - proj) @ r2.mat).real
        )
        worst_hel = max(worst_hel, abs(helstrom_success_probability(r1, r2) - explicit))
    detail = {r.check_id: r.detail for r in report.results}["C9"]
    assert detail.startswith(
        f"optimal-measure identity dev {worst_si:.2e}, Helstrom dev {worst_hel:.2e}, ")


def test_c10_grid_deviation_matches_scalar_search(report):
    """C10's stacked grid search reports the deviation that the one-pair-at-a-time
    search gives on the same draws, to the printed digits."""
    rng = random.Random(42)
    _unique_candidates(rng, SOLVER_CHECKS)  # the solver candidates C10 draws first
    worst = 0.0
    for _ in range(200):
        r1, r2 = one_state_at_a_time(rng, False), one_state_at_a_time(rng, False)
        val = _eigen_optima(r1[None], r2[None])[0][0]
        worst = max(worst, abs(val - scalar_grid_search(r1, r2)))
    detail = {r.check_id: r.detail for r in report.results}["C10"]
    assert detail.endswith(f"grid-search deviation {worst:.2e}")


def with_nan(records, name, index=2):
    """records with field `name` of record `index` set to NaN: past the first
    record a check reduces, where a Python max or min would skip it."""
    return [r._replace(**{name: math.nan}) if i == index else r for i, r in enumerate(records)]


def patch_result(monkeypatch, name, change, module=selftest):
    """Replace module.<name> by a wrapper that passes its result through change."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))


def nan_row(a, index=1):
    a = np.array(a)
    a[index] = math.nan
    return a


def set_nonlocal(ctx, name):
    ctx._nonlocal = with_nan(Context().nonlocal_sweeps(), name)


def nan_past_first_row(monkeypatch, ctx):
    """C10's one damped-oracle call returns a NaN in a row past the first."""
    patch_result(monkeypatch, "damped_iteration", lambda d: SimpleNamespace(rho=nan_row(d.rho)))


# A NaN injected into one value past the first that each check reduces,
# and the detail the failed check then prints.
NAN_CASES = {
    "C1 loop": ("C1", lambda mp, ctx: patch_result(
        mp, "run_batch", lambda b: b._replace(loop=nan_row(b.loop)), deutsch),
        "worst trace distance nan"),
    "C4": ("C4", lambda mp, ctx: patch_result(
        mp, "nonlinearity_sweep", lambda recs: with_nan(recs, "L_qm")),
        "worst closed-form deviation nan"),
    "C6 L": ("C6", lambda mp, ctx: patch_result(
        mp, "reproduce", lambda recs: with_nan(recs, "L_ctc_sigma_z")),
        "worst |L-1| nan"),
    "C6 residual": ("C6", lambda mp, ctx: patch_result(
        mp, "reproduce", lambda recs: with_nan(recs, "fixed_point_residual")),
        "worst residual nan"),
    "C7": ("C7", lambda mp, ctx: set_nonlocal(ctx, "L_ctc_sigma_z"), "max L - 1/2 = nan"),
    "C9": ("C9", lambda mp, ctx: set_nonlocal(ctx, "L_ctc_optimal"), "plateau dev nan"),
    "C10 solver": ("C10", nan_past_first_row, "solver disagreement nan"),
    "C10 grid": ("C10", lambda mp, ctx: patch_result(mp, "grid_search_mismatches", nan_row),
                 "grid-search deviation nan"),
    "C11": ("C11", lambda mp, ctx: ctx.fidelities.extend([1.0, math.nan]), "minimum fidelity nan"),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_fails_its_check(case, monkeypatch):
    """A NaN anywhere in what a check reduces fails the check and shows in its
    detail: the reductions propagate NaN rather than skip it."""
    check_id, inject, shown = NAN_CASES[case]
    ctx = Context()
    inject(monkeypatch, ctx)
    passed, detail = {c: check for c, _, check in CHECKS}[check_id](ctx)
    assert not passed
    assert shown in detail

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
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import ctcsim.cli as cli
import ctcsim.selftest as selftest
from ctcsim.circuits import CircuitKind, CircuitSpec, build_interaction, depolarize
from ctcsim.cli import main
from ctcsim.deutsch import _kraus_stack, solve_fixed_point
from ctcsim.measures import helstrom_success_probability, optimal_mismatch_probability
from ctcsim.qmath import (
    DensityMatrix,
    PureQubit,
    ValidationError,
    bloch_from_density,
    density_from_bloch,
    trace_distance,
)
from ctcsim.selftest import (
    CHECKS,
    NONLOCAL_SWEEPS,
    CheckResult,
    Context,
    SelfTestReport,
    _unique_fixed_point_chunks,
)

CRITERIA = [check_id for check_id, _, _ in CHECKS] + ["C12"]


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


def test_relaxed_tolerance_override(capsys, monkeypatch):
    """--tol reaches the checks as a scale on every base tolerance (1e-12)."""
    scales = []

    def record_scale(tol_scale=1.0, echo=print):
        scales.append(tol_scale)
        return SelfTestReport([CheckResult(c, "", True, "", 0.0) for c in CRITERIA], 0.0)

    monkeypatch.setattr(cli, "run_selftest", record_scale)
    rc = main(["selftest", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tolerance scale: x1e+06" in out
    assert scales == [pytest.approx(1e6, rel=1e-12)]


def test_json_report(report, capsys, monkeypatch):
    """--json prints the run's per-check report instead of the text lines;
    the exit code still says whether every check passed."""
    calls = []
    failing = SelfTestReport([CheckResult("C4", "criterion C4", False, "detail C4", 0.25)], 1.5)

    def fake_run(tol_scale=1.0, echo=print):
        calls.append((tol_scale, echo))
        return report if len(calls) == 1 else failing

    monkeypatch.setattr(cli, "run_selftest", fake_run)
    assert main(["selftest", "--json", "--tol", "1e-10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert calls == [(pytest.approx(100.0), None)]
    assert data["tol_scale"] == pytest.approx(100.0)
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


def test_chunked_draw_matches_one_at_a_time_draw():
    """C10's chunked draw accepts the candidates, and leaves the generator in the
    state, of drawing and solving one candidate at a time."""
    count, chunk = 7, 3  # three chunks, the last one shorter
    one_at_a_time, chunked = np.random.default_rng(42), np.random.default_rng(42)
    expected = []
    while len(expected) < count:
        rng = one_at_a_time
        spec = CircuitSpec(
            kind=CircuitKind.SWAP_THEN_CU,
            theta_xz=rng.uniform(-math.pi / 2, math.pi / 2 - 1e-9),
            gate_noise=rng.uniform(0, 1),
            input_noise=rng.uniform(0, 1),
        )
        psi = PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        rho_in = depolarize(psi.density(), spec.input_noise)
        fp = solve_fixed_point(rho_in, build_interaction(spec))
        if fp.fixed_set_dimension == 1:
            expected.append((build_interaction(spec), rho_in.mat, fp.rho_ctc.bloch()))

    chunks = list(_unique_fixed_point_chunks(chunked, count, chunk))
    assert [len(c[1]) for c in chunks] == [3, 3, 1]
    weights, ops = (np.concatenate([c[0][i] for c in chunks]) for i in (0, 1))
    rho_in = np.concatenate([c[1] for c in chunks])
    loop = np.concatenate([c[2] for c in chunks])
    want_weights, want_ops = _kraus_stack([ch for ch, _, _ in expected])
    np.testing.assert_array_equal(weights, want_weights)
    np.testing.assert_array_equal(ops, want_ops)
    np.testing.assert_array_equal(rho_in, [m for _, m, _ in expected])
    np.testing.assert_allclose(loop, [r for _, _, r in expected], rtol=0, atol=1e-15)
    assert chunked.bit_generator.state == one_at_a_time.bit_generator.state


def test_nonlocal_sweeps_shared_by_c7_and_c9(monkeypatch):
    """C9 run alone solves the non-local sweeps; C7 after it reuses them, and
    their scenarios are counted once for C11."""
    calls = []
    real = selftest.discrimination_sweep

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selftest, "discrimination_sweep", counted)
    ctx = Context()
    assert selftest._check_supplement_identities(ctx)[0]
    assert calls == [("nonlocal", variant, n) for variant, n in NONLOCAL_SWEEPS]
    swept = sum(n for _, n in NONLOCAL_SWEEPS)
    assert len(ctx.fidelities) == swept
    assert selftest._check_nonlocal_ceiling(ctx)[0]
    assert len(calls) == len(NONLOCAL_SWEEPS)
    assert len(ctx.fidelities) == swept + 31  # C7's own 31 scenarios


def one_state_at_a_time(rng, pure):
    """Oracle: the draws of one random state, as C9 and C10 made them before
    they drew whole stacks (density matrix, as a (2, 2) array)."""
    if pure:
        return PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)).density().mat
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real).mat


@pytest.mark.parametrize("seed", [20260810, 42])
def test_stacked_draws_match_one_at_a_time(seed):
    """The stacked pairs are the one-at-a-time states bit for bit, leave the
    generator where the one-at-a-time draws do, and are DensityMatrix-exact."""
    stacked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for pure in (True, False):
        a, b = selftest._random_pairs(stacked, 500, pure)
        want = np.array([one_state_at_a_time(scalar, pure) for _ in range(1000)])
        np.testing.assert_array_equal(np.stack([a, b], axis=1).reshape(-1, 2, 2), want)
        for m in a:
            np.testing.assert_array_equal(DensityMatrix(m).mat, m)
    assert stacked.bit_generator.state == scalar.bit_generator.state


def draw_candidates_one_at_a_time(rng, n):
    """Oracle: C10's draw as it was made before it drew whole stacks, one
    CircuitSpec and one depolarized PureQubit density per candidate."""
    specs, states = [], []
    for theta, eps, p, cos_polar, phase in rng.uniform(selftest._CANDIDATE_LOW,
                                                       selftest._CANDIDATE_HIGH,
                                                       size=(n, 5)).tolist():
        specs.append(CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
                                 gate_noise=eps, input_noise=p))
        states.append(depolarize(PureQubit(math.acos(cos_polar), phase).density(), p))
    return specs, states


@pytest.mark.parametrize("seed", [42, 20260810])
def test_stacked_candidates_match_one_at_a_time(seed):
    """C10's stacked draw gives the one-at-a-time states, Bloch rows and
    build_interaction Kraus stacks bit for bit, and leaves the generator where
    the one-at-a-time draw does."""
    stacked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (200, 200, 37):
        rho_in, bloch, (weights, ops) = selftest._draw_candidates(stacked, n)
        specs, states = draw_candidates_one_at_a_time(scalar, n)
        np.testing.assert_array_equal(rho_in, [s.mat for s in states])
        np.testing.assert_array_equal(bloch, [s.bloch() for s in states])
        want_weights, want_ops = _kraus_stack([build_interaction(s) for s in specs])
        np.testing.assert_array_equal(weights, want_weights)
        np.testing.assert_array_equal(ops, want_ops)
    assert stacked.bit_generator.state == scalar.bit_generator.state


def test_checked_states_enforce_density_invariants():
    """The stacked draw's one check: rows within DensityMatrix's tolerances pass
    unchanged by its symmetrisation; one row off unit trace, non-Hermitian,
    negative or non-finite fails the stack."""
    a, b = selftest._random_pairs(np.random.default_rng(7), 8, pure=False)
    good = np.concatenate([a, b])
    np.testing.assert_array_equal(selftest._checked_states(good), good)
    shifted = np.diag([1e-9, 0.0])
    skew = np.array([[0.0, 1e-9], [0.0, 0.0]])
    negative = np.array([[1.0 + 1e-9, 0.0], [0.0, -1e-9]]) - good[3]
    for bad, match in ((shifted, "unit trace"), (skew, "Hermiticity"),
                       (negative, "positivity"), (np.full((2, 2), math.nan), "non-finite")):
        stack = good.copy()
        stack[3] += bad
        with pytest.raises(ValidationError, match=match):
            selftest._checked_states(stack)


def test_stacked_bloch_conversions_match_qmath():
    rng = np.random.default_rng(5)
    a, _ = selftest._random_pairs(rng, 64, pure=False)
    r = selftest._bloch_rows(a)
    np.testing.assert_array_equal(r, [bloch_from_density(DensityMatrix(m)) for m in a])
    np.testing.assert_array_equal(selftest._density_rows(r),
                                  [density_from_bloch(v).mat for v in r])


def test_c9_deviations_match_scalar_measures(report):
    """C9's stacked identities report the deviations the scalar measures give
    on the same draws, to the printed digits."""
    rng = np.random.default_rng(20260810)
    worst_si = worst_hel = 0.0
    for _ in range(1000):
        r1 = DensityMatrix(one_state_at_a_time(rng, True))
        r2 = DensityMatrix(one_state_at_a_time(rng, True))
        d = trace_distance(r1, r2)
        worst_si = max(worst_si, abs(optimal_mismatch_probability(r1, r2)[0] - 0.5 * (1 + d * d)))
    for _ in range(1000):
        r1 = DensityMatrix(one_state_at_a_time(rng, False))
        r2 = DensityMatrix(one_state_at_a_time(rng, False))
        lam, v = np.linalg.eigh(r1.mat - r2.mat)
        proj = (v[:, lam > 0] @ v[:, lam > 0].conj().T) if (lam > 0).any() else np.zeros((2, 2))
        explicit = 0.5 * float(
            np.trace(proj @ r1.mat).real + np.trace((np.eye(2) - proj) @ r2.mat).real
        )
        worst_hel = max(worst_hel, abs(helstrom_success_probability(r1, r2) - explicit))
    detail = {r.check_id: r.detail for r in report.results}["C9"]
    assert detail.startswith(
        f"optimal-measure identity dev {worst_si:.2e}, Helstrom dev {worst_hel:.2e}, ")

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
from ctcsim.deutsch import solve_fixed_point
from ctcsim.qmath import PureQubit
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
    assert [len(c[0]) for c in chunks] == [3, 3, 1]
    channels = [ch for c in chunks for ch in c[0]]
    rho_in = np.concatenate([c[1] for c in chunks])
    loop = np.concatenate([c[2] for c in chunks])
    assert all(ch is want for ch, (want, _, _) in zip(channels, expected, strict=True))
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

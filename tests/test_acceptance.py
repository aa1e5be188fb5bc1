"""Acceptance suite: every exit criterion at its pinned tolerance.

The criteria live in ctcsim.selftest (the same code the `ctcsim selftest`
command runs). The battery runs once per session, through the command
line, and each criterion is asserted individually from that run's report,
so `pytest -v` shows one pass/fail line per criterion. Run with -s to see
the timing and tolerance details.
"""

import io
import time
from contextlib import redirect_stdout

import pytest

import ctcsim.cli as cli
from ctcsim.cli import main
from ctcsim.selftest import CHECKS, CheckResult, SelfTestReport

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

"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/bench_checks.py
"""

from __future__ import annotations

import csv
import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE,
    WORKLOADS,
    PassResult,
    check_probes,
    check_reproduce,
    check_selftest,
    run_pass,
)


def _bench(workload: str, trace: int) -> tuple[dict, str]:
    """One run at reduced size: --seconds 0 gives a single pass of each kind."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _bench(w, 1)[0] for w in WORKLOADS}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_lists_what_run_prints():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result, text = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END + (("failed_frac", "ratio"),):
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in text.splitlines())


def test_traced_runs_print_every_per_layer_metric(traced_runs):
    for result in traced_runs.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)


# The workload on which each wrapped function is exercised.
EXERCISED_ON = {
    "experiments.decoherence_surface": "surface",
    "measures.grid_search_mismatch": "selftest",
    "experiments.discrimination_sweep": "catalog",
    "experiments.nonlinearity_sweep": "catalog",
    "experiments.find_threshold": "catalog",
    "cli.validate_records": "catalog",
    "cli.write_records_csv": "catalog",
}


def test_every_wrapped_function_records_calls(traced_runs):
    for name, _, _ in TRACED:
        workload = EXERCISED_ON.get(name, "probes")
        assert traced_runs[workload]["metrics"][f"{name}.calls"]["value"] > 0, (name, workload)
    assert traced_runs["selftest"]["metrics"]["deutsch.damped_iteration.calls"]["value"] > 0
    assert traced_runs["catalog"]["metrics"]["experiments.threshold_evals"]["value"] > 0
    assert traced_runs["catalog"]["metrics"]["deutsch.degenerate_frac"]["value"] > 0
    for i in range(1, 12):
        assert traced_runs["selftest"]["metrics"][f"selftest.C{i}_s"]["value"] > 0


def test_layer_counts_repeat_across_traced_runs(traced_runs):
    counted = [name for name, unit in run.PER_LAYER if unit in ("count", "ratio", "B")
               and name != "trace.overhead_frac"]
    for workload in WORKLOADS:
        again = _bench(workload, 1)[0]
        first = {k: traced_runs[workload]["metrics"][k]["value"] for k in counted}
        second = {k: again["metrics"][k]["value"] for k in counted}
        assert first == second, workload


def test_tracer_restores_every_binding(tmp_path):
    import ctcsim.cli as cli
    import ctcsim.qmath as qmath

    before = (cli.run_scenario, cli.write_records_csv, qmath.DensityMatrix.__init__)
    tracer = Tracer()
    run_pass("surface", 1, tmp_path, tracer)
    assert (cli.run_scenario, cli.write_records_csv, qmath.DensityMatrix.__init__) == before
    assert tracer.layer_metrics()["deutsch.run_scenario.calls"] > 0


# ------------------------------------------------------------ correctness gate

def _copy_reference(target: str, dest: Path, edit=None) -> None:
    with gzip.open(REFERENCE / f"{target}.csv.gz", "rt", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if edit:
        edit(rows)
    with open(dest / f"{target}.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _gate(target: str, tmp_path: Path, edit=None, value=0) -> PassResult:
    _copy_reference(target, tmp_path, edit)
    res = PassResult()
    check_reproduce(res, [target], [(f"cli.reproduce.{target}", value)], tmp_path)
    return res


def _set(row: int, column: str, value):
    def edit(rows):
        rows[row + 1][rows[0].index(column)] = value(rows[row + 1][rows[0].index(column)])
    return edit


def test_reference_copy_passes_the_gate(tmp_path):
    res = _gate("fig6", tmp_path)
    assert res.attempted == 1681 and res.failed == 0


@pytest.mark.parametrize("target, edit", [
    ("fig6", _set(100, "L_ctc_sigma_z", lambda v: repr(float(v) + 1e-6))),
    ("fig6", _set(5, "fixed_set_dimension", lambda v: "2")),
    ("fig5c", _set(0, "prep_mode", lambda v: "improper")),
    ("fig3", lambda rows: rows.pop()),
    ("thresholds", _set(1, "crossing", lambda v: repr(float(v) + 1e-8))),
])
def test_perturbed_output_is_a_failed_operation(tmp_path, target, edit):
    res = _gate(target, tmp_path, edit)
    assert res.failed / res.attempted > 0


def test_tolerance_admits_last_place_differences(tmp_path):
    res = _gate("fig6", tmp_path, _set(7, "D_ctc", lambda v: repr(float(v) * (1 + 4e-16))))
    assert res.failed == 0


def test_failed_command_fails_every_row(tmp_path):
    res = _gate("fig5a", tmp_path, value=4)
    assert res.failed == res.attempted == 32


def test_probe_invariants_gate(tmp_path):
    class FP:
        residual, fixed_set_dimension = 1e-8, 1

    class Scenario:
        fixed_point, consistency_fidelity = FP(), 1.0

    class QM:
        L_optimal = trace_dist = 0.5

    outcomes = [("probe", ([Scenario()], 0.2, 0.3, 0.4, 0.7, QM()))]
    res = PassResult()
    check_probes(res, outcomes, tmp_path, 9)
    assert res.failed == 1 and res.attempted == 1


def test_selftest_criterion_failure_is_counted():
    from ctcsim.selftest import CheckResult, SelfTestReport

    results = [CheckResult(f"C{i}", "", i != 8, "", 0.1) for i in range(1, 13)]
    res = PassResult()
    check_selftest(res, [("cli.selftest", (1, [SelfTestReport(results, 1.0)]))])
    assert res.attempted == 12 and res.failed == 12  # non-zero exit fails them all
    res = PassResult()
    check_selftest(res, [("cli.selftest", (0, [SelfTestReport(results, 1.0)]))])
    assert res.attempted == 12 and res.failed == 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "surface",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout

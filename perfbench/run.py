"""ctcsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each is there and which layer it
exercises): surface (`reproduce fig6`), catalog (the other `reproduce`
targets), probes (seeded single-point `discriminate`-style requests) and
selftest (`ctcsim selftest`). One client sends each request after the
previous one returned (closed loop); CTCSIM_THREADS is removed from the
environment, so every workload runs single-threaded.

Every pass runs in a fresh worker process (worker.py), as a user's command
would. Between passes the run times the cold starts for setup_s, each
followed by a bare start of an interpreter that imports only numpy, which
calibrates them; passes and starts go on until --seconds have passed. The
times of each request are calibrated against a fixed kernel that a sampler
process times while it runs (calibrate.py), and reported as the median
over passes. With --trace 0 the last line of output holds the
end-to-end metrics; with --trace 1 passes alternate untraced and traced,
and it holds the per-layer metrics and the tracing overhead. Lines before
it print every metric with its unit, the seed, failed_frac and the
environment; the same is written to .perfbench/result-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import CATALOG_TARGETS, DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_STARTS = 16
THREAD_VARS = ("CTCSIM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_TIMED = (
    "qmath.DensityMatrix", "circuits.build_interaction",
    "deutsch.run_scenario", "deutsch.solve_fixed_point", "deutsch.superoperator",
    "deutsch.consistency_map", "deutsch.evolve_output",
    "measures.optimal_mismatch_probability", "measures.mismatch_probability",
    "measures.trace_distance", "measures.helstrom_success_probability",
    "measures.qm_baseline", "measures.grid_search_mismatch",
    "experiments.decoherence_surface", "experiments.discrimination_sweep",
    "experiments.nonlinearity_sweep", "experiments.find_threshold",
    "cli.validate_records", "cli.write_records_csv",
)
PER_LAYER = tuple(
    [(f"{n}.{k}", u) for n in _TIMED for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("circuits.interaction_distinct_frac", "ratio"),
        ("deutsch.degenerate_frac", "ratio"),
        ("deutsch.scenario_distinct_frac", "ratio"),
        ("deutsch.damped_iteration.calls", "count"),
        ("measures.qm_baseline_distinct_frac", "ratio"),
        ("experiments.threshold_evals", "count"),
        ("cli.csv_bytes", "B"),
    ]
    + [(f"cli.reproduce.{t}_s", "s") for t in ("fig6",) + CATALOG_TARGETS]
    + [(f"selftest.C{i}_s", "s") for i in range(1, 12)]
    + [("trace.overhead_frac", "ratio")]
)

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CTCSIM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = (
    "import time, ctcsim\n"
    "from ctcsim.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.perf_counter()))\n"
)


def cold_start(env: dict, code: str = SETUP_CODE) -> float:
    """Seconds from starting a cold interpreter until `code` (by default: `import ctcsim`
    and build_parser()) has run.

    perf_counter is the system-wide monotonic clock on Linux, so the
    child's reading at the end is comparable with ours at the start.
    """
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"cannot import ctcsim from {SRC}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - t0


def run_worker(env: dict, workload: str, seed: int, trace: int, spans: Path) -> dict:
    """One pass in a fresh process."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(WORK / f"pass-{os.getpid()}")]
    if trace:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_request(passes: list[dict]) -> list[float]:
    """Median calibrated time of each request over the passes, which repeat the same requests."""
    return [statistics.median(ts) for ts in zip(*(p["calibrated_s"] for p in passes))]


def wall(passes: list[dict]) -> float:
    return statistics.median(sum(p["calibrated_s"]) for p in passes)


def end_to_end(setup: list[tuple[float, float]], passes: list[dict]) -> dict[str, float]:
    requests, wall_s = per_request(passes), wall(passes)
    ctcsim, bare = (statistics.median(ts) for ts in zip(*setup))
    return {
        "setup_s": ctcsim * calibrate.START_REFERENCE_S / bare,
        "wall_s": wall_s,
        "records_per_s": passes[0]["records"] / wall_s,
        "requests_per_s": len(requests) / wall_s,
        "request_p50_ms": quantile(requests, 50) * 1e3,
        "request_p99_ms": quantile(requests, 99) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    out, notes = {}, []
    for name, unit in PER_LAYER:
        if name not in traced[0]["layers"]:
            continue
        if unit == "s":
            out[name] = statistics.median(p["layers"][name] * p["factor"] for p in traced)
        else:
            # Counts and ratios of counts are exact: every traced pass must agree.
            values = [p["layers"][name] for p in traced]
            if len(set(values)) > 1:
                notes.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
    out["cli.csv_bytes"] = plain[0]["csv_bytes"]
    # Per-target time of each `reproduce` command, from the untraced passes.
    targets = {"surface": ("fig6",), "catalog": CATALOG_TARGETS}.get(workload, ())
    requests = per_request(plain)
    for t in ("fig6",) + CATALOG_TARGETS:
        out[f"cli.reproduce.{t}_s"] = requests[targets.index(t)] if t in targets else 0.0
    for i in range(1, 12):
        cid = f"C{i}"
        out[f"selftest.{cid}_s"] = statistics.median(
            p["criteria_s"].get(cid, 0.0) * p["factor"] for p in plain)
    out["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    return out, notes


def _git_revision() -> str:
    """Commit of the checkout, with a -dirty suffix if tracked files differ from it."""
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_WORK_TREE=str(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(env: dict, nproc: int) -> dict:
    """Versions and settings a result depends on; thread variables as the workload sees them."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: blas[k] for k in ("blas", "lapack") if k in blas}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "nproc": nproc,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: env[k] for k in THREAD_VARS if k in env},
        "CTCSIM_THREADS_removed": os.environ.get("CTCSIM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ctcsim benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ctcsim" / "__init__.py").is_file():
        print(f"ctcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    # One CPU for everything this run starts, so that the calibration sampler
    # meets the machine the passes meet (calibrate.py).
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = WORK / f"spans-{stem}.tsv"

    cold_start(env)  # may compile bytecode; not counted
    cold_start(env, calibrate.BARE_START_CODE)
    setup, plain, traced = [], [], []
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or not plain or (args.trace and not traced)):
            trace = int(args.trace and len(traced) < len(plain))
            result = run_worker(env, args.workload, args.seed, trace, spans)
            (traced if trace else plain).append(result)
            # Spread the cold starts over the run, so that they meet the same machine as the passes.
            share = min(1.0, (time.perf_counter() - start) / args.seconds) if args.seconds else 1.0
            while len(setup) < SETUP_STARTS * share:
                setup.append((cold_start(env), cold_start(env, calibrate.BARE_START_CODE)))

    passes = plain + traced
    for p in passes:
        p["calibrated_s"] = [sampler.calibrate(t0, t0 + t)
                             for t0, t in zip(p["starts_s"], p["latencies_s"])]
        p["factor"] = sum(p["calibrated_s"]) / p["wall_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = end_to_end(setup, plain)
    raw_wall_s = statistics.median(p["wall_s"] for p in plain)
    units = dict(END_TO_END)
    notes = [msg for p in passes for msg in p["problems"]]
    if args.trace:
        layer, layer_notes = per_layer(args.workload, plain, traced)
        notes += layer_notes
        metrics.update(layer)
        units.update(PER_LAYER)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setup_starts_s": {"ctcsim": [c for c, _ in setup], "bare": [b for _, b in setup]},
        "raw_wall_s": [p["wall_s"] for p in passes],
        "calibration_factor": [p["factor"] for p in passes],
        "kernel_samples": sampler.samples,
        "problems": notes[:50],
        "environment": environment(env, nproc),
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  ({attempted} operations checked)")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:14.6g} ratio")
    print(f"  {'setup_s before calibration':44s} {statistics.median(c for c, _ in setup):14.6g} s")
    print(f"  {'wall_s before calibration':44s} {raw_wall_s:14.6g} s")
    if not 0.5 <= metrics["wall_s"] / raw_wall_s <= 2.0:
        print("  warning: calibration changed wall_s by more than 2x; the machine was"
              " much slower or faster than the reference, so compare the raw times too")
    for msg in notes[:10]:
        print(f"  problem: {msg}")
    print("environment " + json.dumps(record["environment"]))
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

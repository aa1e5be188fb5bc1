"""The benchmark's workloads and the correctness gate on their outputs.

A pass of a workload is a fixed list of requests, each a call a client
makes and waits for (closed loop, one client). The requests are built
before the clock starts, so the program receives only generated specs,
states and command lines. After the timed part, the pass's outputs are
checked: every output row (a CSV record, a probe result, a selftest
criterion) is one operation, and a request that raises or exits non-zero
fails all the rows it should have produced.

Reference tables were generated once by `make_reference.py`. They are
compared to a tolerance, not byte for byte, so that an engine whose floats
differ in the last place still passes.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import resource
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("surface", "catalog", "probes", "selftest")
REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1
PROBES_PER_PASS = 2000
# The mix of preparations in the paper's discrimination experiments: the
# fig5a-c, s1 and s2 tables have 384 local and 480 non-local rows.
LOCAL_SHARE = 384 / (384 + 480)
ABS_TOL = 1e-9
DISCRETE = {"experiment_id", "prep_mode", "n_iterations", "fixed_set_dimension", "parameter"}
CATALOG_TARGETS = ("fig3", "fig5a", "fig5b", "fig5c", "s1", "s2", "thresholds")
THRESHOLDS = {"p": math.sqrt(2.0) - 1.0, "epsilon": 1.0 / 3.0}
PROBE_FIELDS = ("index", "prep_mode", "theta_xz", "epsilon", "p", "phi", "phase",
                "L_sigma_z", "L_optimal", "D", "p_succ", "L_qm", "D_qm",
                "fixed_point_residual", "consistency_fidelity", "fixed_set_dimension")
SELFTEST_CRITERIA = tuple(f"C{i}" for i in range(1, 13))


@dataclass
class PassResult:
    """What one pass measured, and how many of its operations failed."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    starts_s: list[float] = field(default_factory=list)  # perf_counter at each request's start
    records: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    csv_bytes: int = 0
    peak_rss_mb: float = 0.0
    criteria_s: dict[str, float] = field(default_factory=dict)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------- tables

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_table(got: Path, ref: Path) -> tuple[int, list[str]]:
    """Rows of `ref` not matched by `got`: discrete columns exactly, the rest within ABS_TOL."""
    ref_header, ref_rows = read_table(ref)
    if not got.exists():
        return len(ref_rows), [f"{got.name}: not written"]
    header, rows = read_table(got)
    if header != ref_header:
        return len(ref_rows), [f"{got.name}: header {header} != {ref_header}"]
    bad, problems = 0, []
    if len(rows) != len(ref_rows):
        problems.append(f"{got.name}: {len(rows)} rows, reference has {len(ref_rows)}")
    for i, want in enumerate(ref_rows):
        row = rows[i] if i < len(rows) else None
        mismatch = row is None or len(row) != len(want) or any(
            a != b if name in DISCRETE else not abs(float(a) - float(b)) <= ABS_TOL
            for name, a, b in zip(header, row, want)
        )
        if mismatch:
            bad += 1
            if len(problems) < 5:
                problems.append(f"{got.name} row {i}: {row} != reference {want}")
    return bad, problems


def write_table(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in r] for r in rows)


# --------------------------------------------------------------- requests
# Each builder returns [(span name, callable, args)] for one pass.

def reproduce_requests(cli, targets, out_dir: Path) -> list:
    return [(f"cli.reproduce.{t}", cli.main, (["reproduce", t, "--out", str(out_dir / f"{t}.csv")],))
            for t in targets]


def probe_params(seed: int) -> list[tuple]:
    """Seeded single-point requests: (local?, theta, epsilon, p, phi, phase)."""
    n = PROBES_PER_PASS
    rng = np.random.default_rng(seed)
    # The seed places LOCAL_SHARE local (two solves) and the rest non-local
    # (one solve) preparations among the requests; the count is fixed, so
    # every seed sends the same mix.
    local = rng.permutation(n) < round(LOCAL_SHARE * n)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, n)
    eps = rng.uniform(0.0, 1.0, n)
    p = rng.uniform(0.0, 1.0, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    phase = rng.uniform(0.0, 2 * math.pi, n)
    return [(bool(lo), float(t), float(e), float(q), float(f), float(h))
            for lo, t, e, q, f, h in zip(local, theta, eps, p, phi, phase)]


def probe_requests(cli, seed: int) -> list:
    from ctcsim.circuits import CircuitKind, CircuitSpec
    from ctcsim.deutsch import LocalPure, NonLocalEnsemble
    from ctcsim.qmath import PureQubit

    def discriminate(spec, preps, phi, dep):
        # The work of `ctcsim discriminate`: solve, evolve, score both outputs.
        scenarios = [cli.run_scenario(spec, prep) for prep in preps]
        o0, o1 = [o for s in scenarios for o in s.rho_out_per_input]
        l_opt, _ = cli.optimal_mismatch_probability(o0, o1)
        return (
            scenarios,
            cli.mismatch_probability(o0, o1, cli.SIGMA_Z_AXIS),
            l_opt,
            cli.trace_distance(o0, o1),
            cli.helstrom_success_probability(o0, o1),
            cli.qm_baseline(phi, dep),
        )

    requests = []
    for local, theta, eps, dep, phi, phase in probe_params(seed):
        spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
                           gate_noise=eps, input_noise=dep)
        psi0, psi1 = PureQubit(0.0, 0.0), PureQubit(phi, phase)
        preps = ((LocalPure(psi0), LocalPure(psi1)) if local
                 else (NonLocalEnsemble((psi0, psi1), (0.5, 0.5)),))
        requests.append(("probe", discriminate, (spec, preps, phi, dep)))
    return requests


def selftest_requests(cli) -> list:
    def selftest():
        # `ctcsim selftest`, keeping the report the command prints from.
        reports = []
        real = cli.run_selftest

        def keep_report(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        cli.run_selftest = keep_report
        try:
            return cli.main(["selftest"]), reports
        finally:
            cli.run_selftest = real

    return [("cli.selftest", selftest, ())]


def build_requests(cli, workload: str, seed: int, out_dir: Path) -> list:
    if workload == "surface":
        return reproduce_requests(cli, ["fig6"], out_dir)
    if workload == "catalog":
        return reproduce_requests(cli, CATALOG_TARGETS, out_dir)
    if workload == "probes":
        return probe_requests(cli, seed)
    if workload == "selftest":
        return selftest_requests(cli)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- checks

def _request_failed(res: PassResult, name: str, value, rows: int) -> bool:
    code = value[0] if isinstance(value, tuple) else value
    if isinstance(code, BaseException) or code != 0:
        res.attempted += rows
        res.fail(rows, f"{name}: returned {code!r}")
        return True
    return False


def check_reproduce(res: PassResult, targets, outcomes, out_dir: Path) -> None:
    """Each emitted table against its reference, plus the record invariants."""
    from ctcsim.cli import read_records_csv
    from ctcsim.experiments import validate_records

    for target, (name, value) in zip(targets, outcomes):
        path, ref = out_dir / f"{target}.csv", REFERENCE / f"{target}.csv.gz"
        n_ref = len(read_table(ref)[1])
        if path.exists():
            res.csv_bytes += path.stat().st_size
            res.records += len(read_table(path)[1])
        if _request_failed(res, name, value, n_ref):
            continue
        res.attempted += n_ref
        bad, problems = compare_table(path, ref)
        if bad:
            res.fail(bad, "; ".join(problems))
        elif target == "thresholds":
            for parameter, crossing, *_ in read_table(path)[1]:
                dev = abs(float(crossing) - THRESHOLDS[parameter])
                if not dev <= ABS_TOL:
                    res.fail(1, f"threshold {parameter}* = {crossing}, off by {dev:.3e}")
        else:
            invalid = [r for r in read_records_csv(str(path)) if validate_records([r])]
            if invalid:
                res.fail(len(invalid), f"{target}: {len(invalid)} rows fail validate_records")


def _probe_violation(l_z, l_opt, d, p_succ, resid, fid) -> str:
    if not resid <= 1e-10:
        return f"fixed-point residual {resid:.3e} > 1e-10"
    if not fid >= 1.0 - 1e-9:
        return f"consistency fidelity {fid!r} < 1 - 1e-9"
    for label, v in (("L_sigma_z", l_z), ("L_optimal", l_opt), ("D", d), ("p_succ", p_succ)):
        if not -1e-12 <= v <= 1.0 + 1e-12:
            return f"{label} = {v!r} outside [0, 1]"
    if not abs(p_succ - 0.5 * (1.0 + d)) <= 1e-12:
        return f"Helstrom p_succ {p_succ!r} != (1 + D)/2"
    if not l_opt >= l_z - 1e-12:
        return f"optimized L {l_opt!r} below the sigma-z L {l_z!r}"
    return ""


def check_probes(res: PassResult, outcomes, out_dir: Path, seed: int) -> None:
    """Invariants on every probe; the default seed is also held to its reference."""
    rows = []
    for i, ((_, value), params) in enumerate(zip(outcomes, probe_params(seed))):
        res.attempted += 1
        if isinstance(value, BaseException):
            res.fail(1, f"probe {i}: raised {value!r}")
            continue
        scenarios, l_z, l_opt, d, p_succ, qm = value
        resid = max(s.fixed_point.residual for s in scenarios)
        fid = min(s.consistency_fidelity for s in scenarios)
        dim = max(s.fixed_point.fixed_set_dimension for s in scenarios)
        why = _probe_violation(l_z, l_opt, d, p_succ, resid, fid)
        if why:
            res.fail(1, f"probe {i}: {why}")
        local, theta, eps, dep, phi, phase = params
        rows.append((i, "local_pure" if local else "nonlocal_ensemble", theta, eps, dep,
                     phi, phase, l_z, l_opt, d, p_succ, qm.L_optimal, qm.trace_dist,
                     resid, fid, dim))
    res.records += len(rows)
    path = out_dir / "probes.csv"
    write_table(path, PROBE_FIELDS, rows)
    ref = REFERENCE / f"probes-seed{seed}.csv.gz"
    if res.failed == 0 and ref.exists():
        bad, problems = compare_table(path, ref)
        if bad:
            res.fail(bad, "; ".join(problems))


def check_selftest(res: PassResult, outcomes) -> None:
    """Every criterion, C12 included, must PASS in the report the command printed."""
    n = len(SELFTEST_CRITERIA)
    res.records += n
    name, value = outcomes[0]
    if _request_failed(res, name, value, n):
        return
    res.attempted += n
    reports = value[1]
    results = {r.check_id: r for r in reports[0].results} if len(reports) == 1 else {}
    for cid in SELFTEST_CRITERIA:
        r = results.get(cid)
        if r is None or not r.passed:
            res.fail(1, f"{cid}: {'missing' if r is None else r.detail}")
        if r is not None and cid != "C12":
            res.criteria_s[cid] = r.elapsed


def check_pass(res: PassResult, workload: str, outcomes, out_dir: Path, seed: int) -> None:
    if workload == "surface":
        check_reproduce(res, ["fig6"], outcomes, out_dir)
    elif workload == "catalog":
        check_reproduce(res, CATALOG_TARGETS, outcomes, out_dir)
    elif workload == "probes":
        check_probes(res, outcomes, out_dir, seed)
    else:
        check_selftest(res, outcomes)


# ------------------------------------------------------------------- pass

def run_pass(workload: str, seed: int, out_dir: Path, tracer=None) -> PassResult:
    """Build the requests, time them one after another, then check the outputs."""
    import ctcsim.cli as cli

    requests = build_requests(cli, workload, seed, out_dir)
    res = PassResult()
    outcomes = []
    sink = io.StringIO()
    if tracer:
        tracer.install()
    try:
        for name, fn, args in requests:
            t0 = time.perf_counter()
            try:
                with tracer.span(name) if tracer else nullcontext(), redirect_stdout(sink):
                    value = fn(*args)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed request
                value = exc
            res.starts_s.append(t0)
            res.latencies_s.append(time.perf_counter() - t0)
            outcomes.append((name, value))
        res.wall_s = sum(res.latencies_s)
        # Linux reports ru_maxrss in KiB; read it before the checks allocate.
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()
    check_pass(res, workload, outcomes, out_dir, seed)
    return res

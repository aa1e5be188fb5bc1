"""The `ctcsim` command line; `ctcsim --help` lists its commands.

CSV files are byte-deterministic for a fixed configuration: fixed field order,
17-significant-digit floats, UTF-8. Exit codes: 2 invalid parameters, a file
that cannot be written included (refused with nothing written), 3 solver
non-convergence, 4 a record invariant violation or no threshold crossing, 1 a
failed selftest.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import typing

from .circuits import _FAMILIES, CircuitKind, CircuitSpec
from .deutsch import (
    ConvergenceError,
    ImproperMixed,
    LocalPure,
    NonLocalEnsemble,
    run_scenario,
)
from .experiments import (
    MODES,
    VARIANTS,
    SweepRecord,
    ThresholdNotFound,
    ThresholdResult,
    discrimination_sweep,
    find_thresholds,
    reproduce,
    validate_records,
)
from .measures import (
    SIGMA_Z_AXIS,
    helstrom_success_probability,
    mismatch_probability,
    optimal_mismatch_probability,
    qm_baseline,
)
from .qmath import PureQubit, ValidationError, trace_distance
from .selftest import run_selftest

RECORD_FIELDS = list(SweepRecord._fields)
# Column types: postponed evaluation leaves the annotations as forward
# references, which get_type_hints resolves to the classes.
_RECORD_TYPES = list(typing.get_type_hints(SweepRecord).values())
# One CSV row per template: 17 significant digits for float fields.
_RECORD_ROW = ",".join("%.17g" if t is float else "%s" for t in _RECORD_TYPES) + "\n"
THRESHOLD_FIELDS = ["parameter", "crossing", "bracket_lo", "bracket_hi", "achieved_tolerance"]
_THRESHOLD_ROW = "%s,%.17g,%.17g,%.17g,%.17g\n"

REPRODUCE_TARGETS = ("fig3", "fig5a", "fig5b", "fig5c", "fig6", "s1", "s2", "thresholds")


def _open_out(path: str):
    """path opened for writing; a path that cannot be opened is invalid input."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def write_records_csv(records: list[SweepRecord], path: str) -> None:
    rows = "".join(_RECORD_ROW % r for r in records)
    with _open_out(path) as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        fh.write(rows)  # not appended to the header: that would copy the whole table


def read_records_csv(path: str) -> list[SweepRecord]:
    """Parse a CSV written by this tool back into identical records."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if rows[0] != RECORD_FIELDS:
        raise ValidationError(f"unexpected CSV header {rows[0]}")
    return [SweepRecord._make(cast(v) for cast, v in zip(_RECORD_TYPES, row)) for row in rows[1:]]


def _write_json(data, path: str) -> None:
    import json

    with _open_out(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_thresholds_csv(results: list[ThresholdResult], path: str) -> None:
    rows = "".join(_THRESHOLD_ROW % (t.parameter, t.crossing, *t.bracket, t.achieved_tolerance)
                   for t in results)
    with _open_out(path) as fh:
        fh.write(",".join(THRESHOLD_FIELDS) + "\n" + rows)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _signed(v: float, digits: int = 6) -> str:
    """v with an explicit sign to `digits` decimals; a value that rounds to
    zero prints as +0, whatever the sign roundoff gave it."""
    return f"{round(float(v), digits) + 0.0:+.{digits}f}"


def _print_state(label: str, dm) -> None:
    m = dm.mat
    print(f"{label}:")
    for row in m:
        print("   [" + "  ".join(f"{_signed(v.real)}{_signed(v.imag)}j" for v in row) + "]")
    print("   Bloch: (" + ", ".join(_signed(c) for c in dm.bloch()) + ")")


def _build_spec(args) -> CircuitSpec:
    kind = CircuitKind(args.circuit)
    if _FAMILIES[kind].angle_range is None:
        if args.theta is not None:
            raise ValidationError(f"--theta sets the CU_xz axis; the {kind.value} circuit has none")
        theta = 0.0
    else:
        theta = math.pi / 4 if args.theta is None else _angle(args.theta, args.deg)
    return CircuitSpec(kind=kind, theta_xz=theta, gate_noise=args.epsilon, input_noise=args.p)


def _build_prep(args, psi: PureQubit):
    if args.prep == "local":
        return LocalPure(psi)
    if args.prep == "improper":
        return ImproperMixed(psi.density())
    return NonLocalEnsemble((PureQubit(0.0, 0.0), psi), (0.5, 0.5))


def cmd_fixed_point(args) -> int:
    psi = PureQubit(_angle(args.phi, args.deg), _angle(args.phase, args.deg))
    spec = _build_spec(args)
    res = run_scenario(spec, _build_prep(args, psi), method=args.method)
    fp = res.fixed_point
    if args.out is not None:
        _write_json({
            "rho_ctc": [["%.17g" % v.real, "%.17g" % v.imag] for v in fp.rho_ctc.mat.reshape(-1)],
            "residual": fp.residual,
            "fixed_set_dimension": fp.fixed_set_dimension,
            "entropy": fp.entropy,
            "consistency_fidelity": res.consistency_fidelity,
        }, args.out)
    _print_state("rho_ctc", fp.rho_ctc)
    print(f"residual:            {fp.residual:.3e}")
    print(f"fixed_set_dimension: {fp.fixed_set_dimension}"
          + ("   (degenerate: entropy maximizer returned)" if fp.fixed_set_dimension > 1 else ""))
    print(f"entropy:             {fp.entropy:.12f}")
    print(f"consistency fidelity: {res.consistency_fidelity:.12f}")
    for i, out in enumerate(res.rho_out_per_input):
        _print_state(f"rho_out[{i}]", out)
    return 0


def cmd_discriminate(args) -> int:
    psi0, psi1 = PureQubit(0.0, 0.0), PureQubit(_angle(args.phi, args.deg),
                                                 _angle(args.phase, args.deg))
    # The optimal gate angle (phi - pi)/2 lies in the sweep range for phi in [0, 2pi).
    phi = psi1.polar
    theta = _angle(args.theta, args.deg) if args.theta is not None else (phi - math.pi) / 2
    spec = CircuitSpec(
        kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
        gate_noise=args.epsilon, input_noise=args.p,
    )
    # One loop per locally prepared state; one shared loop for the ensemble.
    preps = ([NonLocalEnsemble((psi0, psi1), (0.5, 0.5))] if args.prep == "nonlocal"
             else [LocalPure(psi0), LocalPure(psi1)])
    scenarios = [run_scenario(spec, prep) for prep in preps]
    o0, o1 = [out for res in scenarios for out in res.rho_out_per_input]
    if args.prep == "nonlocal":
        print(f"shared rho_ctc solved (fixed_set_dimension={scenarios[0].fixed_point.fixed_set_dimension})")
    _print_state("output for psi0 = |H>", o0)
    _print_state(f"output for psi1(phi={phi:.6f})", o1)
    l_z = mismatch_probability(o0, o1, SIGMA_Z_AXIS)
    l_opt, axis = optimal_mismatch_probability(o0, o1)
    qm = qm_baseline(phi, args.p)
    print(f"L(sigma_z)  = {l_z:.12f}")
    print(f"L(optimal)  = {l_opt:.12f}  axis (" + ", ".join(_signed(c, 4) for c in axis.axis) + ")")
    print(f"D           = {trace_distance(o0, o1):.12f}")
    print(f"p_succ      = {helstrom_success_probability(o0, o1):.12f}")
    print(f"QM baseline: L = {qm.L_optimal:.12f}, D = {qm.trace_dist:.12f}, p_succ = {qm.p_succ_optimal:.12f}")
    return 0


def _emit(args, stem: str, rows: list, plot=None) -> int:
    """Write the rows (records or thresholds) as the table at --out, default
    <stem>.<format>, and with --plot the SVG of plot()'s (series, title, x_label,
    y_label) beside it, then print a `wrote` line for each. Records that break an
    invariant are reported and not written (exit 4); a path that cannot be written
    refuses the run with nothing written or printed."""
    path = f"{stem}.{args.format}" if args.out is None else args.out
    plot_path = os.path.splitext(path)[0] + ".svg"
    if args.plot and plot_path == path:
        raise ValidationError(f"--plot would write its SVG over the table {path}")
    thresholds = isinstance(rows[0], ThresholdResult)
    problems = [] if thresholds else validate_records(rows)
    if problems:
        for msg in problems[:10]:
            print(f"INVARIANT VIOLATION: {msg}", file=sys.stderr)
        return 4
    if args.plot:
        from .svgplot import svg

        text = svg(*plot())
        plot_fh = _open_out(plot_path)
    try:
        if args.format == "json":
            _write_json([r._asdict() for r in rows], path)
        else:
            (write_thresholds_csv if thresholds else write_records_csv)(rows, path)
    except ValidationError:
        if args.plot:
            plot_fh.close()
            os.remove(plot_path)
        raise
    if thresholds:
        for t in rows:
            print(f"{t.parameter}* = {t.crossing:.9f} (bracket {t.bracket}, tol {t.achieved_tolerance:.1e})")
        print(f"wrote thresholds to {path}")
    else:
        print(f"wrote {len(rows)} records to {path}")
    if args.plot:
        with plot_fh:
            plot_fh.write(text)
        print(f"wrote plot to {plot_path}")
    return 0


def cmd_sweep(args) -> int:
    records = discrimination_sweep(args.prep, args.variant, args.grid)
    x_name = "theta_xz" if args.variant == "fixed-state" else "phi"
    xs = [getattr(r, x_name) for r in records]
    return _emit(args, f"sweep-{args.variant}-{args.prep}", records, lambda: (
        [("L loop (sigma_z)", xs, [r.L_ctc_sigma_z for r in records]),
         ("L standard QM", xs, [r.L_qm for r in records])],
        f"{args.variant} sweep ({args.prep})", f"{x_name} [rad]", "mismatch probability"))


def _plot_reproduction(target: str, records: list[SweepRecord]):
    """The plot of a reproduce target: (series, title, x_label, y_label)."""
    if target == "fig3":
        base = [r for r in records if r.n_iterations == 1 and r.phase == 0.0]
        xs = [r.phi for r in base]
        series = [
            ("L loop", xs, [r.L_ctc_sigma_z for r in base]),
            ("L standard QM", xs, [r.L_qm for r in base]),
            ("D loop", xs, [r.D_ctc for r in base]),
            ("D standard QM", xs, [r.D_qm for r in base]),
        ]
        return series, "nonlinear evolution", "phi [rad]", "distinguishability"
    if target == "fig6":
        line_e0 = [r for r in records if r.epsilon == 0.0]
        line_p0 = [r for r in records if r.p == 0.0]
        series = [
            ("loop vs p (eps=0)", [r.p for r in line_e0], [r.L_ctc_sigma_z for r in line_e0]),
            ("QM vs p", [r.p for r in line_e0], [r.L_qm for r in line_e0]),
            ("loop vs eps (p=0)", [r.epsilon for r in line_p0], [r.L_ctc_sigma_z for r in line_p0]),
        ]
        return (series, "decoherence response at the working point", "noise strength",
                "mismatch probability")
    quantity = {
        "s2": ("p_succ_ctc", "p_succ_qm", "success probability"),
        "s1": ("L_ctc_optimal", "L_qm", "mismatch probability"),
    }.get(target, ("L_ctc_sigma_z", "L_qm", "mismatch probability"))
    blocks: dict[str, list[SweepRecord]] = {}
    for r in records:
        blocks.setdefault(r.experiment_id, []).append(r)
    series = []
    for eid in sorted(blocks):
        xs = [getattr(r, "theta_xz" if "fixed-state" in eid else "phi") for r in blocks[eid]]
        series.append((eid, xs, [getattr(r, quantity[0]) for r in blocks[eid]]))
    # The standard-QM curve is read off the first block, on that block's x-axis.
    series.append(("standard QM", series[0][1],
                   [getattr(r, quantity[1]) for r in blocks[min(blocks)]]))
    return series, target, "sweep parameter [rad]", quantity[2]


def cmd_reproduce(args) -> int:
    if args.grid is not None and args.grid < 2:
        raise ValidationError("grid size must be >= 2")
    if args.grid is not None and args.target == "thresholds":
        raise ValidationError("reproduce thresholds has a fixed grid; drop --grid")
    if args.target == "thresholds":
        if args.plot:
            raise ValidationError("reproduce thresholds writes no plot; drop --plot")
        return _emit(args, "thresholds", find_thresholds(("p", "epsilon")))
    records = reproduce(args.target, args.grid)
    return _emit(args, args.target, records, lambda: _plot_reproduction(args.target, records))


def cmd_selftest(args) -> int:
    if args.json:
        import json

        report = run_selftest(echo=None)
        print(json.dumps({
            "all_passed": report.all_passed,
            "total_elapsed": report.total_elapsed,
            "checks": [r._asdict() for r in report.results],
        }, indent=2))
    else:
        report = run_selftest()
        print(f"{'all checks passed' if report.all_passed else 'FAILURES detected'} "
              f"in {report.total_elapsed:.2f}s")
    return 0 if report.all_passed else 1


def _add_common_angles(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=0.0, help="input polar angle")
    p.add_argument("--phase", type=float, default=0.0, help="input azimuthal phase")
    p.add_argument("--p", type=float, default=0.0, help="input depolarization strength")
    p.add_argument("--epsilon", type=float, default=0.0, help="gate failure probability")
    p.add_argument("--deg", action="store_true", help="interpret angles in degrees")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulator of qubits traversing a Deutsch closed timelike curve.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fixed-point", help="solve one loop scenario")
    fp.add_argument("--circuit", choices=[k.value for k in CircuitKind], default="swap-cu")
    fp.add_argument("--theta", type=float, default=None,
                    help="CU_xz rotation axis angle, swap-cu only (default: pi/4)")
    fp.add_argument("--prep", choices=["local", "improper", "nonlocal"], default="local")
    fp.add_argument("--method", choices=["eigen_max_entropy", "damped_iteration"],
                    default="eigen_max_entropy")
    fp.add_argument("--out", help="optional JSON output path")
    _add_common_angles(fp)
    fp.set_defaults(fn=cmd_fixed_point)

    ds = sub.add_parser("discriminate", help="run one discrimination point")
    ds.add_argument("--theta", type=float, default=None,
                    help="gate angle (default: optimal for phi)")
    ds.add_argument("--prep", choices=MODES, default="local")
    _add_common_angles(ds)
    ds.set_defaults(fn=cmd_discriminate)

    sw = sub.add_parser("sweep", help="run a single discrimination sweep")
    sw.add_argument("--variant", choices=VARIANTS, required=True)
    sw.add_argument("--prep", choices=MODES, default="local")
    sw.add_argument("--grid", type=int, default=None, help="grid size (>= 2)")
    sw.add_argument("--out", help="output path")
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.add_argument("--plot", action="store_true", help="also write an SVG plot")
    sw.set_defaults(fn=cmd_sweep)

    rp = sub.add_parser("reproduce", help="emit a bundled experiment table")
    rp.add_argument("target", choices=REPRODUCE_TARGETS)
    rp.add_argument("--grid", type=int, default=None,
                    help="grid size override (>= 2), sweep and fig6 targets only")
    rp.add_argument("--out", help="output path")
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.add_argument("--plot", action="store_true",
                    help="also write an SVG plot (not for thresholds)")
    rp.set_defaults(fn=cmd_reproduce)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--json", action="store_true",
                    help="print the per-check report (id, pass, time, detail) as JSON")
    st.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return 3
    except ThresholdNotFound as exc:
        print(f"no crossing: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

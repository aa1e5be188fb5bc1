"""Command-line front end: scenario runs, figure reproduction, selftest.

Subcommands
-----------
fixed-point   solve one loop scenario and print the solved state
discriminate  run one discrimination point (both states) and print measures
sweep         run a single parameter sweep to CSV/JSON
reproduce     emit a bundled experiment (fig3, fig5a..c, fig6, s1, s2, thresholds)
selftest      run the acceptance suite; exit 0 iff everything passes
              (--json prints the per-check report as JSON instead)

CSV files are byte-deterministic for a fixed configuration: fixed field
order, 17-significant-digit floats, UTF-8, '.' decimal separator.

Exit codes: 2 invalid parameters, 3 solver non-convergence, 4 record
invariant violation in reproduce, 1 failed selftest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .circuits import CircuitKind, CircuitSpec
from .deutsch import (
    ConvergenceError,
    ImproperMixed,
    LocalPure,
    NonLocalEnsemble,
    run_scenario,
)
from .experiments import (
    SweepRecord,
    ThresholdNotFound,
    ThresholdResult,
    decoherence_surface,
    discrimination_sweep,
    find_threshold,
    identification_sweep,
    nonlinearity_sweep,
    optimal_measurement_sweep,
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
from .svgplot import write_svg

RECORD_FIELDS = [f.name for f in dataclasses.fields(SweepRecord)]
THRESHOLD_FIELDS = ["parameter", "crossing", "bracket_lo", "bracket_hi", "achieved_tolerance"]

REPRODUCE_TARGETS = ("fig3", "fig5a", "fig5b", "fig5c", "fig6", "s1", "s2", "thresholds")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_records_csv(records: list[SweepRecord], path: str) -> None:
    lines = [",".join(RECORD_FIELDS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in RECORD_FIELDS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records_csv(path: str) -> list[SweepRecord]:
    """Parse a CSV written by this tool back into identical records."""
    types = {f.name: f.type for f in dataclasses.fields(SweepRecord)}
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    header = rows[0].split(",")
    if header != RECORD_FIELDS:
        raise ValidationError(f"unexpected CSV header {header}")
    out = []
    for row in rows[1:]:
        vals = row.split(",")
        kwargs = {}
        for name, raw in zip(header, vals):
            t = types[name]
            if t in ("float", float):
                kwargs[name] = float(raw)
            elif t in ("int", int):
                kwargs[name] = int(raw)
            else:
                kwargs[name] = raw
        out.append(SweepRecord(**kwargs))
    return out


def _write_json(data, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_records_json(records: list[SweepRecord], path: str) -> None:
    _write_json([dataclasses.asdict(r) for r in records], path)


def write_thresholds_csv(results: list[ThresholdResult], path: str) -> None:
    lines = [",".join(THRESHOLD_FIELDS)]
    for t in results:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (t.parameter, t.crossing, t.bracket[0], t.bracket[1], t.achieved_tolerance)
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_thresholds_csv(path: str) -> list[ThresholdResult]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    if rows[0].split(",") != THRESHOLD_FIELDS:
        raise ValidationError(f"unexpected CSV header {rows[0]}")
    out = []
    for row in rows[1:]:
        p, c, lo, hi, tol = row.split(",")
        out.append(
            ThresholdResult(
                parameter=p,
                crossing=float(c),
                bracket=(float(lo), float(hi)),
                achieved_tolerance=float(tol),
            )
        )
    return out


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _print_state(label: str, dm) -> None:
    m = dm.mat
    print(f"{label}:")
    for row in m:
        print("   [" + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row) + "]")
    if dm.dim == 2:
        b = dm.bloch()
        print(f"   Bloch: ({b.x:+.6f}, {b.y:+.6f}, {b.z:+.6f})")


def _build_spec(args) -> CircuitSpec:
    kind = CircuitKind(args.circuit)
    theta = _angle(args.theta, args.deg)
    return CircuitSpec(
        kind=kind,
        theta_xz=theta if kind is CircuitKind.SWAP_THEN_CU else 0.0,
        gate_noise=args.epsilon,
        input_noise=args.p,
    )


def _build_prep(args, psi: PureQubit):
    if args.prep == "local":
        return LocalPure(psi)
    if args.prep == "improper":
        return ImproperMixed(psi.density())
    if args.prep == "nonlocal":
        return NonLocalEnsemble((PureQubit(0.0, 0.0), psi), (0.5, 0.5))
    raise ValidationError(f"unknown preparation {args.prep!r}")


def cmd_fixed_point(args) -> int:
    psi = PureQubit(_angle(args.phi, args.deg), _angle(args.phase, args.deg))
    spec = _build_spec(args)
    res = run_scenario(spec, _build_prep(args, psi), method=args.method)
    fp = res.fixed_point
    _print_state("rho_ctc", fp.rho_ctc)
    print(f"residual:            {fp.residual:.3e}")
    print(f"fixed_set_dimension: {fp.fixed_set_dimension}"
          + ("   (degenerate: entropy maximizer returned)" if fp.fixed_set_dimension > 1 else ""))
    print(f"entropy:             {fp.entropy:.12f}")
    print(f"consistency fidelity: {res.consistency_fidelity:.12f}")
    for i, out in enumerate(res.rho_out_per_input):
        _print_state(f"rho_out[{i}]", out)
    if args.out:
        payload = {
            "rho_ctc": [[_fmt(v.real), _fmt(v.imag)] for v in fp.rho_ctc.mat.reshape(-1)],
            "residual": fp.residual,
            "fixed_set_dimension": fp.fixed_set_dimension,
            "entropy": fp.entropy,
            "consistency_fidelity": res.consistency_fidelity,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_discriminate(args) -> int:
    phi = _angle(args.phi, args.deg)
    theta = _angle(args.theta, args.deg) if args.theta is not None else (phi - math.pi) / 2
    spec = CircuitSpec(
        kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
        gate_noise=args.epsilon, input_noise=args.p,
    )
    psi0, psi1 = PureQubit(0.0, 0.0), PureQubit(phi, _angle(args.phase, args.deg))
    if args.prep == "nonlocal":
        res = run_scenario(spec, NonLocalEnsemble((psi0, psi1), (0.5, 0.5)))
        o0, o1 = res.rho_out_per_input
        print(f"shared rho_ctc solved (fixed_set_dimension={res.fixed_point.fixed_set_dimension})")
    else:
        r0 = run_scenario(spec, LocalPure(psi0))
        r1 = run_scenario(spec, LocalPure(psi1))
        o0, o1 = r0.rho_out_per_input[0], r1.rho_out_per_input[0]
    _print_state("output for psi0 = |H>", o0)
    _print_state(f"output for psi1(phi={phi:.6f})", o1)
    l_z = mismatch_probability(o0, o1, SIGMA_Z_AXIS)
    l_opt, axis = optimal_mismatch_probability(o0, o1)
    qm = qm_baseline(phi, args.p)
    print(f"L(sigma_z)  = {l_z:.12f}")
    print(f"L(optimal)  = {l_opt:.12f}  axis ({axis.axis.x:+.4f}, {axis.axis.y:+.4f}, {axis.axis.z:+.4f})")
    print(f"D           = {trace_distance(o0, o1):.12f}")
    print(f"p_succ      = {helstrom_success_probability(o0, o1):.12f}")
    print(f"QM baseline: L = {qm.L_optimal:.12f}, D = {qm.trace_dist:.12f}, p_succ = {qm.p_succ_optimal:.12f}")
    return 0


def _emit(records: list[SweepRecord], args, default_stem: str) -> tuple[str, int]:
    problems = validate_records(records)
    if problems:
        for msg in problems[:10]:
            print(f"INVARIANT VIOLATION: {msg}", file=sys.stderr)
        return "", 4
    path = args.out or f"{default_stem}.{args.format}"
    if args.format == "json":
        write_records_json(records, path)
    else:
        write_records_csv(records, path)
    print(f"wrote {len(records)} records to {path}")
    return path, 0


def cmd_sweep(args) -> int:
    records = discrimination_sweep(args.prep, args.variant, args.grid)
    path, code = _emit(records, args, f"sweep-{args.variant}-{args.prep}")
    if code == 0 and args.plot:
        x_name = "theta_xz" if args.variant == "fixed-state" else "phi"
        svg = path.rsplit(".", 1)[0] + ".svg"
        xs = [getattr(r, x_name) for r in records]
        write_svg(
            svg,
            [
                ("L loop (sigma_z)", xs, [r.L_ctc_sigma_z for r in records]),
                ("L standard QM", xs, [r.L_qm for r in records]),
            ],
            title=f"{args.variant} sweep ({args.prep})",
            x_label=f"{x_name} [rad]",
            y_label="mismatch probability",
        )
        print(f"wrote plot to {svg}")
    return code


def _reproduce_records(target: str, grid: int | None) -> list[SweepRecord]:
    def retagged(experiment_id: str, mode: str, variant: str) -> list[SweepRecord]:
        recs = discrimination_sweep(mode, variant, grid)
        return [dataclasses.replace(r, experiment_id=experiment_id) for r in recs]

    variants = ("optimal-gate", "fixed-state", "fixed-gate")
    both = [(v, m) for v in variants for m in ("local", "nonlocal")]
    if target == "fig3":
        return nonlinearity_sweep()
    if target == "fig5a":
        return retagged("fig5a", "local", "optimal-gate")
    if target == "fig5b":
        return [r for v in variants for r in retagged(f"fig5b-{v}", "nonlocal", v)]
    if target == "fig5c":
        cuts = [(v, m) for v, m in both if v != "optimal-gate"]
        return [r for v, m in cuts for r in retagged(f"fig5c-{v}-{m}", m, v)]
    if target == "fig6":
        axis = None if grid is None else np.linspace(0.0, 1.0, grid).tolist()
        return decoherence_surface(axis, axis)
    if target in ("s1", "s2"):
        sweep = optimal_measurement_sweep if target == "s1" else identification_sweep
        return [r for v, m in both for r in sweep(m, v, grid)]
    raise ValidationError(f"unknown reproduce target {target!r}")


def _plot_reproduction(target: str, records: list[SweepRecord], path: str) -> None:
    svg = path.rsplit(".", 1)[0] + ".svg"
    if target == "fig3":
        base = [r for r in records if r.n_iterations == 1 and r.phase == 0.0]
        xs = [r.phi for r in base]
        series = [
            ("L loop", xs, [r.L_ctc_sigma_z for r in base]),
            ("L standard QM", xs, [r.L_qm for r in base]),
            ("D loop", xs, [r.D_ctc for r in base]),
            ("D standard QM", xs, [r.D_qm for r in base]),
        ]
        write_svg(svg, series, title="nonlinear evolution", x_label="phi [rad]",
                  y_label="distinguishability")
    elif target == "fig6":
        line_e0 = [r for r in records if r.epsilon == 0.0]
        line_p0 = [r for r in records if r.p == 0.0]
        series = [
            ("loop vs p (eps=0)", [r.p for r in line_e0], [r.L_ctc_sigma_z for r in line_e0]),
            ("QM vs p", [r.p for r in line_e0], [r.L_qm for r in line_e0]),
            ("loop vs eps (p=0)", [r.epsilon for r in line_p0], [r.L_ctc_sigma_z for r in line_p0]),
        ]
        write_svg(svg, series, title="decoherence response at the working point",
                  x_label="noise strength", y_label="mismatch probability")
    else:
        quantity = {
            "s2": ("p_succ_ctc", "p_succ_qm", "success probability"),
            "s1": ("L_ctc_optimal", "L_qm", "mismatch probability"),
        }.get(target, ("L_ctc_sigma_z", "L_qm", "mismatch probability"))
        series = []
        for eid in sorted({r.experiment_id for r in records}):
            block = [r for r in records if r.experiment_id == eid]
            x_name = "theta_xz" if "fixed-state" in eid else "phi"
            xs = [getattr(r, x_name) for r in block]
            series.append((eid, xs, [getattr(r, quantity[0]) for r in block]))
        block0 = [r for r in records if r.experiment_id == sorted({r.experiment_id for r in records})[0]]
        x_name = "theta_xz" if "fixed-state" in block0[0].experiment_id else "phi"
        series.append(
            ("standard QM", [getattr(r, x_name) for r in block0], [getattr(r, quantity[1]) for r in block0])
        )
        write_svg(svg, series, title=target, x_label="sweep parameter [rad]",
                  y_label=quantity[2])
    print(f"wrote plot to {svg}")


def cmd_reproduce(args) -> int:
    if args.target == "thresholds":
        results = [find_threshold("p"), find_threshold("epsilon")]
        path = args.out or f"thresholds.{args.format}"
        if args.format == "json":
            _write_json([dataclasses.asdict(t) for t in results], path)
        else:
            write_thresholds_csv(results, path)
        for t in results:
            print(f"{t.parameter}* = {t.crossing:.9f} (bracket {t.bracket}, tol {t.achieved_tolerance:.1e})")
        print(f"wrote thresholds to {path}")
        return 0
    records = _reproduce_records(args.target, args.grid)
    path, code = _emit(records, args, args.target)
    if code == 0 and args.plot:
        _plot_reproduction(args.target, records, path)
    return code


def cmd_selftest(args) -> int:
    scale = args.tol / 1e-12
    if args.json:
        report = run_selftest(tol_scale=scale, echo=None)
        print(json.dumps({
            "tol_scale": scale,
            "all_passed": report.all_passed,
            "total_elapsed": report.total_elapsed,
            "checks": [dataclasses.asdict(r) for r in report.results],
        }, indent=2))
    else:
        if scale != 1.0:
            print(f"tolerance scale: x{scale:g} (base tolerances multiplied by this factor)")
        report = run_selftest(tol_scale=scale)
        print(f"{'all checks passed' if report.all_passed else 'FAILURES detected'} "
              f"in {report.total_elapsed:.2f}s")
    return 0 if report.all_passed else 1


def _add_common_angles(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=0.0, help="input polar angle")
    p.add_argument("--phase", type=float, default=0.0, help="input azimuthal phase")
    p.add_argument("--p", type=float, default=0.0, help="input depolarization strength")
    p.add_argument("--epsilon", type=float, default=0.0, help="gate failure probability")
    p.add_argument("--deg", action="store_true", help="interpret angles in degrees")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulator of qubits traversing a Deutsch closed timelike curve.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fixed-point", help="solve one loop scenario")
    fp.add_argument("--circuit", choices=[k.value for k in CircuitKind], default="swap-cu")
    fp.add_argument("--theta", type=float, default=math.pi / 4, help="CU_xz rotation axis angle")
    fp.add_argument("--prep", choices=["local", "improper", "nonlocal"], default="local")
    fp.add_argument("--method", choices=["eigen_max_entropy", "damped_iteration"],
                    default="eigen_max_entropy")
    fp.add_argument("--out", help="optional JSON output path")
    _add_common_angles(fp)
    fp.set_defaults(fn=cmd_fixed_point)

    ds = sub.add_parser("discriminate", help="run one discrimination point")
    ds.add_argument("--theta", type=float, default=None,
                    help="gate angle (default: optimal for phi)")
    ds.add_argument("--prep", choices=["local", "nonlocal"], default="local")
    _add_common_angles(ds)
    ds.set_defaults(fn=cmd_discriminate)

    sw = sub.add_parser("sweep", help="run a single discrimination sweep")
    sw.add_argument("--variant", choices=["optimal-gate", "fixed-state", "fixed-gate"],
                    required=True)
    sw.add_argument("--prep", choices=["local", "nonlocal"], default="local")
    sw.add_argument("--grid", type=int, default=None, help="grid size (>= 2)")
    sw.add_argument("--out", help="output path")
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.add_argument("--plot", action="store_true", help="also write an SVG plot")
    sw.set_defaults(fn=cmd_sweep)

    rp = sub.add_parser("reproduce", help="emit a bundled experiment table")
    rp.add_argument("target", choices=REPRODUCE_TARGETS)
    rp.add_argument("--grid", type=int, default=None, help="grid size override (>= 2)")
    rp.add_argument("--out", help="output path")
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.add_argument("--plot", action="store_true", help="also write an SVG plot")
    rp.set_defaults(fn=cmd_reproduce)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--tol", type=float, default=1e-12,
                    help="base tolerance (>= 1e-14); scales every check tolerance")
    st.add_argument("--json", action="store_true",
                    help="print the per-check report (id, pass, time, detail) as JSON")
    st.set_defaults(fn=cmd_selftest)
    return ap


def _validate_args(args) -> None:
    grid = getattr(args, "grid", None)
    if grid is not None and grid < 2:
        raise ValidationError("grid size must be >= 2")
    tol = getattr(args, "tol", None)
    if tol is not None and not 1e-14 <= tol < math.inf:
        raise ValidationError("tolerance override must be finite and >= 1e-14")
    for name in ("p", "epsilon"):
        v = getattr(args, name, None)
        if v is not None and not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} = {v} outside [0, 1]")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
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

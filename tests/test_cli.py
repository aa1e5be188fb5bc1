"""Command-line interface: outputs, exit codes, CSV/JSON determinism, round trips."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import ctcsim.cli as cli
import ctcsim.deutsch as deutsch
from ctcsim.cli import (
    RECORD_FIELDS,
    REPRODUCE_TARGETS,
    THRESHOLD_FIELDS,
    _print_state,
    main,
    read_records_csv,
    write_records_csv,
    write_thresholds_csv,
)
from ctcsim.circuits import CircuitKind, CircuitSpec, QubitChannel
from ctcsim.deutsch import LocalPure, NonLocalEnsemble, run_scenario
from ctcsim.experiments import SweepRecord, ThresholdResult, discrimination_sweep, reproduce
from ctcsim.measures import mismatch_probability, optimal_mismatch_probability
from ctcsim.qmath import DensityMatrix, PureQubit, density_from_bloch

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_stdout.txt"


class TestFixedPointCommand:
    def test_equator_input_reports_degeneracy(self, capsys, tmp_path):
        rc = main([
            "fixed-point", "--circuit", "swap-cnot", "--phi", "1.5707963267948966",
            "--out", str(tmp_path / "fp.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fixed_set_dimension: 2" in out
        assert "degenerate" in out
        data = json.loads((tmp_path / "fp.json").read_text())
        assert data["fixed_set_dimension"] == 2
        assert data["entropy"] == pytest.approx(1.0, abs=1e-12)
        fp = run_scenario(CircuitSpec(kind=CircuitKind.SWAP_CNOT),
                          LocalPure(PureQubit(1.5707963267948966))).fixed_point
        assert data["rho_ctc"] == [[_fmt(v.real), _fmt(v.imag)]
                                   for v in fp.rho_ctc.mat.reshape(-1)]

    def test_h_input_pins_loop_state(self, capsys):
        rc = main(["fixed-point", "--circuit", "swap-cu", "--theta", "-0.7854", "--phi", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "+1.000000+0.000000j" in out
        assert "fixed_set_dimension: 1" in out

    def test_degree_flag(self, capsys):
        main(["fixed-point", "--circuit", "swap-cnot", "--phi", "90", "--deg"])
        out_deg = capsys.readouterr().out
        main(["fixed-point", "--circuit", "swap-cnot", "--phi", str(math.pi / 2)])
        out_rad = capsys.readouterr().out
        assert out_deg == out_rad

    def test_default_theta_is_quarter_pi_in_either_unit(self, capsys):
        assert main(["fixed-point", "--phi", "270", "--deg"]) == 0
        out_deg = capsys.readouterr().out
        assert main(["fixed-point", "--phi", str(3 * math.pi / 2),
                     "--theta", str(math.pi / 4)]) == 0
        assert capsys.readouterr().out == out_deg

    def test_theta_rejected_for_swap_cnot(self, capsys):
        assert main(["fixed-point", "--circuit", "swap-cnot", "--theta", "0.3"]) == 2
        assert "invalid parameters:" in capsys.readouterr().err

    def test_invalid_noise_exits_2(self, capsys):
        assert main(["fixed-point", "--p", "1.5"]) == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fixed-point", "--phi", "nan"],
        ["fixed-point", "--phase", "inf"],
        ["fixed-point", "--theta", "nan"],
        ["fixed-point", "--epsilon", "nan"],
        ["discriminate", "--phase", "nan"],
        ["discriminate", "--phi", "inf"],
        ["discriminate", "--p", "nan"],
    ])
    def test_non_finite_input_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_prints_a_boundary_state_with_its_bloch_vector(self, capsys):
        """Min eigenvalue -1e-11 is within PSD_TOL, so the state and its Bloch
        vector (norm 1 + 2e-11) are printed, not rejected."""
        _print_state("rho", DensityMatrix(np.diag([1 + 1e-11, -1e-11])))
        assert capsys.readouterr().out == (
            "rho:\n"
            "   [+1.000000+0.000000j  +0.000000+0.000000j]\n"
            "   [+0.000000+0.000000j  +0.000000+0.000000j]\n"
            "   Bloch: (+0.000000, +0.000000, +1.000000)\n"
        )

    def test_nonconvergence_exits_3(self, capsys, monkeypatch):
        import ctcsim.cli as cli_mod
        from ctcsim.deutsch import ConvergenceError

        def boom(*a, **k):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        assert main(["fixed-point", "--phi", "1.0"]) == 3


class TestDiscriminateCommand:
    def test_working_point_perfect(self, capsys):
        rc = main(["discriminate", "--phi", str(3 * math.pi / 2)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "L(sigma_z)  = 1.000000000000" in out
        assert "QM baseline: L = 0.750000000000" in out

    def test_default_gate_uses_the_wrapped_angle(self, capsys):
        """phi = -90 deg is the state of phi = 270 deg; the default optimal gate
        is taken from the wrapped angle, so both print the same measures."""
        assert main(["discriminate", "--phi", "-90", "--deg"]) == 0
        wrapped = capsys.readouterr().out
        assert main(["discriminate", "--phi", "270", "--deg"]) == 0
        assert capsys.readouterr().out == wrapped
        assert "L(sigma_z)  = 1.000000000000" in wrapped
        assert main(["discriminate", "--phi", "7"]) == 0
        assert main(["discriminate", "--phi", str(7 - 2 * math.pi)]) == 0

    def test_optimal_axis_signs_of_the_readme_example(self, capsys):
        """The optimal axis's roundoff-sized components print as +0.0000."""
        assert main(["discriminate", "--phi", "4.712", "--p", "0.2"]) == 0
        assert ("L(optimal)  = 0.722279837739  axis (+0.0000, +0.0000, +1.0000)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("prep", ["local", "nonlocal"])
    @pytest.mark.parametrize("angles", [
        ["--phi", "2.5", "--p", "0.2", "--epsilon", "0.1"],
        ["--phi", "0", "--theta", "0.3"],  # the outputs point the same way
        ["--phi", "3.141592653589793"],  # prepared locally, they point opposite ways
        ["--phi", "2.0", "--p", "1"],  # a vanishing Bloch vector
        ["--phi", "1.2", "--phase", "1"],
    ])
    def test_solves_no_eigenproblem(self, monkeypatch, capsys, prep, angles):
        """Both measures and the printed axis are closed forms on the outputs'
        Bloch vectors: no eigensolver runs for a discrimination point."""
        def refuse(*args, **kwargs):
            raise AssertionError("discriminate called a numpy eigensolver")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert main(["discriminate", "--prep", prep, *angles]) == 0
        assert "L(optimal)" in capsys.readouterr().out

    @pytest.mark.parametrize("phi, phase, theta, p, eps", [
        (2.5, 0.0, (2.5 - math.pi) / 2, 0.2, 0.1),
        (0.0, 0.0, 0.3, 0.0, 0.0),
        (1.2, 1.0, -1.5, 0.7, 0.4),
    ])
    def test_local_pair_is_one_batch_of_two_rows(self, monkeypatch, capsys,
                                                 phi, phase, theta, p, eps):
        """--prep local solves both states as one run_batch of two rows, whose
        outputs are those of the two run_scenario solves, bit for bit."""
        batches = []

        def counted(*args):
            batches.append(deutsch.run_batch(*args))
            return batches[-1]

        argv = ["discriminate", "--prep", "local", "--phi", repr(phi), "--phase", repr(phase),
                "--theta", repr(theta), "--p", repr(p), "--epsilon", repr(eps)]
        with monkeypatch.context() as m:
            m.setattr(cli, "run_batch", counted)
            m.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("run_scenario"))
            assert main(argv) == 0
        assert "L(optimal)" in capsys.readouterr().out
        assert len(batches) == 1 and len(batches[0].outputs) == 2
        spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta, gate_noise=eps,
                           input_noise=p)
        for out, psi in zip(batches[0].outputs, (PureQubit(0.0, 0.0), PureQubit(phi, phase))):
            want = run_scenario(spec, LocalPure(psi)).rho_out_per_input[0]
            np.testing.assert_array_equal(density_from_bloch(out).mat, want.mat)

    @pytest.mark.parametrize("prep", ["local", "nonlocal"])
    def test_takes_no_2x2_eigenvalue_range(self, monkeypatch, capsys, prep):
        """D and p_succ are |r0 - r1|/2 and (1 + D)/2 on the outputs' Bloch
        vectors, the tables' formulas: no 2x2 eigenvalue range is taken."""
        def refuse(*args, **kwargs):
            raise AssertionError("discriminate called qmath._eig_ranges_2x2")

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ctcsim") and hasattr(module, "_eig_ranges_2x2"):
                monkeypatch.setattr(module, "_eig_ranges_2x2", refuse)
        argv = ["discriminate", "--prep", prep, "--phi", "2.5", "--p", "0.2", "--epsilon", "0.1"]
        assert main(argv) == 0
        assert "p_succ      = " in capsys.readouterr().out

    @pytest.mark.parametrize("phi", ["0", "1.5707963267948966", "5.5"])
    def test_nonlocal_prints_the_documented_axis(self, capsys, phi):
        """Both nonlocal outputs are one state r, so every axis perpendicular to r
        is optimal; the printed one is z x r/|r| (x when r is along z), in
        canonical sign, and attains L(optimal)."""
        argv = ["discriminate", "--prep", "nonlocal", "--phi", phi, "--epsilon", "0.3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        psi1 = PureQubit(float(phi), 0.0)
        spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=(psi1.polar - math.pi) / 2,
                           gate_noise=0.3)
        o0, o1 = run_scenario(spec, NonLocalEnsemble((PureQubit(0.0, 0.0), psi1),
                                                      (0.5, 0.5))).rho_out_per_input
        r = o0.bloch()
        assert np.linalg.norm(r) > 0.1
        axis = np.cross([0.0, 0.0, 1.0], r / np.linalg.norm(r))
        if np.linalg.norm(axis) <= 1e-9:
            axis = np.array([1.0, 0.0, 0.0])
        axis /= np.linalg.norm(axis)
        axis *= np.sign(axis[np.abs(axis) > 1e-9][0])
        value, direction = optimal_mismatch_probability(o0, o1)
        assert np.abs(direction.axis - axis).max() <= 1e-15
        assert abs(axis @ r) <= 1e-12
        assert abs(mismatch_probability(o0, o1, direction) - value) <= 1e-12
        x, y, z = axis + 0.0
        assert f"L(optimal)  = {value:.12f}  axis ({x:+.4f}, {y:+.4f}, {z:+.4f})" in out

    def test_nonlocal_coin_flip(self, capsys):
        rc = main(["discriminate", "--phi", str(3 * math.pi / 2), "--prep", "nonlocal"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "L(sigma_z)  = 0.500000000000" in out


def test_golden_matrix_prints_no_negative_zero():
    """Every printed number that rounds to zero carries a + sign: matrix
    entries, Bloch vectors and the optimal axis alike. The golden file is
    pinned to the rendered matrix by test_cli_matrix_matches_golden."""
    text = GOLDEN.read_text(encoding="utf-8")
    assert "Bloch: (" in text and "axis (" in text
    assert re.findall(r"-0\.0+(?![0-9])", text) == []


class TestReproduce:
    def test_fig6_row_count_and_corner(self, tmp_path, capsys):
        path = tmp_path / "fig6.csv"
        rc = main(["reproduce", "fig6", "--grid", "11", "--out", str(path)])
        assert rc == 0
        records = read_records_csv(str(path))
        assert len(records) == 121
        corner = [r for r in records if r.p == 0.0 and r.epsilon == 0.0][0]
        assert corner.L_ctc_sigma_z == pytest.approx(1.0, abs=1e-9)

    def test_fig3_default_shape(self, tmp_path):
        path = tmp_path / "fig3.csv"
        assert main(["reproduce", "fig3", "--out", str(path)]) == 0
        records = read_records_csv(str(path))
        base = [r for r in records if r.n_iterations == 1]
        assert len(base) == 14
        assert sorted({r.n_iterations for r in records}) == [1, 2, 3, 4, 5]

    def test_thresholds_values(self, tmp_path):
        path = tmp_path / "thr.csv"
        assert main(["reproduce", "thresholds", "--out", str(path)]) == 0
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            results = {row["parameter"]: row for row in reader}
        assert reader.fieldnames == THRESHOLD_FIELDS
        assert float(results["p"]["crossing"]) == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
        assert float(results["epsilon"]["crossing"]) == pytest.approx(1 / 3, abs=1e-6)

    def test_csv_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["reproduce", "fig5a", "--grid", "8", "--out", str(a)])
        main(["reproduce", "fig5a", "--grid", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip_identity(self, tmp_path):
        path = tmp_path / "cut.csv"
        records = discrimination_sweep("local", "fixed-state", 8)
        write_records_csv(records, str(path))
        assert read_records_csv(str(path)) == records

    def test_header_matches_record_fields(self, tmp_path):
        path = tmp_path / "h.csv"
        main(["reproduce", "fig5b", "--grid", "4", "--out", str(path)])
        header = path.read_text().splitlines()[0]
        assert header.split(",") == RECORD_FIELDS
        assert header.startswith("experiment_id,phi,phase,theta_xz,p,epsilon")

    def test_json_format(self, tmp_path):
        path = tmp_path / "x.json"
        assert main(["reproduce", "fig5c", "--grid", "4", "--format", "json",
                     "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert {d["experiment_id"] for d in data} == {
            "fig5c-fixed-state-local", "fig5c-fixed-state-nonlocal",
            "fig5c-fixed-gate-local", "fig5c-fixed-gate-nonlocal",
        }

    @pytest.mark.parametrize("out, svg", [("fig3.csv", "fig3.svg"),
                                          ("./fig3out", "fig3out.svg")])
    def test_plot_emission(self, tmp_path, monkeypatch, out, svg):
        """The plot sits next to the table: its path is --out with the
        extension, if any, replaced by .svg."""
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "fig3", "--out", out, "--plot"]) == 0
        text = (tmp_path / svg).read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted([Path(out).name, svg])

    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig3", "--grid", "7"],
        ["reproduce", "thresholds", "--grid", "9"],
        ["reproduce", "thresholds", "--plot"],
    ])
    def test_flag_the_target_cannot_honour_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "invalid parameters:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_too_small_exits_2(self):
        assert main(["reproduce", "fig6", "--grid", "1"]) == 2

    def test_record_invariant_violation_exits_4(self, tmp_path, monkeypatch, capsys):
        import ctcsim.cli as cli_mod

        monkeypatch.setattr(cli_mod, "validate_records", lambda recs: ["row 0: broken"])
        rc = main(["reproduce", "fig5a", "--grid", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "INVARIANT VIOLATION" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_all_targets_produce_valid_files(self, tmp_path):
        for target in ("fig5a", "fig5b", "s1", "s2"):
            path = tmp_path / f"{target}.csv"
            assert main(["reproduce", target, "--grid", "4", "--out", str(path)]) == 0
            assert len(read_records_csv(str(path))) >= 4


def _fmt(v) -> str:
    """Oracle: one value as the per-value writers formatted it, floats to 17 digits."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def fmt_join_csv(header, rows, path):
    """Oracle: the per-value _fmt writer the row templates replaced."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class TestRecordTemplate:
    """The one-template CSV rows equal the per-value _fmt join byte for byte."""

    def assert_same_bytes(self, records, tmp_path):
        got, want = tmp_path / "template.csv", tmp_path / "fmt.csv"
        write_records_csv(records, str(got))
        fmt_join_csv(RECORD_FIELDS, [[getattr(r, name) for name in RECORD_FIELDS]
                                     for r in records], str(want))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("target", ["fig5b", "fig6"])
    def test_real_records(self, tmp_path, target):
        self.assert_same_bytes(reproduce(target), tmp_path)

    def test_edge_values(self, tmp_path):
        base = discrimination_sweep("local", "fixed-state", 2)[0]
        floats = [name for name, t in typing.get_type_hints(SweepRecord).items() if t is float]
        assert len(floats) == 14
        edges = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf,
                 np.float64(0.1), np.float64(-2.5e-17), 7, 0]
        records = [base._replace(**{name: edges[(i + k) % len(edges)]
                                    for i, name in enumerate(floats)})
                   for k in range(len(edges))]
        self.assert_same_bytes(records, tmp_path)

    def test_float_columns_take_17_digits_and_the_rest_str(self, tmp_path):
        """Float columns are written as %.17g (0.1 -> 0.10000000000000001, 0.0 -> 0),
        str and int columns as %s (an int is never written in exponent form)."""
        text = {"experiment_id": "fig6", "prep_mode": "local_pure"}
        counts = {"n_iterations": 10 ** 20, "fixed_set_dimension": 2}
        rec = SweepRecord._make(text.get(n, counts.get(n, 0.1)) for n in SweepRecord._fields)
        path = tmp_path / "kinds.csv"
        write_records_csv([rec, rec._replace(phi=0.0)], str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert rows[0] == [text[n] if n in text else str(counts[n]) if n in counts
                           else "0.10000000000000001" for n in RECORD_FIELDS]
        assert rows[1][RECORD_FIELDS.index("phi")] == "0"

    def test_empty_table_is_the_header(self, tmp_path):
        self.assert_same_bytes([], tmp_path)

    def test_threshold_rows(self, tmp_path):
        edges = [-0.0, 5e-324, 1e300, math.nan, math.inf, np.float64(0.1), 7, 0]
        results = [ThresholdResult(name, edges[k], (edges[k - 1], edges[k - 2]), edges[k - 3])
                   for k, name in enumerate(["p", "epsilon"] * 4)]
        for table in (results, []):
            got, want = tmp_path / "template.csv", tmp_path / "fmt.csv"
            write_thresholds_csv(table, str(got))
            fmt_join_csv(THRESHOLD_FIELDS, [(t.parameter, t.crossing, *t.bracket,
                                             t.achieved_tolerance) for t in table], str(want))
            assert got.read_bytes() == want.read_bytes()


class TestSweepCommand:
    @pytest.mark.parametrize("out, svg", [("s.csv", "s.svg"),
                                          ("run.v2/table", "run.v2/table.svg")])
    def test_sweep_writes_and_plots(self, tmp_path, monkeypatch, out, svg):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v2").mkdir()
        rc = main(["sweep", "--variant", "fixed-gate", "--prep", "nonlocal",
                   "--grid", "6", "--out", out, "--plot"])
        assert rc == 0
        recs = read_records_csv(out)
        assert len(recs) == 6
        assert all(r.prep_mode == "nonlocal_ensemble" for r in recs)
        assert (tmp_path / svg).read_text().startswith("<svg")
        assert sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*")
                      if f.is_file()) == sorted([out, svg])


class TestOutputPaths:
    """An output path the command cannot honour exits 2 with one line on
    stderr, printing nothing on stdout and writing nothing."""

    def assert_refused(self, argv, tmp_path, monkeypatch, capsys, message):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"invalid parameters: {message}") and err.count("\n") == 1
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig3", "--out", "t.svg", "--plot"],
        ["sweep", "--variant", "fixed-gate", "--grid", "4", "--out", "x.svg", "--plot"],
    ])
    def test_plot_over_an_svg_table_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        """The plot's path is --out with .svg for its extension, so an --out
        ending in .svg would be overwritten: refused before any file is written."""
        self.assert_refused(argv, tmp_path, monkeypatch, capsys, "--plot would write its SVG")

    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig3", "--out", "."],
        ["reproduce", "fig3", "--out", "nodir/x.csv"],
        ["reproduce", "thresholds", "--out", "nodir/t.csv"],
        ["sweep", "--variant", "fixed-gate", "--grid", "4", "--out", "nodir/s.csv"],
        ["fixed-point", "--out", "nodir/fp.json"],
        # An empty --out names no file; it is refused, not replaced by the default.
        ["reproduce", "thresholds", "--out", ""],
        ["sweep", "--variant", "fixed-gate", "--grid", "4", "--out", ""],
        ["sweep", "--variant", "fixed-gate", "--grid", "4", "--plot", "--out", ""],
        ["fixed-point", "--out", ""],
    ])
    def test_unwritable_out_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        self.assert_refused(argv, tmp_path, monkeypatch, capsys, f"cannot write {argv[-1]}: ")

    @pytest.mark.parametrize("argv, plot", [
        (["reproduce", "fig3", "--out", "t.csv", "--plot"], "t.svg"),
        (["sweep", "--variant", "fixed-gate", "--grid", "4", "--out", "x.json", "--format",
          "json", "--plot"], "x.svg"),
    ])
    def test_unwritable_plot_exits_2(self, argv, plot, tmp_path, monkeypatch, capsys):
        """The plot's file is opened before the table is written, so a plot
        path that is a directory leaves no table behind."""
        (tmp_path / plot).mkdir()
        self.assert_refused(argv, tmp_path, monkeypatch, capsys, f"cannot write {plot}: ")

    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig3", "--out", "d", "--plot"],
        ["sweep", "--variant", "fixed-gate", "--grid", "4", "--out", "d", "--plot"],
    ])
    def test_unwritable_table_leaves_no_plot(self, argv, tmp_path, monkeypatch, capsys):
        """A table path that is a directory refuses the run after the plot's
        file was opened beside it; that file is removed again."""
        (tmp_path / "d").mkdir()
        self.assert_refused(argv, tmp_path, monkeypatch, capsys, "cannot write d: ")


def test_bundled_runs_build_no_channel_in_run_batch(tmp_path, monkeypatch, capsys):
    """Every reproduce target and the selftest, in one process, build no
    channel inside run_batch, which mixes its circuit's fixed transfer basis;
    the channels the selftest's oracles build show the count is live."""
    inside, outside = [], []
    real = QubitChannel.__post_init__

    def counted(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not deutsch.run_batch.__code__:
            frame = frame.f_back
        (outside if frame is None else inside).append(self)
        real(self)

    monkeypatch.setattr(QubitChannel, "__post_init__", counted)
    for target in REPRODUCE_TARGETS:
        assert main(["reproduce", target, "--out", str(tmp_path / f"{target}.csv")]) == 0
    assert main(["selftest"]) == 0
    assert not inside and outside


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python args` in a fresh process that imports ctcsim from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_python_dash_m_runs_the_cli():
    """`python -m ctcsim` is the `ctcsim` command line."""
    proc = run_python("-m", "ctcsim", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "selftest" in proc.stdout


# Runs main() on each argv of a JSON list in turn and prints, as JSON, the
# stdout, stderr and exit code of every call (argparse errors exit via SystemExit).
_MAIN_SEQUENCE = """
import contextlib, io, json, sys
from ctcsim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""


def main_in_one_process(*argvs: list[str]) -> list:
    proc = run_python("-c", _MAIN_SEQUENCE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_parser_per_process_serves_every_call():
    """The parser is built once per process: two subcommands run in one process,
    with a rejected call between them, print and exit as they do run alone."""
    from ctcsim import cli

    assert cli.build_parser() is cli.build_parser()
    sequence = (["discriminate", "--phi", "2.5", "--p", "0.25"],
                ["sweep", "--variant", "sideways"],
                ["fixed-point", "--prep", "nonlocal", "--phi", "1.0", "--epsilon", "0.3"])
    together = main_in_one_process(*sequence)
    assert together == [r for argv in sequence for r in main_in_one_process(argv)]
    assert [code for _, _, code in together] == [0, 2, 0]
    assert "invalid choice: 'sideways'" in together[1][1]

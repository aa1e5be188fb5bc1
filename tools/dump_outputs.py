"""Write every bundled CLI table and report into one directory, for byte comparison.

    python3 tools/dump_outputs.py DIR

writes every kind of file the CLI writes: the 8 `ctcsim reproduce`
targets as CSV, each but thresholds with its `--plot` SVG, `reproduce
thresholds` and `reproduce fig3` as JSON, the six `sweep` tables (3
variants x 2 preparations) at `--grid 50` with their `--plot` SVGs,
`reproduce fig6 --grid 13`, the five discrimination tables (fig5a-c,
s1, s2) at `--grid 7`, and the `fixed-point --out` JSON of one
noisy scenario (epsilon = 0.3) under both solver methods. It adds the
stdout of the single-scenario commands: `discriminate` for both
preparations at that noisy point and at the degenerate phi = 0
(discriminate-<prep>.txt, discriminate-<prep>-phi0.txt), and `fixed-point`
at that point for all three preparations under both solver methods
(fixed-point-<prep>-<method>.txt). At epsilon = 0 and epsilon = 1, where
the interaction keeps one Kraus term, it keeps both the `--out` JSON and
the stdout of `fixed-point` under both methods for the local and
non-local preparations (fixed-point-<prep>-<method>-eps<epsilon>.json and
.txt). It adds the `ctcsim selftest` report
as text (selftest.txt) and as `--json` (selftest.json), each with every
elapsed time masked, and the stdout of each script in demos/
(demo-<name>.txt), run in DIR so that the SVG demo 05 writes lands there
too. The package is imported from this checkout's
`src`, so running the script from two checkouts into two directories and
comparing them with `diff -r` shows whether a change moved any output byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ctcsim.cli import REPRODUCE_TARGETS, main  # noqa: E402
from ctcsim.experiments import MODES, SWEEP_TABLES, VARIANTS  # noqa: E402

METHODS = ("eigen_max_entropy", "damped_iteration")
PREPS = ("local", "improper", "nonlocal")
# The noisy scenario of the fixed-point and discriminate runs: input angles, p and epsilon.
POINT = ["--phi", "1.1", "--phase", "0.4", "--p", "0.2", "--epsilon", "0.3"]
# The same point where the gate never fails or always does: one Kraus term, as
# (file stem, CLI argument list) of fixed-point under each method and preparation.
ONE_TERM = [(f"fixed-point-{prep}-{m}-eps{eps}",
             ["fixed-point", "--prep", prep, "--method", m, *POINT[:-1], eps])
            for eps in ("0", "1") for prep in ("local", "nonlocal") for m in METHODS]
# (file name, CLI argument list) of each command whose stdout is kept.
PRINTED = ([(f"discriminate-{m}.txt", ["discriminate", "--prep", m, *POINT]) for m in MODES]
           + [(f"discriminate-{m}-phi0.txt", ["discriminate", "--prep", m, "--phi", "0"])
              for m in MODES]
           + [(f"fixed-point-{prep}-{m}.txt", ["fixed-point", "--prep", prep, "--method", m, *POINT])
              for prep in PREPS for m in METHODS]
           + [(f"{stem}.txt", argv) for stem, argv in ONE_TERM])
# Elapsed times as the selftest prints them ("0.12s").
_ELAPSED = re.compile(r"\b\d+\.\d\ds\b")


def commands(out: Path) -> list[list[str]]:
    """The CLI argument lists, each writing its files into out."""
    cmds = [["reproduce", t, "--out", str(out / f"{t}.csv")]
            + ([] if t == "thresholds" else ["--plot"]) for t in REPRODUCE_TARGETS]
    cmds += [["reproduce", t, "--format", "json", "--out", str(out / f"{t}.json")]
             for t in ("thresholds", "fig3")]
    cmds += [["sweep", "--variant", v, "--prep", m, "--grid", "50", "--plot",
              "--out", str(out / f"sweep-{v}-{m}-grid50.csv")]
             for v in VARIANTS for m in MODES]
    cmds.append(["reproduce", "fig6", "--grid", "13", "--out", str(out / "fig6-grid13.csv")])
    cmds += [["reproduce", t, "--grid", "7", "--out", str(out / f"{t}-grid7.csv")]
             for t in SWEEP_TABLES]
    cmds += [["fixed-point", *POINT, "--method", m, "--out", str(out / f"fixed-point-{m}.json")]
             for m in METHODS]
    cmds += [[*argv, "--out", str(out / f"{stem}.json")] for stem, argv in ONE_TERM]
    return cmds


def run(argv: list[str]) -> str:
    """stdout of `ctcsim argv`; RuntimeError on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"ctcsim {' '.join(argv)} exited {code}")
    return buf.getvalue()


def masked_selftest_json(text: str) -> str:
    """`selftest --json` output with `elapsed`, `total_elapsed` and the
    times inside the detail strings masked."""
    report = json.loads(text)
    report["total_elapsed"] = "#.##"
    for check in report["checks"]:
        check["elapsed"] = "#.##"
    return _ELAPSED.sub("#.##s", json.dumps(report, indent=2)) + "\n"


def dump(out: Path) -> None:
    """Run every command, the selftest and the demos; raise on the first failure."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    for argv in commands(out):
        run(argv)
    for name, argv in PRINTED:
        (out / name).write_text(run(argv), encoding="utf-8")
    (out / "selftest.txt").write_text(_ELAPSED.sub("#.##s", run(["selftest"])), encoding="utf-8")
    (out / "selftest.json").write_text(masked_selftest_json(run(["selftest", "--json"])),
                                       encoding="utf-8")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(out)
        try:
            with contextlib.redirect_stdout(buf):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(cwd)
        (out / f"demo-{demo.stem}.txt").write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: python3 tools/dump_outputs.py DIR")
    dump(Path(sys.argv[1]))

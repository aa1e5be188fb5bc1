"""Write every bundled CLI table into one directory, for byte comparison.

    python3 tools/dump_outputs.py DIR

writes the 8 `ctcsim reproduce` targets as CSV, `reproduce thresholds`
as JSON, the six `sweep` tables (3 variants x 2 preparations) at
`--grid 50` and `reproduce fig6 --grid 13`. The package is imported from
this checkout's `src`, so running the script from two checkouts into two
directories and comparing them with `diff -r` shows whether a change
moved any output byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim.cli import REPRODUCE_TARGETS, main  # noqa: E402

VARIANTS = ("optimal-gate", "fixed-state", "fixed-gate")
PREPS = ("local", "nonlocal")


def commands(out: Path) -> list[list[str]]:
    """The CLI argument lists, each writing one file into out."""
    cmds = [["reproduce", t, "--out", str(out / f"{t}.csv")] for t in REPRODUCE_TARGETS]
    cmds.append(["reproduce", "thresholds", "--format", "json",
                 "--out", str(out / "thresholds.json")])
    cmds += [["sweep", "--variant", v, "--prep", m, "--grid", "50",
              "--out", str(out / f"sweep-{v}-{m}-grid50.csv")]
             for v in VARIANTS for m in PREPS]
    cmds.append(["reproduce", "fig6", "--grid", "13", "--out", str(out / "fig6-grid13.csv")])
    return cmds


def dump(out: Path) -> None:
    """Run every command; raise RuntimeError on the first non-zero exit."""
    out.mkdir(parents=True, exist_ok=True)
    for argv in commands(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"ctcsim {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: python3 tools/dump_outputs.py DIR")
    dump(Path(sys.argv[1]))

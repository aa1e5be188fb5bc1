"""tools/dump_outputs.py writes its full set of tables and reports,
tools/compare_outputs.py reports every file two dumps do not share,
tools/line_counts.py counts each kind of source line, and tools/import_time.py
times ctcsim.cli's import."""

import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "dump_outputs.py"
COMPARE = ROOT / "tools" / "compare_outputs.py"
LINE_COUNTS = ROOT / "tools" / "line_counts.py"
IMPORT_TIME = ROOT / "tools" / "import_time.py"

PLOTTED = ("fig3", "fig5a", "fig5b", "fig5c", "fig6", "s1", "s2")
EXPECTED = sorted(
    [f"{t}.csv" for t in PLOTTED + ("thresholds",)]
    + [f"{t}.svg" for t in PLOTTED]
    + ["thresholds.json", "fig3.json", "fig6-grid13.csv", "selftest.txt", "selftest.json",
       "decoherence_response.svg"]
    + [f"sweep-{v}-{m}-grid50.{ext}" for v in ("optimal-gate", "fixed-state", "fixed-gate")
       for m in ("local", "nonlocal") for ext in ("csv", "svg")]
    + [f"{t}-grid7.csv" for t in ("fig5a", "fig5b", "fig5c", "s1", "s2")]
    + [f"fixed-point-{m}.json" for m in ("eigen_max_entropy", "damped_iteration")]
    + [f"discriminate-{m}{point}.txt" for m in ("local", "nonlocal") for point in ("", "-phi0")]
    + [f"fixed-point-{prep}-{m}.txt" for prep in ("local", "improper", "nonlocal")
       for m in ("eigen_max_entropy", "damped_iteration")]
    + [f"fixed-point-{prep}-{m}-eps{eps}.{ext}" for eps in ("0", "1")
       for prep in ("local", "nonlocal") for m in ("eigen_max_entropy", "damped_iteration")
       for ext in ("json", "txt")]
    + [f"demo-{d.stem}.txt" for d in (ROOT / "demos").glob("*.py")]
)


def test_dump_outputs_writes_every_table(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(TOOL), str(out)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == EXPECTED
    assert all(p.stat().st_size > 0 for p in out.iterdir())
    lines = (out / "fig6-grid13.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 13 * 13
    report = (out / "selftest.txt").read_text(encoding="utf-8").splitlines()
    assert len(report) == 13 and report[-1] == "all checks passed in #.##s"
    # Every elapsed time is masked, so two runs of one checkout write the same bytes.
    assert not any(re.search(r"\d\.\d\ds\b", line) for line in report)
    assert report[0].startswith("[PASS] C1:") and report[0].endswith(", #.##s")
    data = json.loads((out / "selftest.json").read_text(encoding="utf-8"))
    assert data["all_passed"] is True and data["total_elapsed"] == "#.##"
    assert [c["detail"] for c in data["checks"]] == [line.split(" -- ", 1)[1] for line in report[:12]]
    assert all(c["elapsed"] == "#.##" for c in data["checks"])


def test_dump_outputs_takes_no_options(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--grid", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "usage" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_compare_outputs_lists_every_difference(tmp_path):
    differences = runpy.run_path(str(COMPARE))["differences"]
    rev, here = tmp_path / "rev", tmp_path / "here"
    for root, text in ((rev, "a"), (here, "b")):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_text("1,2\n")
        (root / "sub" / "same.svg").write_text("<svg/>")
        (root / "changed.json").write_text(text)
        (root / "sub" / "changed.txt").write_text(text * 2)
    (rev / "gone.csv").write_text("")
    (here / "sub" / "new.svg").write_text("")
    assert differences(rev, here) == ["differs: changed.json", "only in REV: gone.csv",
                                      "differs: sub/changed.txt",
                                      "only in this checkout: sub/new.svg"]
    (here / "changed.json").write_text("a")
    (here / "sub" / "changed.txt").write_text("aa")
    (here / "sub" / "new.svg").unlink()
    (here / "gone.csv").write_text("")
    assert differences(rev, here) == []


def test_compare_outputs_takes_one_revision(tmp_path):
    for argv in ([], ["HEAD", "HEAD~1"], ["--help"]):
        proc = subprocess.run([sys.executable, str(COMPARE), *argv], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2 and proc.stderr.startswith("usage")


SYNTHETIC = '''"""Module docstring,

on three lines."""
# A comment line.

import math  # code with a trailing comment


class Shape:
    """Class docstring."""

    sides = 4
    TEXT = """a string that is code,

not a docstring"""

    def area(self, r):
        """Method docstring
        on two lines."""
        # Comment inside a body.
        return math.pi * (
            r * r)
'''


def test_line_counts_of_a_synthetic_source(tmp_path):
    tool = runpy.run_path(str(LINE_COUNTS))
    counts = tool["count"](SYNTHETIC)
    assert counts == {"code": 9, "docstring": 6, "comment": 2, "blank": 5, "total": 22}
    assert counts["total"] == len(SYNTHETIC.splitlines())
    path = tmp_path / "shape.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(LINE_COUNTS), str(path), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, row, _, total = proc.stdout.splitlines()
    assert header.split() == ["file", "total", "code", "docstring", "comment", "blank"]
    assert row.split() == [str(path), "22", "9", "6", "2", "5"]
    assert total.split() == ["total", "44", "18", "12", "4", "10"]


def test_line_counts_default_to_the_package_sources():
    proc = subprocess.run([sys.executable, str(LINE_COUNTS)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    sources = sorted((ROOT / "src" / "ctcsim").glob("*.py"))
    assert [r.split()[0] for r in rows] == [f"src/ctcsim/{p.name}" for p in sources] + ["total"]
    wc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    assert rows[-1].split()[1] == str(wc)


def test_import_time_of_the_package_sources(tmp_path):
    tool = runpy.run_path(str(IMPORT_TIME))
    assert tool["import_us"](ROOT / "src") > 0
    # An import that fails, or one that finds ctcsim elsewhere, is an error.
    (tmp_path / "ctcsim").mkdir()
    for src in (tmp_path, tmp_path / "ctcsim"):
        try:
            tool["import_us"](src)
        except RuntimeError as exc:
            assert str(exc).startswith(f"cannot import ctcsim.cli from {src}")
        else:
            raise AssertionError(f"{src} imported")
    proc = subprocess.run([sys.executable, str(IMPORT_TIME), str(tmp_path)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("usage")

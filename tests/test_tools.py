"""Smoke test: tools/dump_outputs.py writes its full set of tables."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "dump_outputs.py"

EXPECTED = sorted(
    [f"{t}.csv" for t in ("fig3", "fig5a", "fig5b", "fig5c", "fig6", "s1", "s2", "thresholds")]
    + ["thresholds.json", "fig6-grid13.csv"]
    + [f"sweep-{v}-{m}-grid50.csv" for v in ("optimal-gate", "fixed-state", "fixed-gate")
       for m in ("local", "nonlocal")]
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


def test_dump_outputs_takes_no_options(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--grid", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "usage" in proc.stderr
    assert list(tmp_path.iterdir()) == []

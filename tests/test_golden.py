"""Golden tables: every `ctcsim reproduce` target against its committed reference.

The references are the benchmark's tables (perfbench/reference/*.csv.gz),
read only. Numeric columns must agree within 1e-9 and discrete columns
exactly, so a change of engine cannot move a published number unseen.
"""

import csv
import gzip
from pathlib import Path

import pytest

from ctcsim.cli import REPRODUCE_TARGETS, main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
DISCRETE = {"experiment_id", "prep_mode", "n_iterations", "fixed_set_dimension", "parameter"}
ABS_TOL = 1e-9


def read_rows(path: Path) -> list[list[str]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("target", REPRODUCE_TARGETS)
def test_reproduce_matches_reference(tmp_path, capsys, target):
    path = tmp_path / f"{target}.csv"
    assert main(["reproduce", target, "--out", str(path)]) == 0
    capsys.readouterr()
    header, *rows = read_rows(path)
    ref_header, *ref_rows = read_rows(REFERENCE / f"{target}.csv.gz")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        for name, got, expected in zip(header, row, want):
            if name in DISCRETE:
                assert got == expected, f"row {i} {name}: {got} != {expected}"
            else:
                assert abs(float(got) - float(expected)) <= ABS_TOL, (
                    f"row {i} {name}: {got} vs reference {expected}"
                )

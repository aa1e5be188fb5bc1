"""CLI golden: stdout, stderr and exit code of a fixed command matrix, byte for byte.

The matrix covers `discriminate` (both preparations over a phi x p x eps
grid, plus a non-zero phase, an explicit --theta and --deg under each) and
`fixed-point` (both circuits, all three preparations, both solver methods,
and invalid inputs). Every case is replayed through
`cli.main` in process and rendered into one text, which must equal
tests/data/cli_stdout.txt exactly. Regenerate the file only for an
intended change of output:

    PYTHONPATH=src python3 tests/test_cli_golden.py --regenerate
"""

import contextlib
import io
import sys
from pathlib import Path

from ctcsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_stdout.txt"

_PHIS = ("0", "0.5", "1.5707963267948966", "2.5", "3.141592653589793", "5.5")
_PS = ("0", "0.25", "0.7", "1")
_EPSILONS = ("0", "0.3")

CASES = [
    ["discriminate", "--prep", prep, "--phi", phi, "--p", p, "--epsilon", eps]
    for prep in ("local", "nonlocal") for phi in _PHIS for p in _PS for eps in _EPSILONS
] + [["discriminate", "--phi", "4.712", "--p", "0.2"]] + [
    ["discriminate", "--prep", prep, *extra]
    for prep in ("local", "nonlocal") for extra in (
        # A non-zero phase puts the outputs off the xz-plane.
        ("--phi", "1.2", "--phase", "0.7", "--p", "0.1", "--epsilon", "0.05"),
        ("--phi", "2.0", "--theta", "-0.4", "--p", "0.2", "--epsilon", "0.1"),
        ("--phi", "120", "--phase", "45", "--theta", "-30", "--p", "0.3", "--deg"),
    )
] + [
    ["fixed-point", "--circuit", circuit, "--prep", prep, "--method", method,
     "--phi", "1.0", "--p", "0.1", "--epsilon", "0.2"]
    for circuit in ("swap-cnot", "swap-cu") for prep in ("local", "improper", "nonlocal")
    for method in ("eigen_max_entropy", "damped_iteration")
] + [
    ["fixed-point", "--circuit", "swap-cnot", "--theta", "0.3"],
    ["fixed-point", "--p", "1.5"],
    ["fixed-point", "--epsilon", "-0.1"],
    ["fixed-point", "--prep", "nonlocal", "--phi", "nan"],
]


def render_case(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"### {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def test_cli_matrix_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8").split("### ")[1:]
    assert len(want) == len(CASES)
    for argv, expected in zip(CASES, want):
        assert render_case(argv) == "### " + expected, " ".join(argv)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_cli_golden.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(render_case(argv) for argv in CASES), encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")

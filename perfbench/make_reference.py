"""Regenerate the reference tables in `reference/` from the current sources.

    python3 perfbench/make_reference.py

The tables were generated once and are what every later pass is checked
against (see workloads.py). Regenerate them only when a change to the
program's outputs is intended.
"""

from __future__ import annotations

import gzip
import io
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ctcsim.cli as cli  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE,
    PassResult,
    build_requests,
    check_probes,
)


def _store(path: Path, name: str) -> None:
    with open(path, "rb") as src, gzip.GzipFile(REFERENCE / name, "wb", mtime=0) as dst:
        shutil.copyfileobj(src, dst)


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp)
        for workload in ("surface", "catalog"):
            for name, fn, args in build_requests(cli, workload, DEFAULT_SEED, out):
                with redirect_stdout(io.StringIO()):
                    code = fn(*args)
                if code != 0:
                    raise SystemExit(f"{name} exited with {code}")
        for csv_path in sorted(out.glob("*.csv")):
            _store(csv_path, csv_path.name + ".gz")

        probes_ref = f"probes-seed{DEFAULT_SEED}.csv.gz"
        (REFERENCE / probes_ref).unlink(missing_ok=True)
        requests = build_requests(cli, "probes", DEFAULT_SEED, out)
        outcomes = [(name, fn(*args)) for name, fn, args in requests]
        res = PassResult()
        check_probes(res, outcomes, out, DEFAULT_SEED)
        if res.failed:
            raise SystemExit(f"probe invariants failed: {res.problems}")
        _store(out / "probes.csv", probes_ref)
    for path in sorted(REFERENCE.iterdir()):
        print(f"{path.stat().st_size:8d}  {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

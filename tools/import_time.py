"""Time the import of ctcsim.cli in fresh interpreters.

    python3 tools/import_time.py SRC_DIR

starts RUNS (15) fresh interpreters, each running
`import numpy; import ctcsim.cli` under `-X importtime` with SRC_DIR as
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, so every run compiles the
sources, as a start without cached bytecode does. It reads the cumulative
microseconds of the ctcsim.cli line of each import-time report, which cover
the ctcsim package and every module it imports after numpy, and prints
their median and quartiles. Exit code 2 on a usage error, a SRC_DIR without
the ctcsim package or an import that fails or comes from elsewhere.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

CODE = "import numpy; import ctcsim.cli; print(ctcsim.cli.__file__)"
RUNS = 15


def import_us(src: Path) -> int:
    """ctcsim.cli's cumulative import time in microseconds, in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", CODE], env=env, cwd=src,
                          capture_output=True, text=True, timeout=60)
    if done.returncode or Path(done.stdout.strip()).parent != src / "ctcsim":
        raise RuntimeError(f"cannot import ctcsim.cli from {src}: {done.stderr.strip()[-500:]}")
    # Report lines read "import time: <self> | <cumulative> | <indented module name>".
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "ctcsim.cli":
            return int(fields[1])
    raise RuntimeError("no ctcsim.cli line in the import-time report")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Median and quartiles of ctcsim.cli's import time.")
    ap.add_argument("src", type=Path, metavar="SRC_DIR", help="directory that holds ctcsim/")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "ctcsim" / "__init__.py").is_file():
        ap.error(f"no ctcsim package under {args.src}")
    try:
        times = [import_us(src) for _ in range(RUNS)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(f"ctcsim.cli import after numpy over {RUNS} runs: median {median:.0f} us, "
          f"quartiles {q1:.0f} us and {q3:.0f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one pass of a workload in this (fresh) process and print its result as JSON.

    python3 perfbench/worker.py --workload surface --seed 1 --trace 0 --out DIR

`run.py` starts one worker per pass, so that every pass pays what a user's
command pays (cold caches, a new interpreter) and its peak memory is its
own. The last line of standard output is the pass result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True, help="scratch directory for outputs")
    ap.add_argument("--spans", type=Path, help="where to write the spans of a traced pass")
    args = ap.parse_args(argv)

    import ctcsim.cli  # noqa: F401 - import outside the timed region

    tracer = Tracer() if args.trace else None
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        res = run_pass(args.workload, args.seed, args.out, tracer)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    out = dataclasses.asdict(res)
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

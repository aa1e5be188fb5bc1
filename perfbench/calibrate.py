"""Machine-speed calibration, so that times from a shared machine can be compared.

On a shared 2-core machine the same work runs up to 1.8x slower for
stretches of seconds to minutes, depending on what other tenants run.
A median over a 25 s run still moved by 30-45% between runs. So while
the passes run, a sampler process of its own (`Sampler`, this file run as
a script) times a fixed kernel every EVERY_S seconds. The kernel does the
kind of work ctcsim does: small numpy operations driven from Python, and
no ctcsim code. Every time measured in a pass is rescaled to a machine on
which the kernel takes REFERENCE_S:

    calibrated = (measured - samples' time) * REFERENCE_S / median kernel time around it

"Around" is from MARGIN_S before the request starts until MARGIN_S after
it ends: single samples vary by 20% or more, the machine's speed drifts
more slowly than that window. The samples' own time within the request
is left out, because the sampler shares the pass's CPU (below): left in,
it added about 3 ms to one request in ten and raised the p99 of short
requests by up to 30%.

run.py pins itself, and so every process it starts, to one CPU. The
slowdowns are those of a CPU: a sampler on the other, idle CPU did not
follow them (per-pass spread of probes 18% calibrated, 19% raw), while
one on the same CPU did (5% against 8%). The kernel runs in its own
process, neither in the measured one nor in the benchmark's, so what the
program does inside its process (threads contending for the GIL, garbage,
memory) is not divided out; a sample preempts the pass for about 3% of its
time. run.py warns when calibration moves a time by more than 2x, and the
raw times are kept in the result file.

A cold start is mostly interpreter start-up and module loading, which the
kernel does not exercise. So set-up is calibrated against a cold start of
its own: an interpreter that imports numpy and nothing else, run right
after each timed start of ctcsim. Single starts vary by 15% either way,
so both are medians over many starts:

    setup = median ctcsim start * START_REFERENCE_S / median bare start
"""

from __future__ import annotations

import bisect
import math
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Only sets the scale: about the kernel's time on the unloaded machine.
REFERENCE_S = 0.0017
EVERY_S = 0.05
MARGIN_S = 0.25
# About the bare start's time on the unloaded machine.
START_REFERENCE_S = 0.11
BARE_START_CODE = "import time, numpy\nprint(repr(time.perf_counter()))\n"

_H = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
_M = np.arange(16.0).reshape(4, 4) / 16.0 - np.eye(4)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _kernel() -> float:
    # The mix of ctcsim's hot path: Hermitian 2x2 eigenvalues, a 4x4 SVD, a
    # Kronecker product by broadcasting, validation-style reductions, and a
    # frozen dataclass.
    s = 0.0
    for i in range(50):
        h = (_H + _H.conj().T) / 2.0
        s += float(np.linalg.eigvalsh(h)[0])
        s += float(np.linalg.svd(_M, compute_uv=False)[0])
        t = (_H[:, None, :, None] * _H[None, :, None, :]).reshape(4, 4)
        s += float(np.abs(t - t.conj().T).max()) + float(np.trace(t).real)
        s += _Point(i * 0.5, math.sqrt(i)).y
        s += sum(x * 0.5 for x in range(10))
    return s


class Sampler:
    """Runs the sampler process while the `with` block runs; then holds its samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # perf_counter at a kernel's start, end
        self._starts: list[float] = []
        self._ends: list[float] = []

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("calibration sampler did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(input="", timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        self.samples = [(float(a), float(b)) for a, b in map(str.split, out.splitlines())]
        if not self.samples:
            raise RuntimeError("calibration sampler took no samples")
        self._starts = [a for a, _ in self.samples]
        self._ends = [b for _, b in self.samples]
        return False

    def calibrate(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the work done between perf_counter readings t0 and t1."""
        starts, ends = self._starts, self._ends
        inside = self.samples[bisect.bisect_right(ends, t0):bisect.bisect_left(starts, t1)]
        work = (t1 - t0) - sum(min(b, t1) - max(a, t0) for a, b in inside)
        around = self.samples[bisect.bisect_left(starts, t0 - MARGIN_S):
                              bisect.bisect_right(ends, t1 + MARGIN_S)]
        if not around:
            raise RuntimeError(f"no calibration sample within {MARGIN_S} s of a request")
        return work * REFERENCE_S / statistics.median(b - a for a, b in around)


def _sample_until_stdin_closes() -> None:
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # times printed here compare with those of the other processes.
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        samples.append(f"{t0!r} {t1!r}")
    print("\n".join(samples))


if __name__ == "__main__":
    _sample_until_stdin_closes()

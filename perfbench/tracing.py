"""In-memory span tracing of calls into ctcsim's public functions.

The benchmark traces from its own files and changes nothing in the
package: `Tracer.install()` rebinds each traced name in every `ctcsim.*`
module namespace that holds it. Callers bind names at import time
(`from .deutsch import run_scenario` in `experiments`, `selftest` and
`cli`), so rebinding only the defining module would leave those calls
untraced and their counts at zero. `DensityMatrix` is traced at its
`__init__`, which every construction runs.

A span is (name index, start, end, parent span index); spans stay in
memory and are summarised, or written out, after the traced work ends.
Self time is a span's duration minus the durations of its direct
children, which nest inside it because the traced work is single-threaded.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# (layer metric prefix, defining module, attribute). The layer names follow
# the package's modules; `trace_distance` is defined in qmath but counted as
# a distinguishability measure, and `validate_records` is defined in
# experiments but is the CLI's emission guard.
TRACED = (
    ("qmath.DensityMatrix", "ctcsim.qmath", "DensityMatrix"),
    ("circuits.build_interaction", "ctcsim.circuits", "build_interaction"),
    ("deutsch.run_scenario", "ctcsim.deutsch", "run_scenario"),
    ("deutsch.solve_fixed_point", "ctcsim.deutsch", "solve_fixed_point"),
    ("deutsch.superoperator", "ctcsim.deutsch", "superoperator"),
    ("deutsch.consistency_map", "ctcsim.deutsch", "consistency_map"),
    ("deutsch.evolve_output", "ctcsim.deutsch", "evolve_output"),
    ("measures.optimal_mismatch_probability", "ctcsim.measures", "optimal_mismatch_probability"),
    ("measures.mismatch_probability", "ctcsim.measures", "mismatch_probability"),
    ("measures.trace_distance", "ctcsim.qmath", "trace_distance"),
    ("measures.helstrom_success_probability", "ctcsim.measures", "helstrom_success_probability"),
    ("measures.qm_baseline", "ctcsim.measures", "qm_baseline"),
    ("measures.grid_search_mismatch", "ctcsim.measures", "grid_search_mismatch"),
    ("experiments.decoherence_surface", "ctcsim.experiments", "decoherence_surface"),
    ("experiments.discrimination_sweep", "ctcsim.experiments", "discrimination_sweep"),
    ("experiments.nonlinearity_sweep", "ctcsim.experiments", "nonlinearity_sweep"),
    ("experiments.find_threshold", "ctcsim.experiments", "find_threshold"),
    ("cli.validate_records", "ctcsim.experiments", "validate_records"),
    ("cli.write_records_csv", "ctcsim.cli", "write_records_csv"),
)


def _interaction_key(args, kwargs):
    # build_interaction(spec) depends on the gate and its failure rate only;
    # the spec's input noise acts before the loop and is not part of the channel.
    spec = kwargs.get("spec", args[0] if args else None)
    return (spec.kind, spec.theta_xz, spec.gate_noise)


def _call_key(args, kwargs):
    return freeze((args, kwargs))


# Traced functions whose arguments are kept to count distinct calls:
# name -> (ratio metric, key of the work a call asks for).
DISTINCT = {
    "circuits.build_interaction": ("circuits.interaction_distinct_frac", _interaction_key),
    "deutsch.run_scenario": ("deutsch.scenario_distinct_frac", _call_key),
    "measures.qm_baseline": ("measures.qm_baseline_distinct_frac", _call_key),
}


def freeze(obj):
    """Hashable value key of a call argument (dataclasses, arrays, enums, floats)."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.tobytes())
    if type(obj).__name__ == "DensityMatrix":
        return ("DensityMatrix", obj.mat.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            freeze(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (str, int, float, bool, enum.Enum, type(None))):
        return obj
    raise TypeError(f"cannot key argument of type {type(obj).__name__}")


class Tracer:
    """Records spans for the calls into the names in TRACED while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.call_args: dict[str, list] = {name: [] for name in DISTINCT}
        self.fixed_set_dims: list[int] = []
        self.damped_calls = 0
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    @contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself, e.g. around one request."""
        idx = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (idx, t0, t1, parent)

    def _wrap(self, name: str, fn):
        idx = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_args = self.call_args.get(name)
        is_solve = name == "deutsch.solve_fixed_point"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent)
            if keep_args is not None:
                keep_args.append((args, kwargs))
            elif is_solve:
                self.fixed_set_dims.append(result.fixed_set_dimension)
                if kwargs.get("method", args[2] if len(args) > 2 else None) == "damped_iteration":
                    self.damped_calls += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded ctcsim module."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "ctcsim" or k.startswith("ctcsim.")) and m is not None]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            if isinstance(original, type):
                init = original.__init__
                original.__init__ = self._wrap(name, init)
                self._restore.append((original, "__init__", init))
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced name, plus the distinct-call ratios."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * n
        for idx, t0, t1, parent in self.spans:
            calls[idx] += 1
            total[idx] += t1 - t0
            if parent >= 0:
                child[self.spans[parent][0]] += t1 - t0
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i] - child[i]
        for name, (metric, key) in DISTINCT.items():
            seen = self.call_args[name]
            out[metric] = len({key(*call) for call in seen}) / len(seen) if seen else 0.0
        dims = self.fixed_set_dims
        out["deutsch.degenerate_frac"] = sum(d > 1 for d in dims) / len(dims) if dims else 0.0
        out["deutsch.damped_iteration.calls"] = self.damped_calls
        out["experiments.threshold_evals"] = self._calls_under(
            "deutsch.run_scenario", "experiments.find_threshold")
        return out

    def _calls_under(self, name: str, ancestor: str) -> int:
        if name not in self._index or ancestor not in self._index:
            return 0
        want, anc = self._index[name], self._index[ancestor]
        under = [False] * len(self.spans)
        count = 0
        for i, (idx, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] == anc
            if under[i] and idx == want:
                count += 1
        return count

    def write(self, path) -> None:
        """Write the spans as tab-separated name, start, end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for idx, t0, t1, parent in self.spans:
                fh.write(f"{self.names[idx]}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")

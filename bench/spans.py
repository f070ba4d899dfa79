"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so the traced run wraps public
callables of `msgeom` from outside the package.  Each wrapped call records a
span (name, start, end, parent, run id) in memory; `Recorder.dump` writes
them out once the operation is over, and `layer_metrics` turns a span file
into per-layer totals.

A function is patched in its defining module and in every other `msgeom`
module that bound it with `from .x import y`, found by identity, so callers
in any module reach the wrapper.  A name that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np


# A counter is (names of the parameters it reads, count(get, result)), where
# get(name) returns the call's argument of that name.

def _rows(param):
    """Counter: number of points (rows) in the named argument."""
    def count(get, result):
        arr = np.asarray(get(param))
        return 1 if arr.ndim < 2 else arr.shape[0]
    return (param,), count


_RESULT_ROWS = ((), lambda get, result: np.asarray(result[0]).shape[0])
_RESULT_BYTES = ((), lambda get, result: len(result.encode("utf-8")))


def _distinct_theta_args():
    """Counter: calls whose (field, x, r, panels, order) were not seen before."""
    seen = set()

    def count(get, result):
        key = (id(get("field")), np.asarray(get("x"), dtype=float).tobytes(),
               float(get("r")), get("panels"), get("order"))
        if key in seen:
            return 0
        seen.add(key)
        return 1
    return ("field", "x", "r", "panels", "order"), count


# metric prefix -> (module, attribute path, {counter suffix: counter})
LAYERS = {
    "moments.displacement_profile_many": ("moments", "displacement_profile_many",
                                          {"centers": _rows("centers")}),
    "moments.ball_masses_many": ("moments", "ball_masses_many",
                                 {"centers": _rows("centers")}),
    "geometry.SpatialIndex.query_counts": ("geometry", "SpatialIndex.query_counts",
                                           {"centers": _rows("centers")}),
    "covering.discrete_reifenberg_verify": ("covering", "discrete_reifenberg_verify", {}),
    "reifenberg.reconstruct": ("reifenberg", "reconstruct", {}),
    "geometry.AtomicMeasure.mass_in_ball": ("geometry", "AtomicMeasure.mass_in_ball", {}),
    "reifenberg.SigmaMap.apply": ("reifenberg", "SigmaMap.apply",
                                  {"points": _rows("points")}),
    "reifenberg.build_partition": ("reifenberg", "build_partition",
                                   {"centers": _rows("centers")}),
    "reifenberg.measure_estimate": ("reifenberg", "measure_estimate", {}),
    "moments.second_moment_spectrum": ("moments", "second_moment_spectrum", {}),
    "moments.jacobi_eigh": ("moments", "jacobi_eigh", {}),
    "moments.summability_check": ("moments", "summability_check", {}),
    "harmonic.symmetry_distance": ("harmonic", "symmetry_distance", {}),
    "harmonic.quantitative_stratum": ("harmonic", "quantitative_stratum", {}),
    "harmonic.grassmann_candidates": ("harmonic", "grassmann_candidates", {}),
    "covering.inductive_cover": ("covering", "inductive_cover", {}),
    "covering.iterate_cover": ("covering", "iterate_cover", {}),
    "covering.union_ball_volume": ("covering", "union_ball_volume", {}),
    "covering.vitali_subcover": ("covering", "vitali_subcover", {}),
    "harmonic.theta": ("harmonic", "theta",
                       {"distinct_args": _distinct_theta_args()}),
    "harmonic.EnergyField.grad_sq": ("harmonic", "EnergyField.grad_sq",
                                     {"points": _rows("X")}),
    "harmonic.energy_point": ("harmonic", "energy_point", {}),
    "cli.read_cloud_csv": ("cli", "read_cloud_csv", {"rows": _RESULT_ROWS}),
    "report.dump_json": ("report", "dump_json", {"bytes": _RESULT_BYTES}),
    "geometry.SpatialIndex.init": ("geometry", "SpatialIndex.__init__",
                                   {"points": _rows("points")}),
    "geometry.SpatialIndex.query": ("geometry", "SpatialIndex.query", {}),
    "moments.displacement": ("moments", "displacement", {}),
}


def metric_names():
    """Every per-layer metric name the traced run reports, in table order."""
    names = []
    for prefix, (_, _, counters) in LAYERS.items():
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
        names += [f"{prefix}.{suffix}" for suffix in counters]
    return names


class Recorder:
    """In-memory spans and counters of one traced operation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # [name, start, end, parent index]
        self.counters = {}    # metric name -> int
        self.absent = []      # metric prefixes or counters that could not be wrapped
        self.active = True
        self._stack = []

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        params = list(inspect.signature(fn).parameters.values())
        index = {p.name: i for i, p in enumerate(params)}
        defaults = {p.name: p.default for p in params}
        for suffix in counters:
            self.counters[f"{name}.{suffix}"] = 0

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = [name, start, end, parent]
            if counters:
                def get(pname):
                    i = index[pname]
                    return args[i] if i < len(args) else kwargs.get(pname, defaults[pname])
                for suffix, count in counters.items():
                    self.counters[f"{name}.{suffix}"] += int(count(get, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every callable of LAYERS that exists; record the rest as absent."""
        for name, (module_name, path, spec) in LAYERS.items():
            try:
                module = importlib.import_module(f"msgeom.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            params = inspect.signature(fn).parameters
            counters = {}
            for suffix, (needed, count) in spec.items():
                if all(p in params for p in needed):
                    counters[suffix] = count
                else:
                    self.absent.append(f"{name}.{suffix}")
            wrapper = self._wrap(name, fn, counters)
            if owner is module:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "msgeom" or mod_name.startswith("msgeom."):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapper)
            else:
                setattr(owner, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [s + [self.run_id] for s in self.spans],
                       "counters": self.counters,
                       "absent": self.absent,
                       "wrapper_cost_s": wrapper_cost()}, fh)


def wrapper_cost(calls=20000):
    """Seconds one recorded span adds to a call, measured on a no-op.

    Run to run noise on a shared machine swamps the difference between a
    traced and an untraced operation; this times the wrapper alone.
    """
    def noop(value):
        return value

    wrapped = Recorder("calibration")._wrap("noop", noop, {})
    start = time.perf_counter()
    for i in range(calls):
        noop(i)
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(0.0, (time.perf_counter() - start - plain) / calls)


def layer_metrics(path):
    """Per-layer calls, self time and counters from a span file.

    Self time is a span's duration minus the durations of its direct child
    spans.  Also returns the span count, their estimated cost (count times
    the measured wrapper cost), the summed duration of root spans (the part
    of the operation some wrapped callable covers) and the absent names.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = {}, {}
    covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        if parent < 0:
            covered += end - start
    metrics = {}
    for prefix, (_, _, spec) in LAYERS.items():
        metrics[f"{prefix}.calls"] = calls.get(prefix, 0)
        metrics[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        for suffix in spec:
            metrics[f"{prefix}.{suffix}"] = doc["counters"].get(f"{prefix}.{suffix}", 0)
    return metrics, {"spans": len(spans), "span_cost_s": len(spans) * doc["wrapper_cost_s"],
                     "covered_s": covered, "absent": doc["absent"]}

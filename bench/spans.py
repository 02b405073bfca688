"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``stosub`` layers from outside:
each wrapper replaces every binding of the original function object in the
package's module namespaces, so calls made through ``from .x import f``
names are recorded too.  Spans are kept in memory as
``[name, start, end, parent]`` and turned into per-function call counts,
total time and self time (duration minus the time covered by child spans)
after the run.  A few wrappers also read arguments or results to count work
(distinct item sets, weight-kernel terms, ratios examined, tree nodes).
"""

from __future__ import annotations

import collections.abc
import functools
import json
import sys
import time
from contextlib import contextmanager

# Public entry points, named by defining module and function.
ENTRY_POINTS = (
    "cli.main",
    "harness.load_scenarios",
    "harness.run_suite",
    "harness.run_pipeline",
    "harness.write_report",
    "fileio.dumps",
    "generators.generate_common_cause",
    "generators.generate_product",
    "model.expected_set_value",
    "independence.kappa",
    "independence.gamma",
    "multilinear.optimistic_weight",
    "multilinear.optimistic_weight_estimate",
    "multilinear.multilinear_value",
    "greedy.step",
    "greedy.run",
    "greedy.lower_bound_certificate",
    "constraints.lp_maximize",
    "policies.optimal_adaptive",
    "policies.best_nonadaptive",
    "policies.virtual_nonadaptive_value",
    "rounding.pipage_round",
)

# Counters derived from arguments and results, beyond calls/total_s/self_s.
DERIVED = {
    "rounding.pipage_round.us_per_call": "us",
    "model.expected_set_value.distinct_ratio": "ratio",
    "multilinear.optimistic_weight.cold_s": "s",
    "multilinear.optimistic_weight.warm_s": "s",
    "multilinear.terms": "count",
    "greedy.run.rounds": "count",
    "independence.ratios": "count",
    "independence.ratios_per_s": "1/s",
    "policies.optimal_adaptive.nodes": "count",
    "fileio.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in ENTRY_POINTS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _count_nodes(node) -> int:
    branches = getattr(node, "branches", ())
    return 1 + sum(_count_nodes(child) for _, child in branches)


class Recorder:
    """Keeps spans and work counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = collections.defaultdict(float)
        self._distinct_sets: set = set()
        self._warm_instances: set[int] = set()
        self._keep_alive: dict[int, object] = {}

    # -- argument and result hooks -------------------------------------
    def _note_expected_set_value(self, args, kwargs, result, span):
        instance, items = args[0], args[1]
        self._keep_alive[id(instance)] = instance
        self._distinct_sets.add((id(instance), frozenset(items)))

    def _note_optimistic_weight(self, args, kwargs, result, span):
        instance = args[0]
        duration = span[2] - span[1]
        if id(instance) in self._warm_instances:
            self.counters["multilinear.optimistic_weight.warm_s"] += duration
        else:
            self._keep_alive[id(instance)] = instance
            self._warm_instances.add(id(instance))
            self.counters["multilinear.optimistic_weight.cold_s"] += duration
        self.counters["multilinear.terms"] += 1 << (instance.m - 1)

    def _note_run(self, args, kwargs, result, span):
        self.counters["greedy.run.rounds"] += len(result.rounds)

    def _note_independence(self, args, kwargs, result, span):
        self.counters["independence.ratios"] += result.ratios_examined

    def _note_optimal_adaptive(self, args, kwargs, result, span):
        self.counters["policies.optimal_adaptive.nodes"] += _count_nodes(
            result[0].root
        )

    def _hook(self, name):
        return {
            "model.expected_set_value": self._note_expected_set_value,
            "multilinear.optimistic_weight": self._note_optimistic_weight,
            "greedy.run": self._note_run,
            "independence.kappa": self._note_independence,
            "independence.gamma": self._note_independence,
            "policies.optimal_adaptive": self._note_optimal_adaptive,
        }.get(name)

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._hook(name)
        materialize = name == "model.expected_set_value"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize and isinstance(args[1], collections.abc.Iterator):
                args = (args[0], tuple(args[1])) + args[2:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(args, kwargs, result, span)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of each entry point in the package namespaces."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "stosub" or key.startswith("stosub."))
        ]
        replaced = []
        for name in ENTRY_POINTS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"stosub.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in replaced:
                setattr(module, key, original)

    # -- results -------------------------------------------------------
    def summary(self, wall_start: float, wall_end: float) -> dict[str, float]:
        """Per-function calls, total and self time, plus the derived counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in metric_units()}
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += duration
            out[f"{name}.self_s"] += duration - child_time[index]
            if parent < 0 and start >= wall_start and end <= wall_end:
                covered += duration
        for key, value in self.counters.items():
            out[key] = value
        calls = out["rounding.pipage_round.calls"]
        if calls:
            out["rounding.pipage_round.us_per_call"] = (
                1e6 * out["rounding.pipage_round.total_s"] / calls
            )
        calls = out["model.expected_set_value.calls"]
        if calls:
            out["model.expected_set_value.distinct_ratio"] = (
                len(self._distinct_sets) / calls
            )
        busy = out["independence.kappa.total_s"] + out["independence.gamma.total_s"]
        if busy:
            out["independence.ratios_per_s"] = out["independence.ratios"] / busy
        out["trace.wall_s"] = wall_end - wall_start
        out["trace.uncovered_s"] = (wall_end - wall_start) - covered
        out["trace.spans"] = len(self.spans)
        for metric, unit in metric_units().items():
            if unit == "count":
                out[metric] = int(out[metric])
        return out

    def write_sidecar(self, path, wall_start: float, wall_end: float):
        """Write the raw spans beside the run's other outputs, never into them."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "names": names,
            "wall": [wall_start, wall_end],
            "spans": [
                [index[name], start, end, parent]
                for name, start, end, parent in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))

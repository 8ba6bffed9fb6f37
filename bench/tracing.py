"""Spans around the package's layer functions, installed from outside ``src/``.

``install(sb)`` replaces each function in ``LAYERS`` with a wrapper that
records a span ``[name, start, end, parent]`` and, for some layers, a few
counters read off the arguments and the result.  The replacement is made in
every ``stratabound`` module that holds the function under any name (for
example ``boundary`` imports ``full_modification`` and ``cli`` imports
``boundary_set`` by name), so callers inside the package hit the wrapper too.

A span's self time is its duration minus the durations of its direct
children.  Time in functions not listed here counts towards the nearest
listed caller, or towards ``trace.unattributed_s`` at the top level.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "newton": ("enumerate_polygons",),
    "sequences": ("minimal_abs", "abs_to_json", "render_ascii"),
    "modification": (
        "small_modification",
        "construction_a",
        "construction_b",
        "full_modification",
        "trace_to_json",
        "render_trace_ascii",
    ),
    "weyl": ("generic_specializations_oracle", "specializes", "coxeter_length", "jw_elements"),
    "boundary": (
        "boundary_set",
        "boundary_set_oracle",
        "verify_direct_sum",
        "verify_curtailment",
        "verify_duality",
    ),
    "cli": ("main",),
}

VERDICTS = {
    "Generic": "generic",
    "NonGenericLengthDrop": "length_drop",
    "NonGenericANeverEmpty": "a_never_empty",
    "NonGenericBNeverEmpty": "b_never_empty",
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [("newton.enumerate_polygons.items", "count", "lower"), ("newton.enumerate_polygons.self_s", "s", "lower")]
    + [
        (f"sequences.{fn}.{part}", unit, "lower")
        for fn in ("minimal_abs", "abs_to_json", "render_ascii")
        for part, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [("modification.small_modification.calls", "count", "lower"), ("modification.small_modification.self_s", "s", "lower")]
    + [
        (f"modification.{fn}.{part}", unit, "lower")
        for fn in ("construction_a", "construction_b")
        for part, unit in (("calls", "count"), ("self_s", "s"), ("stages", "count"))
    ]
    + [("modification.full_modification.self_s", "s", "lower")]
    + [
        (f"modification.verdict.{v}", "count", "higher" if v == "generic" else "lower")
        for v in VERDICTS.values()
    ]
    + [
        ("modification.generic_ratio", "ratio", "higher"),
        ("modification.trace_to_json.self_s", "s", "lower"),
        ("modification.render_trace_ascii.self_s", "s", "lower"),
        ("weyl.generic_specializations_oracle.calls", "count", "lower"),
        ("weyl.generic_specializations_oracle.self_s", "s", "lower"),
        ("weyl.specializes.calls", "count", "lower"),
        ("weyl.specializes.cold_calls", "count", "lower"),
        ("weyl.specializes.cold_s", "s", "lower"),
        ("weyl.specializes.warm_s", "s", "lower"),
        ("weyl.specializes.accept_ratio", "ratio", "higher"),
        ("weyl.coxeter_length.calls", "count", "lower"),
        ("weyl.coxeter_length.self_s", "s", "lower"),
        ("weyl.jw_elements.self_s", "s", "lower"),
        ("weyl.wj_table_elements", "count", "lower"),
        ("boundary.boundary_set.calls", "count", "lower"),
        ("boundary.boundary_set.distinct", "count", "lower"),
        ("boundary.boundary_set.distinct_ratio", "ratio", "higher"),
        ("boundary.boundary_set.self_s", "s", "lower"),
        ("boundary.boundary_set_oracle.calls", "count", "lower"),
        ("boundary.boundary_set_oracle.self_s", "s", "lower"),
    ]
    + [
        (f"boundary.verify_{kind}.{part}", unit, "lower")
        for kind in ("direct_sum", "curtailment", "duality")
        for part, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
)

# Computed from the contexts built, not measured; reports say so.
COMPUTED = {"weyl.wj_table_elements"}


class Tracer:
    """In-memory spans and counters; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.cold_keys: set = set()
        self.distinct: set = set()

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    # counters read off arguments and results ---------------------------------

    def _enumerate(self, fn):
        # A generator's work happens while it is consumed, so the wrapper
        # materialises it inside the span.
        def materialised(*args, **kwargs):
            items = list(fn(*args, **kwargs))
            self.counts["newton.enumerate_polygons.items"] += len(items)
            return iter(items)

        return materialised

    def _construction_a(self, span, args, kwargs, trace):
        self.counts["modification.construction_a.stages"] += len(trace.stages)

    def _construction_b(self, span, args, kwargs, trace):
        partial = args[0] if args else kwargs["trace"]
        self.counts["modification.construction_b.stages"] += len(trace.stages) - len(partial.stages)

    def _full_modification(self, span, args, kwargs, trace):
        self.counts[f"modification.verdict.{VERDICTS[trace.verdict]}"] += 1

    def _specializes(self, span, args, kwargs, accepted):
        ctx = args[2] if len(args) > 2 else kwargs["ctx"]
        key = (ctx.h, ctx.c)
        duration = span[2] - span[1]
        if key in self.cold_keys:
            self.counts["weyl.specializes.warm_s"] += duration
        else:
            self.cold_keys.add(key)
            self.counts["weyl.specializes.cold_calls"] += 1
            self.counts["weyl.specializes.cold_s"] += duration
        self.counts["weyl.specializes.accepted"] += bool(accepted)

    def _boundary_set(self, span, args, kwargs, result):
        self.distinct.add(str(args[0] if args else kwargs["polygon"]))

    def observers(self):
        return {
            "modification.construction_a": self._construction_a,
            "modification.construction_b": self._construction_b,
            "modification.full_modification": self._full_modification,
            "weyl.specializes": self._specializes,
            "boundary.boundary_set": self._boundary_set,
        }

    # aggregation -------------------------------------------------------------

    def layer_metrics(self, start: float, end: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose timed loop ran from ``start`` to ``end``."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, opened, closed, parent = self.spans[i]
            duration = closed - opened
            calls[name] += 1
            self_s[name] += duration - child_s[i]
            if parent >= 0:
                child_s[parent] += duration
        # Root spans inside the loop; enumeration before it is not part of the wall.
        top_level = sum(c - o for _, o, c, parent in self.spans if parent < 0 and o >= start)

        out = {}
        for name, unit, _ in METRICS:
            layer, _, part = name.rpartition(".")
            if part == "calls":
                out[name] = calls[layer]
            elif part == "self_s":
                out[name] = self_s[layer]
            else:
                out[name] = self.counts[name]
        full = calls["modification.full_modification"]
        out["modification.generic_ratio"] = self.counts["modification.verdict.generic"] / full if full else 0.0
        spec = calls["weyl.specializes"]
        out["weyl.specializes.accept_ratio"] = self.counts["weyl.specializes.accepted"] / spec if spec else 0.0
        out["weyl.wj_table_elements"] = sum(math.factorial(c) * math.factorial(h - c) for h, c in self.cold_keys)
        bsets = calls["boundary.boundary_set"]
        out["boundary.boundary_set.distinct"] = len(self.distinct)
        out["boundary.boundary_set.distinct_ratio"] = len(self.distinct) / bsets if bsets else 0.0
        out["trace.wall_s"] = end - start
        out["trace.unattributed_s"] = end - start - top_level
        return out


def install(sb, tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a ``stratabound`` module holds it."""
    modules = [m for name, m in sys.modules.items() if name == "stratabound" or name.startswith("stratabound.")]
    observers = tracer.observers()
    for module_name, functions in LAYERS.items():
        module = getattr(sb, module_name)
        for fn_name in functions:
            original = getattr(module, fn_name)
            layer = f"{module_name}.{fn_name}"
            target = tracer._enumerate(original) if layer == "newton.enumerate_polygons" else original
            wrapper = tracer.wrap(layer, target, observers.get(layer))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

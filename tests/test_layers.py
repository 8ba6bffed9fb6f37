"""The benchmark's traced layer names must stay real package functions, its verdict map must cover every verdict, and its split-API stage counters must count the one pass's phases."""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from stratabound.modification import construction_a, construction_b, eligible_pairs, full_modification
from stratabound.newton import enumerate_polygons
from stratabound.sequences import minimal_abs

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, names", sorted(load_tracing().LAYERS.items()))
def test_layer_functions_exist(module_name, names):
    module = importlib.import_module(f"stratabound.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"stratabound.{module_name}.{name}"


def test_every_verdict_has_a_traced_counter():
    # The traced run's full_modification observer indexes VERDICTS by the
    # trace's verdict, so an unmapped verdict would raise KeyError there.
    verdicts = set()
    for poly in enumerate_polygons(8):
        S = minimal_abs(poly)
        verdicts.update(full_modification(S, pair).verdict for pair in eligible_pairs(S))
    assert verdicts <= load_tracing().VERDICTS.keys(), verdicts


def test_split_api_observers_count_the_phase_stages():
    # The traced run counts modification.construction_{a,b}.stages off the
    # split API's results; fed those results, its observers must count the A
    # and B stages of full_modification's one pass.
    tracer = load_tracing().Tracer()
    kinds = Counter()
    for poly in enumerate_polygons(8):
        S = minimal_abs(poly)
        for pair in eligible_pairs(S):
            partial = construction_a(S, pair)
            tracer._construction_a(None, (S, pair), {}, partial)
            tracer._construction_b(None, (partial,), {}, construction_b(partial))
            kinds.update(stage[0] for stage in full_modification(S, pair).id_stages)
    assert kinds == {"A": 2985, "B": 4209}
    counts = tracer.counts
    assert counts["modification.construction_a.stages"] == kinds["A"]
    assert counts["modification.construction_b.stages"] == kinds["B"]

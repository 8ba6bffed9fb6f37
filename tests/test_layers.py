"""The benchmark's traced layer names must stay real package functions, and its verdict map must cover every verdict."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from stratabound.modification import eligible_pairs, full_modification
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

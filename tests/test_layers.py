"""The benchmark's traced layer names must stay real package functions."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, names", sorted(load_layers().items()))
def test_layer_functions_exist(module_name, names):
    module = importlib.import_module(f"stratabound.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"stratabound.{module_name}.{name}"

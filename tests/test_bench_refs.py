"""Every benchmark item still gives its pinned summary: an output change shows here before the benchmark refuses it."""

from __future__ import annotations

import gzip
import importlib.util
import json
from pathlib import Path

import pytest

import stratabound
import stratabound.cli  # noqa: F401  (cli_traces calls it through the package)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    # Read-only: the module is loaded from its file, not imported as a package.
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_every_item_matches_its_pin(name):
    with gzip.open(BENCH / "refs" / f"{name}.json.gz", "rt") as f:
        refs = json.load(f)["items"]
    got = {key: summarize(call()) for key, call, summarize in WORKLOADS.every_item(stratabound, name)}
    assert got.keys() == refs.keys()
    mismatches = [key for key in refs if got[key] != refs[key]]
    assert not mismatches, f"{len(mismatches)} of {len(refs)}, e.g. {mismatches[0]}: {got[mismatches[0]]!r}"

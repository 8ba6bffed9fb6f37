#!/usr/bin/env python3
"""Pin the reference outputs that every benchmark pass is checked against.

Usage (from the root of a checkout):
    python3 bench/pin.py [workload ...]

Runs every item any seed can draw (all of census, oracle_sweep and
verify_suite; the whole cli_traces pool) in this process and writes
``bench/refs/<workload>.json.gz``.  It refuses to write a file whose
contents contradict the anchors below, which were established before the
references were first pinned.  Re-pin only when an output is meant to
change; the point of the references is that optimisations leave them alone.
"""

from __future__ import annotations

import gzip
import json
import sys

from common import BENCH, SRC, check_imported, require_source
from workloads import SIZES, WORKLOADS, every_item

ANCHORS = {
    "census": 8726,
    "oracle_sweep": 338,
    "verify_suite": 653,
    "cli_traces": 270,
}
CENSUS_GENERIC_NON_ADJACENT = 2164


def check_anchors(name: str, items: dict[str, str]) -> list[str]:
    problems = []
    if len(items) != ANCHORS[name]:
        problems.append(f"{len(items)} items, anchor {ANCHORS[name]}")
    bad = [k for k, v in items.items() if v.startswith("raised")]
    if name == "oracle_sweep":
        bad += [k for k, v in items.items() if not v.startswith("agree")]
    if name == "verify_suite":
        bad += [k for k, v in items.items() if not v.startswith("ok ")]
    if name == "cli_traces":
        bad += [k for k, v in items.items() if not v.startswith("exit 0 ")]
    if bad:
        problems.append(f"{len(bad)} failing items, e.g. {bad[0]}: {items[bad[0]]}")
    if name == "census":
        generic_far = 0
        for key, value in items.items():
            pair = key.split("|")[1]
            zero_segment, one_segment = int(pair.split(",")[0].split(":")[1]), int(pair.split(",")[1].split(":")[1])
            if value.startswith("Generic ") and one_segment != zero_segment + 1:
                generic_far += 1
        if generic_far != CENSUS_GENERIC_NON_ADJACENT:
            problems.append(f"{generic_far} generic non-adjacent traces, anchor {CENSUS_GENERIC_NON_ADJACENT}")
    return problems


def main(argv: list[str]) -> int:
    require_source()
    sys.path.insert(0, str(SRC))
    import stratabound
    import stratabound.cli  # noqa: F401

    check_imported(stratabound)
    status = 0
    for name in argv or sorted(WORKLOADS):
        items = {}
        for key, call, summarize in every_item(stratabound, name):
            try:
                items[key] = summarize(call())
            except Exception as exc:
                items[key] = f"raised {type(exc).__name__}: {exc}"
        problems = check_anchors(name, items)
        if problems:
            print(f"{name}: not written: " + "; ".join(problems), file=sys.stderr)
            status = 1
            continue
        path = BENCH / "refs" / f"{name}.json.gz"
        path.parent.mkdir(exist_ok=True)
        payload = json.dumps({"workload": name, "size": SIZES[name], "items": dict(sorted(items.items()))}, indent=0)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as f:
            f.write(payload.encode())
        print(f"{name}: {len(items)} references -> {path.relative_to(BENCH.parent)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

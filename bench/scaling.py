#!/usr/bin/env python3
"""Reprint the height-scaling table of ROADMAP.md from this checkout's code.

Usage (from the root of a checkout):
    python3 bench/scaling.py

Rows: ``modification_census(h)`` and ``boundary_set`` over every polygon for
h = 8..11, and the oracle sweep (``stratabound sweep --height h``) for
h = 8..9.  Each cell is one cold run in a fresh interpreter, timed from the
first call to the last; it is a one-shot table, not a steady measurement
(the benchmark proper is run.py).  Takes about a minute, most of it the h=9
sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import SRC, check_imported, require_source, spawn  # noqa: E402

HEIGHTS = (8, 9, 10, 11)
ROWS = (
    ("census", "`modification_census` (traces)", HEIGHTS),
    ("boundary", "`boundary_set`, all polygons (polygons)", HEIGHTS),
    ("sweep", "oracle sweep, all polygons (polygons)", (8, 9)),
)


def cell(kind: str, height: int) -> dict:
    sys.path.insert(0, str(SRC))
    import stratabound
    import stratabound.cli

    check_imported(stratabound)
    start = perf_counter()
    if kind == "census":
        count = len(stratabound.modification_census(height))
    elif kind == "boundary":
        polygons = list(stratabound.newton.enumerate_polygons(height))
        for p in polygons:
            stratabound.boundary_set(p)
        count = len(polygons)
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = stratabound.cli.main(["sweep", "--height", str(height)])
        if code != 0:
            raise SystemExit(f"sweep --height {height} exited {code}")
        count = len(out.getvalue().splitlines()) - 1
    return {"seconds": perf_counter() - start, "count": count}


def main() -> int:
    require_source()
    ncpu = os.cpu_count()
    print(f"| workload (this checkout, {ncpu} cores, Python {platform.python_version()}) | "
          + " | ".join(f"h={h}" for h in HEIGHTS) + " |")
    print("| --- |" + " --- |" * len(HEIGHTS))
    status = 0
    for kind, label, heights in ROWS:
        cells = []
        for h in HEIGHTS:
            if h not in heights:
                cells.append("—")
                continue
            _, reply = spawn("scaling.py", "--cell", kind, str(h), timeout=900)
            if "error" in reply:
                cells.append("error")
                print(f"{kind} h={h}: {reply['error']}", file=sys.stderr)
                status = 1
                continue
            cells.append(f"{reply['seconds']:.2f} s ({reply['count']})")
        print(f"| {label} | " + " | ".join(cells) + " |")
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cell"]:
        print(json.dumps(cell(sys.argv[2], int(sys.argv[3]))))
    else:
        sys.exit(main())

#!/usr/bin/env python3
"""Census of boundary-set sizes, optionally cross-checked against the oracle.

Example:
    python scripts/boundary_census.py --height 6 --oracle

Exits 0 when the oracle agrees on every polygon, 2 on a mismatch, and 3 with
``budget exceeded: ...`` on stderr when one specialization search needs more
nodes than ``--budget``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

from stratabound.boundary import boundary_set, boundary_set_oracle
from stratabound.errors import ContextTooLarge
from stratabound.newton import enumerate_polygons
from stratabound.weyl import resolve_budget


@dataclass(frozen=True)
class Config:
    height: int
    oracle: bool
    budget: int | None


def parse_args(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--height", type=int, default=6, help="maximum total height")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the specialization-order oracle and compare",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="most nodes one specialization search of the oracle may visit (default 10^6, at least 1)",
    )
    args = parser.parse_args(argv)
    try:
        resolve_budget(args.budget)
    except ValueError as exc:
        parser.error(str(exc))
    return Config(height=args.height, oracle=args.oracle, budget=args.budget)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    sizes = Counter()
    mismatches = 0
    for polygon in enumerate_polygons(cfg.height):
        bset = boundary_set(polygon)
        n = len(bset.types())
        sizes[n] += 1
        line = f"{str(polygon):30s} |B| = {n}"
        if cfg.oracle:
            try:
                oracle = boundary_set_oracle(polygon, budget=cfg.budget)
            except ContextTooLarge as exc:
                print(f"budget exceeded: {exc}", file=sys.stderr)
                return 3
            agree = bset.types() == oracle.types()
            mismatches += 0 if agree else 1
            line += "  oracle: " + ("agree" if agree else "MISMATCH")
        print(line)
    print()
    print("size histogram (|B| -> #polygons):")
    for size in sorted(sizes):
        print(f"  {size:3d} -> {sizes[size]}")
    if cfg.oracle:
        print(f"mismatches: {mismatches}")
        return 0 if mismatches == 0 else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

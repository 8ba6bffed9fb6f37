#!/usr/bin/env python3
"""Verdict-by-adjacency census over every 0-before-1 pair of every polygon.

The interesting column is generic verdicts from non-adjacent pairs: they
appear exactly when the polygon repeats a segment, because swapping two equal
segments is a symmetry of the whole cascade that changes the segment numbers
of a pair without changing its verdict.

Example:
    python scripts/pair_census.py --height 8 --witnesses 5
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

from stratabound.modification import GENERIC, modification_census


@dataclass(frozen=True)
class Config:
    height: int
    witnesses: int


def parse_args(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--height", type=int, default=8, help="maximum total height")
    parser.add_argument(
        "--witnesses",
        type=int,
        default=3,
        help="how many generic non-adjacent witnesses to print",
    )
    args = parser.parse_args(argv)
    return Config(height=args.height, witnesses=args.witnesses)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows = modification_census(cfg.height)
    table = Counter()
    witnesses = []
    for row in rows:
        if row.adjacent:
            column = "adjacent"
        elif row.renaming_adjacent():
            column = "renameable"
        else:
            column = "distant"
        table[(row.verdict, column)] += 1
        if row.verdict == GENERIC and column != "adjacent":
            witnesses.append(row)

    verdicts = sorted({v for v, _ in table})
    columns = ["adjacent", "renameable", "distant"]
    width = max(len(v) for v in verdicts) + 2
    print(f"{'verdict':{width}s}" + "".join(f"{c:>12s}" for c in columns) + f"{'total':>10s}")
    for verdict in verdicts:
        counts = [table[(verdict, c)] for c in columns]
        print(f"{verdict:{width}s}" + "".join(f"{n:12d}" for n in counts) + f"{sum(counts):10d}")
    print(f"\ntraces: {len(rows)}")

    print(f"generic verdicts from non-adjacent pairs: {len(witnesses)}")
    for row in witnesses[: cfg.witnesses]:
        print(f"  {row.polygon}  pair {row.pair}")
    distant_generic = [w for w in witnesses if not w.renaming_adjacent()]
    print(f"generic verdicts beyond renaming-adjacency: {len(distant_generic)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

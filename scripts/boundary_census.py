#!/usr/bin/env python3
"""Census of boundary-set sizes: one |B| row per polygon, then a histogram.

The oracle cross-check over the same polygons is ``stratabound sweep
--height h``.

Exit codes: 0 ok, 1 usage error.

Example:
    python scripts/boundary_census.py --height 6
"""

from __future__ import annotations

import sys
from collections import Counter

from stratabound.boundary import boundary_set
from stratabound.cli import Parser, ascii_int
from stratabound.newton import enumerate_polygons


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--height", type=ascii_int, default=6, help="maximum total height")
    args = parser.parse_args(argv)
    if args.height < 0:
        parser.error(f"--height must be at least 0, got {args.height}")
    sizes = Counter()
    for polygon in enumerate_polygons(args.height):
        n = len(boundary_set(polygon).elements)
        sizes[n] += 1
        print(f"{str(polygon):30s} |B| = {n}")
    print()
    print("size histogram (|B| -> #polygons):")
    for size in sorted(sizes):
        print(f"  {size:3d} -> {sizes[size]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

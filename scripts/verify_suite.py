#!/usr/bin/env python3
"""Run every structure verification over its full applicable range.

Covers the three report-producing checks:
  * direct-sum decomposition for polygons with two or three segments,
  * curtailment identification for two-segment polygons with second slope >= 1/2,
  * duality for all two-segment polygons.

Exit codes: 0 when every verification passes, 1 on a usage error, 2 when a
verification fails.

Example:
    python scripts/verify_suite.py --direct-sum-height 10 --two-segment-height 12
"""

from __future__ import annotations

import sys

from stratabound.boundary import verify_curtailment, verify_direct_sum, verify_duality
from stratabound.cli import Parser, ascii_int
from stratabound.newton import enumerate_polygons


def reports(direct_sum_height: int, two_segment_height: int):
    """Yield every verification report, in the order main prints them."""
    for polygon in enumerate_polygons(direct_sum_height, min_z=2, max_z=3):
        yield verify_direct_sum(polygon)
    for polygon in enumerate_polygons(two_segment_height, min_z=2, max_z=2):
        if 2 * polygon.segments[1].n >= polygon.segments[1].height:
            yield verify_curtailment(polygon)
        yield verify_duality(polygon)


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--direct-sum-height", type=ascii_int, default=10)
    parser.add_argument("--two-segment-height", type=ascii_int, default=12)
    parser.add_argument("--quiet", action="store_true", help="print failures only")
    args = parser.parse_args(argv)
    heights = {"--direct-sum-height": args.direct_sum_height, "--two-segment-height": args.two_segment_height}
    for flag, height in heights.items():
        if height < 0:
            parser.error(f"{flag} must be at least 0, got {height}")
    checked = failures = 0
    for report in reports(args.direct_sum_height, args.two_segment_height):
        checked += 1
        if not report.ok:
            failures += 1
            print(f"FAIL {report.kind} {report.polygon}: {report.witness}")
        elif not args.quiet:
            print(f"ok   {report.kind} {report.polygon}")
    print(f"\n{checked} verifications, {failures} failures")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())

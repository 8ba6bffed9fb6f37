"""Pin every polygon's boundary types up to height 12 in a gzipped JSON file.

The file maps each polygon (``str(polygon)``) to the sorted 0/1 words of its
boundary set ``B``.  It is written only when ``boundary_set`` agrees with
``boundary_set_oracle`` on every polygon; on the first disagreement this
exits 1 and writes nothing.  The JSON is sorted-key and compact and the gzip
header carries no timestamp, so a rewrite of the same answers is
byte-identical.

Run from the repository root:
    PYTHONPATH=src python tests/pin_boundary_types.py
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

from stratabound.boundary import boundary_set, boundary_set_oracle
from stratabound.newton import enumerate_polygons

HEIGHT = 12
PINNED = Path(__file__).resolve().parent / "golden" / "boundary_types_h12.json.gz"


def boundary_types(polygon) -> list[str]:
    return sorted("".join(map(str, t)) for t in boundary_set(polygon).types())


def load(path: Path = PINNED) -> dict[str, list[str]]:
    return json.loads(gzip.decompress(path.read_bytes()))


def main(path: Path = PINNED) -> int:
    table = {}
    for polygon in enumerate_polygons(HEIGHT):
        if boundary_set(polygon).types() != boundary_set_oracle(polygon).types():
            print(f"not writing {path}: the oracle disagrees on {polygon}", file=sys.stderr)
            return 1
        table[str(polygon)] = boundary_types(polygon)
    payload = json.dumps(table, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(gzip.compress(payload, mtime=0))
    print(f"wrote {path}: {len(table)} polygons, {sum(map(len, table.values()))} types")
    return 0


if __name__ == "__main__":
    sys.exit(main())

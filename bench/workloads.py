"""The four workloads: which items they run, in what order, and what each item outputs.

Each workload is a closed loop run by one process and one thread: the next
item starts when the previous one returns.  Each workload function
``(sb, seed)`` enumerates its polygons up front (so generation never
interleaves with timing) and returns an iterator of ``(key, call,
summarize)``; the seed sets the item order.  Only ``call()`` is
timed per item; ``summarize`` turns its result into the short string that is
compared with the pinned reference for ``key``.  Library functions are looked
up through their modules at call time, so the traced run sees its wrappers.

Why these four: ``census`` is the cascade layer alone (``sequences`` +
``modification``), ``oracle_sweep`` is dominated by ``weyl.specializes`` and
its ``W_J`` tables, ``verify_suite`` reuses the cascade on recurring
sub-polygons (where memoisation would show), and ``cli_traces`` is the only
one that parses argv and renders stages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import partial

CENSUS_HEIGHT = 10
ORACLE_HEIGHT = 8
DIRECT_SUM_HEIGHT = 10  # scripts/verify_suite.py defaults
TWO_SEGMENT_HEIGHT = 12
CLI_PAIRS_PER_POLYGON = 2

# Forty polygons of height 14-18 with two or three segments, each with up to
# three adjacent pairs spread over its eligible pairs.  A run's sample takes
# every polygon's boundary command and, for CLI_PAIRS_PER_POLYGON of its
# pairs drawn by the seed, both modify commands.  Drawing within each
# polygon keeps the sample's cost nearly the same for every seed; all
# commands of the pool are pinned.
CLI_POOL = (
    ("0,1+0,1+1,15", ("0:2:1,1:3:1",)),
    ("0,1+1,9+1,2", ("0:1:1,1:2:1", "0:2:3,1:3:1", "0:2:6,1:3:1")),
    ("0,1+1,5+2,5", ("0:1:1,1:2:1", "0:2:2,1:3:2", "0:2:3,1:3:2")),
    ("0,1+4,13", ("0:1:1,1:2:1", "0:1:1,1:2:2", "0:1:1,1:2:3")),
    ("0,1+1,2+7,5", ("0:1:1,1:2:1", "0:2:2,1:3:3", "0:2:2,1:3:6")),
    ("0,1+3,4+7,1", ("0:1:1,1:2:1", "0:2:4,1:3:7", "0:2:6,1:3:4")),
    ("0,1+7,5+2,1", ("0:1:1,1:2:1", "0:1:1,1:2:4", "0:1:1,1:2:7")),
    ("0,1+7,2+4,1", ("0:1:1,1:2:1", "0:1:1,1:2:3", "0:1:1,1:2:6")),
    ("1,11+1,4", ("0:1:2,1:2:1", "0:1:4,1:2:1", "0:1:6,1:2:1")),
    ("1,9+1,3", ("0:1:2,1:2:1", "0:1:4,1:2:1", "0:1:6,1:2:1")),
    ("1,8+1,2+1,2", ("0:1:2,1:2:1", "0:1:4,1:2:1", "0:1:6,1:2:1")),
    ("1,7+1,3+1,3", ("0:1:2,1:2:1", "0:1:3,1:2:1", "0:1:4,1:2:1")),
    ("1,7+7,1", ("0:1:2,1:2:1", "0:1:4,1:2:3", "0:1:6,1:2:5")),
    ("1,6+2,3+1,1", ("0:1:2,1:2:1", "0:1:3,1:2:2", "0:1:5,1:2:1")),
    ("2,11+1,1+1,0", ("0:1:3,1:2:1", "0:1:6,1:2:1", "0:1:9,1:2:1")),
    ("1,5+4,7", ("0:1:2,1:2:1", "0:1:3,1:2:1", "0:1:4,1:2:1")),
    ("1,5+3,1+7,1", ("0:1:2,1:2:1", "0:1:4,1:2:1", "0:1:6,1:2:2")),
    ("1,4+2,7+2,1", ("0:1:2,1:2:2", "0:2:4,1:3:2", "0:2:6,1:3:2")),
    ("1,4+4,5+2,1", ("0:1:2,1:2:1", "0:1:3,1:2:2", "0:2:5,1:3:1")),
    ("1,4+5,1+6,1", ("0:1:2,1:2:1", "0:1:3,1:2:2", "0:1:4,1:2:4")),
    ("2,7+4,1+1,0", ("0:1:3,1:2:1", "0:1:5,1:2:2", "0:1:7,1:2:3")),
    ("1,3+1,2+9,2", ("0:1:2,1:2:1", "0:2:2,1:3:5", "0:2:3,1:3:4")),
    ("1,3+4,3+3,2", ("0:1:2,1:2:1", "0:1:2,1:2:4", "0:1:3,1:2:3")),
    ("1,3+13,1", ("0:1:2,1:2:1", "0:1:2,1:2:13", "0:1:3,1:2:13")),
    ("2,5+1,1+5,3", ("0:1:3,1:2:1", "0:1:4,1:2:1", "0:2:2,1:3:4")),
    ("3,7+5,3", ("0:1:4,1:2:1", "0:1:5,1:2:4", "0:1:7,1:2:3")),
    ("1,2+2,3+5,1", ("0:1:2,1:2:2", "0:2:3,1:3:4", "0:2:4,1:3:5")),
    ("1,2+3,2+8,1", ("0:1:2,1:2:1", "0:2:4,1:3:3", "0:2:5,1:3:3")),
    ("5,9+2,1", ("0:1:6,1:2:1", "0:1:8,1:2:1", "0:1:10,1:2:2")),
    ("3,5+4,1+1,0", ("0:1:4,1:2:1", "0:1:5,1:2:3", "0:1:7,1:2:3")),
    ("2,3+3,2+3,1", ("0:1:3,1:2:1", "0:1:3,1:2:3", "0:2:4,1:3:2")),
    ("3,4+1,1+4,3", ("0:1:4,1:2:1", "0:2:2,1:3:4")),
    ("4,5+5,2+1,0", ("0:1:5,1:2:1", "0:1:6,1:2:4", "0:1:8,1:2:4")),
    ("1,1+5,4+3,2", ("0:1:2,1:2:5", "0:2:6,1:3:3", "0:2:7,1:3:3")),
    ("1,1+3,1+8,1", ("0:1:2,1:2:2", "0:2:4,1:3:4", "0:2:4,1:3:6")),
    ("5,4+5,2+1,0", ("0:1:6,1:2:3", "0:1:7,1:2:4", "0:1:8,1:2:5")),
    ("3,2+5,3+4,1", ("0:1:4,1:2:5", "0:2:6,1:3:3", "0:2:7,1:3:4")),
    ("7,4+2,1", ("0:1:8,1:2:2",)),
    ("9,4+3,1", ("0:1:10,1:2:3", "0:1:11,1:2:3", "0:1:12,1:2:3")),
    ("3,1+13,1", ("0:1:4,1:2:4", "0:1:4,1:2:7", "0:1:4,1:2:10")),
)

SIZES = {
    "census": f"h<={CENSUS_HEIGHT}: every eligible pair of every polygon (traces)",
    "oracle_sweep": f"h<={ORACLE_HEIGHT}: every polygon, boundary_set vs boundary_set_oracle (polygons)",
    "verify_suite": (
        f"direct-sum for z in (2,3) at h<={DIRECT_SUM_HEIGHT}; curtailment and duality "
        f"for z=2 at h<={TWO_SEGMENT_HEIGHT} (verifications)"
    ),
    "cli_traces": f"cli.main commands drawn from a pool of {len(CLI_POOL)} polygons at h=14..18 (commands)",
}


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def _bits(word) -> str:
    return "".join(map(str, word))


def _census_summary(trace) -> str:
    # verdict, phase lengths, stage count and the result type with its arrows
    result = "-"
    if trace.result is not None:
        arrows = ",".join(map(str, trace.result.arrow_images()))
        result = f"{_bits(t.label for t in trace.result.order)}/{arrows}"
    return f"{trace.verdict} {trace.a} {trace.b} {len(trace.stages)} {result}"


def census(sb, seed: int):
    rng = random.Random(seed)
    polygons = list(sb.newton.enumerate_polygons(CENSUS_HEIGHT))
    rng.shuffle(polygons)

    def run():
        # minimal_abs and eligible_pairs run once per polygon, inside the pass
        # wall but outside any item's latency.
        for polygon in polygons:
            S = sb.sequences.minimal_abs(polygon)
            pairs = list(sb.modification.eligible_pairs(S))
            rng.shuffle(pairs)
            for pair in pairs:
                yield f"{polygon}|{pair.spec}", partial(sb.modification.full_modification, S, pair), _census_summary

    return run()


def _boundary_summary(bset) -> str:
    return " ".join(f"{_bits(e.type)}:{'/'.join(p.spec for p in e.pairs)}" for e in bset.elements)


def _sweep_item(sb, polygon):
    combinatorial = sb.boundary.boundary_set(polygon)
    oracle = sb.boundary.boundary_set_oracle(polygon)
    return combinatorial, combinatorial.types() == oracle.types()


def _sweep_summary(result) -> str:
    combinatorial, agree = result
    return f"{'agree' if agree else 'MISMATCH'} {_boundary_summary(combinatorial)}"


def oracle_sweep(sb, seed: int):
    polygons = list(sb.newton.enumerate_polygons(ORACLE_HEIGHT))
    random.Random(seed).shuffle(polygons)
    return ((str(p), partial(_sweep_item, sb, p), _sweep_summary) for p in polygons)


def _report_summary(report) -> str:
    return f"{report.status} {_digest(json.dumps(report.to_json(), sort_keys=True, default=str))}"


def verify_suite(sb, seed: int):
    checks = [
        ("direct-sum", p) for p in sb.newton.enumerate_polygons(DIRECT_SUM_HEIGHT) if p.z in (2, 3)
    ]
    for p in sb.newton.enumerate_polygons(TWO_SEGMENT_HEIGHT):
        if p.z != 2:
            continue
        if 2 * p.segments[1].n >= p.segments[1].height:
            checks.append(("curtailment", p))
        checks.append(("duality", p))
    random.Random(seed).shuffle(checks)
    verifiers = {
        "direct-sum": "verify_direct_sum",
        "curtailment": "verify_curtailment",
        "duality": "verify_duality",
    }

    def call(kind, polygon):
        return getattr(sb.boundary, verifiers[kind])(polygon)

    return ((f"{kind} {p}", partial(call, kind, p), _report_summary) for kind, p in checks)


def _cli_polygon_commands(polygon: str, pairs) -> list[list[str]]:
    commands = [["boundary", polygon, "--json"]]
    for pair in pairs:
        commands.append(["modify", polygon, "--pair", pair, "--json"])
        commands.append(["modify", polygon, "--pair", pair, "--trace"])
    return commands


def cli_sample(seed: int) -> list[list[str]]:
    """The commands a run with this seed issues, in order."""
    rng = random.Random(seed)
    commands = []
    for polygon, pairs in CLI_POOL:
        drawn = rng.sample(pairs, min(CLI_PAIRS_PER_POLYGON, len(pairs)))
        commands.extend(_cli_polygon_commands(polygon, drawn))
    rng.shuffle(commands)
    return commands


def _cli_call(sb, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sb.cli.main(argv)
    return code, out.getvalue()


def _cli_summary(result) -> str:
    code, text = result
    return f"exit {code} {len(text)} {_digest(text)}"


def _cli_items(sb, commands):
    return ((" ".join(argv), partial(_cli_call, sb, argv), _cli_summary) for argv in commands)


def cli_traces(sb, seed: int):
    return _cli_items(sb, cli_sample(seed))


def every_item(sb, name: str):
    """All items any seed can draw, for pinning references."""
    if name == "cli_traces":
        return _cli_items(sb, [argv for polygon, pairs in CLI_POOL for argv in _cli_polygon_commands(polygon, pairs)])
    return WORKLOADS[name](sb, 0)


WORKLOADS = {
    "census": census,
    "oracle_sweep": oracle_sweep,
    "verify_suite": verify_suite,
    "cli_traces": cli_traces,
}

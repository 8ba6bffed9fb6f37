"""Command-line front end.

Subcommands: abs, modify, boundary, phi, verify, sweep.  Polygons are given
as ``m,n+m,n``; modification pairs as ``0:r:i,1:q:j``.  Exit codes: 0 ok,
1 usage or domain error, 2 verification failure, 3 budget exceeded (the
oracle needs C(h, c) + l(w) + 1 nodes for a polygon of height h and
codimension c whose minimal sequence has length l(w), and ``--budget``
allows fewer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .boundary import (
    boundary_set,
    boundary_set_oracle,
    verify_curtailment,
    verify_direct_sum,
    verify_duality,
)
from .errors import ContextTooLarge, InternalCheckError, StrataboundError
from .modification import full_modification, parse_pair, render_trace_ascii, trace_to_json
from .newton import NewtonPolygon, enumerate_polygons, parse_polygon, phi, polygon_to_json
from .sequences import abs_to_json, length, minimal_abs, render_ascii
from .weyl import resolve_budget


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _paren(p: NewtonPolygon) -> str:
    return "+".join(f"({s.m},{s.n})" for s in p.segments)


def _resolve_budget(args) -> int:
    budget = getattr(args, "budget", None)
    if budget is None:
        env = os.environ.get("STRATABOUND_BUDGET")
        if env:
            try:
                budget = int(env)
            except ValueError:
                raise ValueError(f"STRATABOUND_BUDGET must be an integer, got {env!r}") from None
    return resolve_budget(budget)


def _cmd_abs(args) -> int:
    S = minimal_abs(parse_polygon(args.polygon))
    if args.json:
        print(json.dumps(abs_to_json(S)))
    else:
        print(render_ascii(S))
    return 0


def _cmd_modify(args) -> int:
    p = parse_polygon(args.polygon)
    trace = full_modification(minimal_abs(p), parse_pair(args.pair))
    if args.json:
        print(json.dumps(trace_to_json(trace)))
    elif args.trace:
        print(render_trace_ascii(trace))
    else:
        print(f"verdict: {trace.verdict}")
        if trace.result is not None:
            print(f"lengths: {length(trace.source)} -> {length(trace.result)}")
            print(render_ascii(trace.result))
    return 0


def _cmd_boundary(args) -> int:
    bs = boundary_set(parse_polygon(args.polygon))
    if args.json:
        print(json.dumps(bs.to_json()))
    else:
        for element in bs.elements:
            bits = "".join(map(str, element.type))
            pairs = " ".join(p.spec for p in element.pairs)
            print(f"{bits}  from {pairs}")
        print(f"total: {len(bs.elements)}")
    return 0


def _cmd_phi(args) -> int:
    p = parse_polygon(args.polygon)
    result, word = phi(p)
    if args.json:
        print(json.dumps({"polygon": polygon_to_json(p), "result": polygon_to_json(result), "word": list(word)}))
    else:
        print(f"{_paren(result)} via [{', '.join(word)}]")
    return 0


_VERIFIERS = {
    "direct-sum": verify_direct_sum,
    "curtail": verify_curtailment,
    "dual": verify_duality,
}


def _cmd_verify(args) -> int:
    report = _VERIFIERS[args.what](parse_polygon(args.polygon))
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"{report.kind} {report.polygon}: {report.status}")
        if report.ok:
            print(f"bijection size: {len(report.bijection)}")
        else:
            print(f"witness: {report.witness}")
    return 0 if report.ok else 2


def _cmd_sweep(args) -> int:
    # Text rows are printed as each polygon is checked, so a run stopped by
    # the budget keeps the rows before it; --json prints one array at the end.
    budget = _resolve_budget(args)
    rows = []
    failures = 0
    for p in enumerate_polygons(args.height):
        combinatorial = boundary_set(p).types()
        oracle = boundary_set_oracle(p, budget=budget).types()
        ok = combinatorial == oracle
        failures += 0 if ok else 1
        rows.append({"polygon": str(p), "count": len(combinatorial), "status": "ok" if ok else "mismatch"})
        if not args.json:
            print(f"{p}  |B|={len(combinatorial)}  {rows[-1]['status']}")
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"checked {len(rows)} polygons, {failures} mismatches")
    return 0 if failures == 0 else 2


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="stratabound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, func):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.set_defaults(func=func)

    sp = sub.add_parser("abs", help="print the minimal arrowed binary sequence")
    sp.add_argument("polygon", help="Newton polygon, e.g. 2,7+3,5")
    add_common(sp, _cmd_abs)

    sp = sub.add_parser("modify", help="run one full modification")
    sp.add_argument("polygon", help="Newton polygon, e.g. 2,7+3,5")
    sp.add_argument("--pair", required=True, help="pair of symbols, e.g. 0:1:4,1:2:2")
    sp.add_argument("--trace", action="store_true", help="print every cascade stage")
    add_common(sp, _cmd_modify)

    sp = sub.add_parser("boundary", help="print the boundary type set with provenance")
    sp.add_argument("polygon", help="Newton polygon, e.g. 2,7+3,5")
    add_common(sp, _cmd_boundary)

    sp = sub.add_parser("phi", help="reduce to a separated polygon")
    sp.add_argument("polygon", help="Newton polygon, e.g. 2,7+3,5")
    add_common(sp, _cmd_phi)

    sp = sub.add_parser("verify", help="run one structure verification")
    sp.add_argument("what", choices=sorted(_VERIFIERS), help="which bijection to verify")
    sp.add_argument("polygon", help="Newton polygon, e.g. 2,7+3,5")
    add_common(sp, _cmd_verify)

    sp = sub.add_parser("sweep", help="oracle-equivalence census up to a height bound")
    sp.add_argument("--height", type=int, required=True, help="maximum total height")
    sp.add_argument(
        "--budget", type=int, help="node budget override; caps the oracle's C(h, c) + l(w) + 1 nodes per polygon"
    )
    add_common(sp, _cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ContextTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError:
        raise
    except StrataboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

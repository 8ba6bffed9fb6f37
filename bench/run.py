#!/usr/bin/env python3
"""stratabound's benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):
    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): census, oracle_sweep, verify_suite, cli_traces.

The run repeats passes of the workload until ``--seconds`` have elapsed.
Every pass is a fresh ``python -I`` interpreter, so the ``weyl`` tables and
any other process-lifetime cache start cold, as they do for every user of
the command line.  Each pass's outputs are compared with the references in
``bench/refs/`` (pinned by ``bench/pin.py``); a mismatch, an exception or a
missing item counts as a failure.

``--trace 0`` reports the end-to-end metrics:
    items_per_s   items completed per second of the timed loop
    item_p50_ms   median per-item latency
    item_tail_ms  per-item latency at percentile 1 - 10/(items per pass)
    setup_s       spawn to the first timed call, in the pass's interpreter:
                  interpreter start, ``import stratabound``, building the inputs
    peak_rss_mb   peak resident memory of the pass's process
error_rate (failed / attempted) is printed too; it is not a metric in the
JSON line because it is 0 on a correct program.

Item latencies are pooled over all passes of the run: items_per_s is all
items over all timed wall time, item_p50_ms and item_tail_ms are quantiles
of the pooled latencies, setup_s is the median over passes and peak_rss_mb
the largest pass.  On a shared two-vCPU Xeon virtual machine single passes
of one workload ranged up to 1.9x in speed within a minute, so a run needs
many passes; pooling uses every one of them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py (medians over traced passes) together with
the tracing overhead: the median, over pairs of adjacent passes, of traced
minus untraced loop wall time.

The last line of standard output is the JSON result; the line before it
holds the run context: machine, CPU count, Python, git SHA, a digest of
``src/``, seed, input size, and a pure-Python calibration rate taken before
and after the run so that a spread can be traced to the host.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import sys
from time import perf_counter

from common import BENCH, PACKAGE, ROOT, clock, require_source, spawn
from tracing import COMPUTED, METRICS
from workloads import SIZES, WORKLOADS, cli_sample

MIN_PASSES = 3
TAIL_BEYOND = 10


def calibration_rate(seconds: float = 0.3) -> float:
    """Iterations per second of a fixed pure-Python loop; host context, not a metric."""
    done = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        acc = 0
        for i in range(20000):
            acc = (acc * 31 + i) % 1000003
        done += 20000
    return done / (perf_counter() - start)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_refs(workload: str) -> dict[str, str]:
    with gzip.open(BENCH / "refs" / f"{workload}.json.gz", "rt") as f:
        return json.load(f)["items"]


def check_pass(reply: dict, refs: dict[str, str], expected: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few mismatch descriptions) of one pass."""
    if "error" in reply:
        return expected, expected, [reply["error"]]
    failed, notes = 0, []
    seen = set()
    for key, out in zip(reply["keys"], reply["outputs"]):
        want = refs.get(key)
        if out != want or key in seen:
            failed += 1
            if len(notes) < 3:
                notes.append(f"{key}: got {out!r}, want {want!r}")
        seen.add(key)
    missing = max(0, expected - len(seen))
    if missing and len(notes) < 3:
        notes.append(f"{missing} items missing from the pass")
    return len(reply["keys"]) + missing, failed + missing, notes


def pass_record(started: float, reply: dict) -> dict:
    return {
        "latencies": reply["latencies"],
        "wall": reply["wall"],
        "setup_s": reply["ready"] - started,
        "import_s": reply["imported"] - started,
        "rss_mb": reply["rss_kb"] / 1024,
    }


UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Run-level metrics: item timings pooled over every untraced pass."""
    pooled = sorted(lat for p in passes for lat in p["latencies"])
    return {
        "items_per_s": len(pooled) / sum(p["wall"] for p in passes),
        "item_p50_ms": statistics.median(pooled) * 1000,
        # Each pass contributes TAIL_BEYOND samples above the tail, so the
        # percentile depends on the pass size only, not on how many passes ran.
        "item_tail_ms": pooled[len(pooled) - 1 - TAIL_BEYOND * len(passes)] * 1000,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    refs = load_refs(args.workload)
    expected = len(cli_sample(args.seed)) if args.workload == "cli_traces" else len(refs)
    calib_before = calibration_rate()
    deadline = clock() + args.seconds
    attempted = failed = 0
    notes: list[str] = []
    per_pass: list[dict] = []
    traced: list[dict] = []
    modes = (False, True) if args.trace else (False,)
    crashed = False
    # A pass that crashes or hangs ends the run: its items count as failed.
    while not crashed and (clock() < deadline or len(per_pass) < MIN_PASSES):
        for trace in modes:
            spec = {"workload": args.workload, "seed": args.seed, "trace": trace}
            started, reply = spawn("worker.py", json.dumps(spec))
            a, f, n = check_pass(reply, refs, expected)
            attempted, failed, notes = attempted + a, failed + f, notes + n
            if "error" in reply:
                crashed = True
                break
            if trace:
                traced.append(reply["layers"])
            else:
                per_pass.append(pass_record(started, reply))
    calib_after = calibration_rate()

    if not per_pass or (args.trace and not traced):
        print("error: no pass completed; " + "; ".join(notes[:3]), file=sys.stderr)
        return 1
    items = len(per_pass[0]["latencies"])
    print(f"workload {args.workload} ({SIZES[args.workload]}), seed {args.seed}: "
          f"{len(per_pass)} untraced passes of {items} items" + (f", {len(traced)} traced" if args.trace else ""))

    if args.trace:
        metrics = {}
        for name, unit, _ in METRICS:
            value = statistics.median_low(layers[name] for layers in traced)
            metrics[name] = {"value": value, "unit": unit}
        untraced_wall = statistics.median_low(p["wall"] for p in per_pass)
        metrics["trace.untraced_wall_s"]["value"] = untraced_wall
        # Passes alternate, so each traced pass is paired with the untraced
        # one just before it, which most likely saw the same host speed.
        metrics["trace.overhead_s"]["value"] = statistics.median_low(
            layers["trace.wall_s"] - p["wall"] for p, layers in zip(per_pass, traced)
        )
        for name, m in metrics.items():
            label = "  (computed: sum of c!*d! over the (h, c) tables built)" if name in COMPUTED else ""
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{label}")
        overhead = metrics["trace.overhead_s"]["value"]
        print(f"  tracing overhead: {overhead:.4f} s on {untraced_wall:.4f} s untraced "
              f"({overhead / untraced_wall:+.1%})")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in end_to_end(per_pass).items()}
        for name, m in metrics.items():
            extra = ""
            if name == "setup_s":
                imports = statistics.median(p["import_s"] for p in per_pass)
                extra = f"  (of which interpreter start and import {imports:.4g} s)"
            if name == "item_tail_ms":
                pooled = items * len(per_pass)
                extra = (f"  (p{100 * (items - TAIL_BEYOND) / items:.2f} of {pooled} pooled samples, "
                         f"{TAIL_BEYOND * len(per_pass)} above it)")
            print(f"  {name:14s} {m['value']:12.6g} {m['unit']}{extra}")
        print("  items_per_s by pass: " + " ".join(f"{len(p['latencies']) / p['wall']:.5g}" for p in per_pass))
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':14s} {rate:12.6g} ratio  ({failed} of {attempted} items failed)")
    for note in notes[:3]:
        print(f"  mismatch: {note}")

    context = {
        "machine": f"{platform.machine()} {cpu_model()}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_size": f"{SIZES[args.workload]}: {items} items per pass",
        "passes": len(per_pass) + len(traced),
        "calibration_before_per_s": round(calib_before),
        "calibration_after_per_s": round(calib_after),
    }
    print("context " + json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

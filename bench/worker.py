"""One timed pass of one workload in a fresh interpreter (started by run.py).

Usage: python -I bench/worker.py '{"workload": "census", "seed": 1, "trace": false}'

Prints one JSON line: CLOCK_MONOTONIC stamps taken right after the package
is imported and right before the timed loop starts (so the parent can
compute set-up time from its spawn stamp), the wall time of the timed loop,
every item's key, output summary and latency, the process's peak RSS, and
with tracing on, the per-layer metrics.
"""

import os
import sys
import time

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]

import stratabound  # noqa: E402
import stratabound.cli  # noqa: E402,F401  (cli_traces calls it; the entry point imports it too)

imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from common import check_imported  # noqa: E402


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` would not do: across fork/vfork and exec Linux carries the
    parent's high-water mark into the child's, so it reports run.py's size.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec: dict) -> dict:
    check_imported(stratabound)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(stratabound, tracer)
    items = workloads.WORKLOADS[spec["workload"]](stratabound, spec["seed"])
    keys, outputs, latencies = [], [], []
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = perf_counter()
    for key, call, summarize in items:
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing item is counted, not fatal
            latencies.append(perf_counter() - t0)
            keys.append(key)
            outputs.append(f"raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - t0)
        keys.append(key)
        outputs.append(summarize(result))
    end = perf_counter()
    reply = {
        "imported": imported,
        "ready": ready,
        "wall": end - start,
        "keys": keys,
        "outputs": outputs,
        "latencies": latencies,
        "rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        reply["layers"] = tracer.layer_metrics(start, end)
    return reply


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

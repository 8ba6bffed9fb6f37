"""Paths and process helpers shared by the benchmark's entry points.

Every timed pass runs in a fresh interpreter started with ``python -I`` so
that no environment variable, user site directory or process-lifetime cache
(``weyl``'s ``lru_cache`` tables) leaks from one pass into the next.  The
package is imported from the checkout's own ``src/`` and nowhere else.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stratabound"


def clock() -> float:
    """CLOCK_MONOTONIC is system-wide on Linux, so parent and child stamps compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def require_source() -> None:
    """Exit with code 2 unless the checkout holds the package sources."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)


def check_imported(package) -> None:
    """Exit with code 2 unless ``package`` was imported from this checkout's ``src/``."""
    if Path(package.__file__).resolve().parent != PACKAGE:
        print(f"error: imported {package.__file__}, not the checkout's {PACKAGE}", file=sys.stderr)
        raise SystemExit(2)


def spawn(script: str, *args: str, timeout: float = 45) -> tuple[float, dict]:
    """Run ``bench/<script> <args>`` in a fresh interpreter.

    Returns the spawn stamp and the child's JSON reply (its last stdout
    line).  The child is always waited for; on a timeout it is killed first.
    The default timeout is many times a benchmark pass and only stops a hung
    child.
    """
    argv = [sys.executable, "-I", str(BENCH / script), *args]
    started = clock()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return started, {"error": f"{script} timed out after {timeout} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return started, {"error": f"{script} exited {proc.returncode}: {tail[0]}"}
    return started, json.loads(out.strip().splitlines()[-1])

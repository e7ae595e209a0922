"""The benchmark: one workload, its checks, and its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: eval-rx-poly, monitor-tx-raw, markov-sweep (see README.md).
Run from the root of a checkout; the program is imported from ``src/``.
Each set-up runs in a fresh process with one BLAS thread. With ``--trace 0``
the workload sets up three times, two set-ups alone and one followed by
``--seconds`` of whole rounds, and the result carries the end-to-end
metrics; ``setup_s`` is the median of the three. Times are scaled to a
reference host speed (``hostspeed.py``); the unscaled ones go to standard
error. With ``--trace 1`` it sets up once, records spans around the
program's public functions and reports the per-layer metrics. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit status is 0 only when every process ended well and printed its result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the names of workload.WORKLOADS, listed here so that the launcher imports
# nothing of the program and fails fast without it
WORKLOADS = ("eval-rx-poly", "monitor-tx-raw", "markov-sweep")
SETUPS = 3
DEADLINE_S = 170.0

# One BLAS thread: with two OpenBLAS threads on two shared cores one
# detection query varied from 0.19 to 1.52 s.
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one workload process and return its result."""
    started = _monotonic()
    command = [
        sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started-at", repr(started),
    ] + extra
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **ENV}, stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - started),
    )
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process exited with status {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="a429ids benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "a429ids" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'a429ids'}", file=sys.stderr)
        return 2

    deadline = _monotonic() + DEADLINE_S
    try:
        setups = [_spawn(args, ["--setup-only"], deadline) for _ in range(0 if args.trace else SETUPS - 1)]
        result = _spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        setups.append(result)
        metrics["setup_s"]["value"] = statistics.median(setup["setup_s"] for setup in setups)
        result["unscaled"]["setup_s"] = statistics.median(setup["unscaled"]["setup_s"] for setup in setups)
    print(f"unscaled: {json.dumps(result['unscaled'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

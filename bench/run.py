"""Benchmark entry point: one workload per invocation, one process per workload.

    python3 bench/run.py --workload m2-certify --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the program is imported from its
``src`` directory, nothing is installed.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
``setup_s`` is the median of several fresh processes, each timed from spawn to
its first timed op.  All times are normalised to a reference host speed (see
``speed.py``).  Exits non-zero without a result when the checkout has no
``src/amnm``, when a worker fails, or when the run overstays its deadline.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("m2-certify", "key-estimates", "exact-families", "cli-documents")
SETUPS = 3  # fresh processes whose set-up time is measured; setup_s is their median
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """One single-threaded client: BLAS and OpenMP pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if k != "AMNM_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, deadline: float) -> tuple[float, str]:
    """Start a worker; return its normalised set-up time (spawn to READY) and
    its stdout after READY."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", str(args.out),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    try:
        buf = b""
        while not re.search(rb"^READY \S+\n", buf, re.M):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise BenchError(f"{mode} worker did not get ready in time")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError(f"{mode} worker exited before it was ready")
            buf += chunk
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker overstayed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    _, probe, tail = re.split(r"^READY (\S+)\n", (buf + rest).decode(), maxsplit=1, flags=re.M)
    return setup_s * speed.REF_MS / float(probe), tail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "amnm" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'amnm'} is missing", file=sys.stderr)
        return 2
    args.out = HERE / "out"
    args.out.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setup_s, text = run_worker(args, "trace" if args.trace else "run", deadline)
        result = json.loads(text.strip().splitlines()[-1])
        if not args.trace:
            samples = [setup_s] + [run_worker(args, "setup", deadline)[0] for _ in range(SETUPS - 1)]
            result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, warm up, time the fixed ops, check them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints ``READY <probe ms>`` once set-up and one untimed warm-up op are done,
then, unless ``--mode setup``, a JSON line with the measurements.  Every time
it reports is normalised to a reference host speed (see ``speed``).

``--mode run`` times every op untraced.  ``--mode trace`` times the first half
of the ops untraced, then the same ops again with every layer wrapped by
``tracing.Tracer``, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

PROBE_AT_START = speed.probe_ms()
T_IMPORT = time.perf_counter()
import amnm  # noqa: E402  (timed: the import is part of set-up)

IMPORT_S = time.perf_counter() - T_IMPORT

import tracing  # noqa: E402
from workloads import KNOWN_FAULT, WORKLOADS  # noqa: E402

MIN_OPS = 40  # the tail percentile needs at least ten ops beyond it
SPANS_WRITTEN = 50_000


def n_ops(cls, seconds: int) -> int:
    return max(MIN_OPS, round(seconds * cls.rate))


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0

    def add(self, results: dict) -> None:
        for name, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                if name != KNOWN_FAULT:
                    self.unexpected += 1
                    print(f"check failed: {name}", file=sys.stderr)


def timed_pass(w, ops, tally: Tally, run=None):
    """Time each op alone (wall and CPU), then check it with the clocks stopped.

    Returns the normalised wall and CPU seconds of each op, and the speed
    factors that normalised them.
    """
    track = speed.SpeedTrack()
    wall, cpu = [], []
    for done, i in enumerate(ops):
        track.before_op(done)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = run(w.op, i) if run else w.op(i)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc()
            out = None
        t1, c1 = time.perf_counter(), time.process_time()
        track.after_op(t1 - t0)
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        if out is None:
            tally.add({f"{w.name}-raised-{k}": False for k in range(w.results_per_op)})
            continue
        try:
            tally.add(w.check(i, out))
        except Exception:
            traceback.print_exc()
            tally.add({f"{w.name}-check-raised-{k}": False for k in range(w.results_per_op)})
    factors = track.factors(len(wall))
    return [t * f for t, f in zip(wall, factors)], [c * f for c, f in zip(cpu, factors)], factors


def end_to_end(wall: list[float], cpu: list[float]) -> dict:
    n = len(wall)
    ordered = sorted(wall)
    return {
        "ops_per_s": (n / sum(wall), "ops/s"),
        "op_p50_ms": (statistics.median(wall) * 1e3, "ms"),
        # the highest percentile with ten ops beyond it: the 11th-slowest op
        "op_tail_ms": (ordered[n - 11] * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) / n * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tr: tracing.Tracer, inputs_s: float, untraced: list[float], traced: list[float]) -> dict:
    ops = tr.ops
    self_s = tr.self_times()
    spans = tr.span_counts()

    def self_ms(layer, path=""):
        total = sum(s for name, s in self_s.items() if name.startswith(layer + ".") and name.endswith(path))
        return (total / ops * 1e3, "ms/op")

    def calls(span):  # spans of this name, or of this layer
        return (sum(c for name, c in spans.items() if name == span or name.startswith(span + ".")) / ops, "count/op")

    def count(key):
        return (tr.counts[key] / ops, "count/op")

    polished = tr.counts["oracle.polished"]
    u, t = sum(untraced), sum(traced)
    return {
        "setup.import_s": (IMPORT_S * speed.REF_MS / PROBE_AT_START, "s"),
        "setup.inputs_s": (inputs_s * speed.REF_MS / PROBE_AT_START, "s"),
        "oracle.self_ms": self_ms("oracle"),
        "oracle.polish_ms": (tr.inclusive_time("oracle.polish") / ops * 1e3, "ms/op"),
        "oracle.evaluations": count("oracle.evaluations"),
        "oracle.cells": count("oracle.cells"),
        "oracle.pruned": count("oracle.pruned"),
        "oracle.polish_useful_ratio": (tr.counts["oracle.polish_improved"] / polished if polished else 0.0, "ratio"),
        "mat2.self_ms": self_ms("mat2"),
        "mat2.key_estimates_calls": calls("mat2.key_estimates"),
        "sampling.self_ms": self_ms("sampling"),
        "defects.self_ms": self_ms("defects"),
        "defects.exact_self_ms": self_ms("defects", ".exact"),
        "defects.exact_calls": count("defects.exact_calls"),
        "defects.exact_pairs": count("defects.exact_pairs"),
        "defects.float_self_ms": self_ms("defects", ".float"),
        "defects.float_calls": count("defects.float_calls"),
        "counterexamples.self_ms": self_ms("counterexamples"),
        "counterexamples.maps_scanned": count("counterexamples.maps_scanned"),
        "correction.self_ms": self_ms("correction"),
        "correction.assertions_checked": count("correction.assertions_checked"),
        "filters.self_ms": self_ms("filters"),
        "filters.enumerate_calls": calls("filters.enumerate_filters"),
        "semilattice.self_ms": self_ms("semilattice"),
        "semilattice.calls": calls("semilattice"),
        "weights.self_ms": self_ms("weights"),
        "cli.self_ms": self_ms("cli"),
        "reporting.self_ms": self_ms("reporting"),
        "reporting.bytes": (tr.counts["reporting.bytes"] / ops, "B/op"),
        "bench.self_ms": self_ms("bench"),
        "trace.spans": (len(tr.start) / ops, "count/op"),
        "trace.untraced_op_ms": (u / ops * 1e3, "ms/op"),
        "trace.overhead_ms": ((t - u) / ops * 1e3, "ms/op"),
        "trace.overhead_ratio": ((t - u) / u, "ratio"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--out", required=True, help="directory for documents and the trace")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(amnm.__file__).resolve().parent != src / "amnm":
        print(f"imported amnm from {amnm.__file__}, not from {src}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    n = n_ops(cls, args.seconds)
    t0 = time.perf_counter()
    extra = {"workdir": args.out} if cls.name == "cli-documents" else {}
    w = cls(amnm, args.seed, n, **extra)
    inputs_s = time.perf_counter() - t0
    try:
        w.op(0)  # the untimed warm-up op
        # the host's speed over set-up, for run.py to normalise its set-up time
        print(f"READY {(PROBE_AT_START + speed.probe_ms()) / 2.0!r}", flush=True)
        if args.mode == "setup":
            return 0
        tally = Tally()
        if args.mode == "run":
            wall, cpu, _ = timed_pass(w, range(n), tally)
            metrics = end_to_end(wall, cpu)
        else:
            half = range(n // 2)
            untraced, _, _ = timed_pass(w, half, tally)
            tr = tracing.Tracer()
            tr.install(amnm)
            try:
                traced, _, factors = timed_pass(w, half, tally, run=tr.op)
            finally:
                tr.uninstall()
            tr.scale(factors)
            metrics = per_layer(tr, inputs_s, untraced, traced)
            tr.dump(os.path.join(args.out, f"trace-{cls.name}.json"), SPANS_WRITTEN)
    finally:
        w.close()
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts around every call into a layer of ``amnm``, recorded from outside.

``Tracer.install`` replaces each public function of a layer module (the
functions its ``__all__`` names) in every *other* ``amnm`` namespace that
imported it, and in the package namespace the benchmark calls through.  So
``amnm.oracle.minimize``, ``amnm.correction.key_estimates`` and
``amnm.counterexamples.defect`` become wrappers, while a layer's calls to its
own functions stay inside its own span.  ``amnm.cli.main`` is wrapped in
place, since only the benchmark calls it.  No file of the program changes.

Each span is a name, a start, an end and the index of its parent span; the
root of every span is the benchmark op it ran in, and calls made outside an op
are not recorded.  Spans live in flat arrays in memory; self times are
computed from them after the run, in host-speed-normalised time (see
``speed``), and ``dump`` writes them out at the end.  Counts come from fields the
program already returns (``NearestReport.details``,
``Certificate.details["assertions_checked"]``,
``CounterexampleReport.details["maps_scanned"]``, and whether a
``DefectReport`` or ``DistanceReport`` carries its exact square).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = (
    "semilattice",
    "weights",
    "filters",
    "defects",
    "mat2",
    "correction",
    "oracle",
    "counterexamples",
    "sampling",
    "cli",
    "reporting",
)

# (defining module, name, span name): functions wrapped beyond the __all__ rule.
_EXTRA = (
    ("oracle", "minimize", "oracle.polish"),  # scipy's Nelder-Mead, as the oracle imports it
    ("cli", "main", "cli.main"),  # the CLI entry; wrapped where it is defined
)

_OP = "bench.op"


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dur: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.ops = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op as a root span; its child spans share its index."""
        idx = self._open(self._name_id(_OP))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.ops += 1

    def _wrap(self, span: str, fn):
        name_id = self._name_id(span)
        count = _COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an op, e.g. in a check: not recorded
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, idx, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, amnm) -> None:
        modules = {name: importlib.import_module(f"amnm.{name}") for name in LAYERS}
        targets = {}  # id(function) -> (defining module, span name)
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (mod, f"{layer}.{name}")
        wrappers = {}
        for ns in (amnm, *modules.values()):
            for attr, value in list(vars(ns).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is ns:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(hit[1], value)
                self._patch(ns, attr, wrappers[id(value)])
        for layer, name, span in _EXTRA:
            mod = modules[layer]
            self._patch(mod, name, self._wrap(span, getattr(mod, name)))

    def _patch(self, ns, attr: str, value) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def scale(self, factors: list[float]) -> None:
        """Span durations, each multiplied by the speed factor of its op."""
        op = -1
        self.dur = []
        for i in range(len(self.start)):
            if self.parent[i] == -1:  # only ops are roots
                op += 1
            self.dur.append((self.end[i] - self.start[i]) * factors[op])

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child durations."""
        n = len(self.dur)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            out[name] = out.get(name, 0.0) + self.dur[i] - child[i]
        return out

    def inclusive_time(self, span: str) -> float:
        """Seconds in spans of this name, not counting those nested in one another."""
        k = self._name_ids.get(span)
        if k is None:
            return 0.0
        return sum(
            self.dur[i] for i in range(len(self.dur))
            if self.name_of[i] == k and not self._inside_same(i, k)
        )

    def _inside_same(self, i: int, k: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_of[p] == k:
                return True
            p = self.parent[p]
        return False

    def span_counts(self) -> Counter:
        return Counter(self.names[k] for k in self.name_of)

    def dump(self, path, limit: int) -> None:
        """Write the first ``limit`` spans (all, if fewer) and the counts as JSON."""
        n = min(len(self.start), limit)
        t0 = self.start[0] if n else 0.0
        spans = [
            [self.names[self.name_of[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i]]
            for i in range(n)
        ]
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans_total": len(self.start),
            "spans_written": n,
            "counts": dict(self.counts),
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- counts read off what the program returns ---------------------------------


def _count_defect(tracer, idx, args, kwargs, result):
    # DefectReport.defect_sq is set exactly when the Fraction path ran.
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    n = theta.n
    if result.defect_sq is not None:
        tracer.name_of[idx] = tracer._name_id("defects.defect.exact")
        tracer.counts["defects.exact_calls"] += 1
        tracer.counts["defects.exact_pairs"] += n * n if theta.codomain == "m2" else n * (n + 1) // 2
    else:
        tracer.name_of[idx] = tracer._name_id("defects.defect.float")
        tracer.counts["defects.float_calls"] += 1


def _count_distance(tracer, idx, args, kwargs, result):
    n = (args[1] if len(args) > 1 else kwargs["theta"]).n
    if result.value_sq is not None:
        tracer.name_of[idx] = tracer._name_id("defects.distance.exact")
        tracer.counts["defects.exact_calls"] += 1
        tracer.counts["defects.exact_pairs"] += n
    else:
        tracer.name_of[idx] = tracer._name_id("defects.distance.float")
        tracer.counts["defects.float_calls"] += 1


def _count_nearest(tracer, idx, args, kwargs, result):
    details = result.details
    tracer.counts["oracle.evaluations"] += details.get("evaluations", 0)
    tracer.counts["oracle.cells"] += details.get("cells", 0)
    tracer.counts["oracle.pruned"] += details.get("pruned", 0)


def _count_nearest_m2(tracer, idx, args, kwargs, result):
    _count_nearest(tracer, idx, args, kwargs, result)
    polish = tracer._name_ids.get("oracle.polish")
    polished = polish is not None and any(
        tracer.name_of[i] == polish and tracer.parent[i] == idx
        for i in range(idx + 1, len(tracer.start))
    )
    if polished:
        tracer.counts["oracle.polished"] += 1
        tracer.counts["oracle.polish_improved"] += bool(result.details["polish_improved"])


def _count_certificate(tracer, idx, args, kwargs, result):
    tracer.counts["correction.assertions_checked"] += result.details.get("assertions_checked", 0)


def _count_counterexample(tracer, idx, args, kwargs, result):
    reports = result if isinstance(result, list) else [result]
    tracer.counts["counterexamples.maps_scanned"] += sum(
        r.details.get("maps_scanned", 0) for r in reports
    )


def _count_json(tracer, idx, args, kwargs, result):
    tracer.counts["reporting.bytes"] += len(result)


_COUNTERS = {
    "defects.defect": _count_defect,
    "defects.weighted_sup_distance_report": _count_distance,
    "oracle.nearest_mult_scalar": _count_nearest,
    "oracle.nearest_mult_t2": _count_nearest,
    "oracle.nearest_mult_m2": _count_nearest_m2,
    "correction.correct_scalar": _count_certificate,
    "correction.correct_t2": _count_certificate,
    "correction.correct_m2": _count_certificate,
    "correction.correct_weighted": _count_certificate,
    "counterexamples.psi_n_family": _count_counterexample,
    "counterexamples.theta_m_t2": _count_counterexample,
    "counterexamples.theta_m2_chain": _count_counterexample,
    "counterexamples.theta_m2_chain_nonuniform": _count_counterexample,
    "reporting.canonical_json": _count_json,
}

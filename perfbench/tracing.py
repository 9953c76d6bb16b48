"""In-memory spans around the benchmark's calls into the package.

A span is ``[id, parent, name, start, end]`` with times from
``time.perf_counter``.  Phase spans (``setup``, ``op``, ``check``) are the
parents of the call spans recorded inside them.  Counts are plain integer
samples per name.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    _phase = nullcontext()

    @staticmethod
    def call(_stem, fn, *args):
        return fn(*args)

    def phase(self, _name):
        return self._phase


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._parent = None

    def call(self, stem, fn, *args):
        span = [len(self.spans), self._parent, stem, time.perf_counter(), None]
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[4] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name].append(value)

    @contextmanager
    def phase(self, name):
        span = [len(self.spans), None, name, time.perf_counter(), None]
        self.spans.append(span)
        self._parent = span[0]
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._parent = None


#: Time metric per span stem; each is a mean over every call the traced run
#: made, in whichever phase the workload makes it.
TIME_METRICS = {
    "billiard.diagram": "billiard.diagram_ms",
    "billiard.sign": "billiard.sign_ms",
    "recursions.build": "recursions.build_ms",
    "terms.eval": "terms.eval_ms",
    "laurent.jones": "laurent.jones_ms",
    "oracle.sweep": "oracle.sweep_ms",
}

#: Self-time share of the timed ops, per layer.
SHARE_METRICS = {
    "recursions": "recursions.build_share",
    "terms": "terms.eval_share",
    "oracle": "oracle.sweep_share",
}

#: Counts, as means per recorded sample.
COUNT_METRICS = ("recursions.flat_terms", "oracle.states", "billiard.crossings",
                 "laurent.bracket_terms")


def summarise(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> value and unit) from one traced run, plus
    every layer's self-time share of the timed ops and the call counts."""
    by_id = {s[0]: s for s in tracer.spans}
    calls: dict[str, list[float]] = defaultdict(list)
    op_self: dict[str, float] = defaultdict(float)
    op_total = 0.0
    for _, parent, name, start, end in tracer.spans:
        dur = end - start
        if parent is None:
            if name == "op":
                op_total += dur
            continue
        calls[name].append(dur)
        if by_id[parent][2] == "op":
            op_self[name.split(".")[0]] += dur
    op_self["bench"] = op_total - sum(op_self.values())
    shares = {k: v / op_total for k, v in op_self.items()} if op_total else {}

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    metrics = {}
    for stem, name in TIME_METRICS.items():
        metrics[name] = {"value": 1e3 * mean(calls.get(stem, [])), "unit": "ms"}
    for layer, name in SHARE_METRICS.items():
        metrics[name] = {"value": shares.get(layer, 0.0), "unit": "ratio"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": mean(tracer.counts.get(name, [])), "unit": "count"}
    sweep_s = sum(calls.get("oracle.sweep", []))
    assignments = sum(tracer.counts.get("oracle.assignments", []))
    metrics["oracle.assignments_per_s"] = {
        "value": assignments / sweep_s if sweep_s else 0.0, "unit": "1/s"}
    return {"metrics": metrics, "op_self_share": shares,
            "calls": {k: len(v) for k, v in calls.items()}}

"""Spans and counters kept in memory for the traced run.

Every span is a call from the benchmark into one layer, made inside the
root span of one operation. Layer spans have no children, so a layer's
self time is the sum of its span durations.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

LAYERS = (
    "sampler",
    "solver.ac",
    "solver.witness",
    "hom",
    "powerset",
    "polymorphism.ts",
    "polymorphism.semilattice",
    "lab.orbit",
    "lab.walk",
)

# Per-layer metrics as printed with --trace 1, in order, with their units.
PER_LAYER = (
    ("sampler.calls", "count"),
    ("sampler.self_s", "s"),
    ("sampler.share", "ratio"),
    ("sampler.grid_points", "count"),
    ("sampler.elements", "count"),
    ("sampler.tuples", "count"),
    ("sampler.distinct_keys", "count"),
    ("solver.ac.calls", "count"),
    ("solver.ac.self_s", "s"),
    ("solver.ac.share", "ratio"),
    ("solver.ac.constraint_tuples", "count"),
    ("solver.ac.values_removed", "count"),
    ("solver.ac.rejects", "count"),
    ("solver.witness.calls", "count"),
    ("solver.witness.self_s", "s"),
    ("hom.calls", "count"),
    ("hom.self_s", "s"),
    ("hom.found", "count"),
    ("powerset.calls", "count"),
    ("powerset.self_s", "s"),
    ("powerset.elements", "count"),
    ("powerset.tuples", "count"),
    ("polymorphism.ts.calls", "count"),
    ("polymorphism.ts.self_s", "s"),
    ("polymorphism.ts.found", "count"),
    ("polymorphism.ts.failed", "count"),
    ("polymorphism.semilattice.calls", "count"),
    ("polymorphism.semilattice.self_s", "s"),
    ("polymorphism.semilattice.found", "count"),
    ("lab.orbit.calls", "count"),
    ("lab.orbit.self_s", "s"),
    ("lab.orbit.classes", "count"),
    ("lab.walk.calls", "count"),
    ("lab.walk.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [span id, parent id, name, start, end], seconds
        self.counts = Counter()
        self.self_s = Counter()
        self.sample_keys = set()
        self._root = None
        self._t0 = perf_counter()

    def begin_op(self, label):
        self._root = len(self.spans)
        self.spans.append([self._root, None, label, perf_counter() - self._t0, None])

    def end_op(self):
        self.spans[self._root][4] = perf_counter() - self._t0
        self._root = None

    def span(self, layer, fn, *args):
        """Call ``fn(*args)`` inside a span of ``layer``; an exception is
        counted as ``<layer>.failed`` and re-raised."""
        start = perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.counts[layer + ".failed"] += 1
            raise
        finally:
            end = perf_counter()
            self.spans.append(
                [len(self.spans), self._root, layer, start - self._t0, end - self._t0]
            )
            self.counts[layer + ".calls"] += 1
            self.self_s[layer] += end - start

    def add(self, name, amount):
        self.counts[name] += int(amount)

    def count_sample(self, t, n, b):
        self.add("sampler.grid_points", (t.dimension * n) ** t.dimension)
        self.add("sampler.elements", b.size)
        self.add("sampler.tuples", sum(map(len, b.relations.values())))
        self.sample_keys.add((t.name, n))

    def count_ac(self, instance, b, h, accept):
        self.add(
            "solver.ac.constraint_tuples",
            sum(len(b.relations[rel]) for rel, _ in instance.constraints),
        )
        self.add("solver.ac.values_removed", sum(b.size - len(s) for s in h.values()))
        self.add("solver.ac.rejects", not accept)

    def op_seconds(self):
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def metrics(self, overhead_frac) -> dict:
        """Every per-layer metric; layers a workload does not reach are 0."""
        total = self.op_seconds()
        values = dict(self.counts)
        values["sampler.distinct_keys"] = len(self.sample_keys)
        for layer in LAYERS:
            values[layer + ".self_s"] = self.self_s[layer]
            values[layer + ".share"] = self.self_s[layer] / total if total else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def counts_only(self) -> dict:
        """The deterministic part: every count, no time."""
        out = {name: self.counts[name] for name, unit in PER_LAYER if unit == "count"}
        out["sampler.distinct_keys"] = len(self.sample_keys)
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts_only()}, f)

"""Benchmark for the ordcsp package: one workload per run, one process,
one thread, a closed loop with one caller.

    python3 perfbench/run.py --workload solve-direct --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.

* ``--trace 0`` runs passes over a fixed list of operations until
  ``--seconds`` have passed and at least ``MIN_PASSES`` passes ran. Each
  time is divided by the machine's slowdown measured next to it (see
  ``calibrate.py``), and an operation's latency is its fastest pass; both
  filter out load that other tenants put on a shared machine. Every
  output of every pass is checked against the oracles; the end-to-end
  metrics are printed, and the unadjusted times on a line of their own.
* ``--trace 1`` runs every operation once plainly and once with a span
  around every call into a layer. It prints the per-layer metrics and
  writes spans and counts to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status is 2,
with no result line, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import reference_seconds, slowdowns
from oracles import Oracle
from tracing import Tracer
from workloads import WORKLOADS, build, call, call_traced, generate, known_defect_op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_REPS = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.name = type(exc).__name__


def import_package():
    for name in [m for m in sys.modules if m == "ordcsp" or m.startswith("ordcsp.")]:
        del sys.modules[name]
    return importlib.import_module("ordcsp")


def set_up(ops):
    """Import, presets and input objects, SETUP_REPS times from a fresh
    import. Returns the median time at nominal machine speed, the median
    unadjusted time, and the last import."""
    times, refs = [], []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        ordcsp = import_package()
        build(ops, ordcsp)
        times.append(perf_counter() - start)
        refs.append(reference_seconds())
    adjusted = [t / f for t, f in zip(times, slowdowns(refs))]
    return statistics.median(adjusted), statistics.median(times), ordcsp


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density. It moves
    less than a single order statistic where operations of different
    sizes leave gaps between latencies."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule per order statistic
    total = weight = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        total += w * x
        weight += w
    return total / weight


def run_ops(ops, ordcsp, tracer=None):
    """Run operations one after another; returns (op, output, seconds)."""
    done = []
    for op in ops:
        if tracer:
            tracer.begin_op(op.label)
        start = perf_counter()
        try:
            out = call_traced(op, ordcsp, tracer) if tracer else call(op, ordcsp)
        except Exception as exc:  # counted as failed, never fatal
            out = Raised(exc)
        seconds = perf_counter() - start
        if tracer:
            tracer.end_op()
        done.append((op, out, seconds))
    return done


def timed_loop(ops, ordcsp, seconds):
    """Passes over ``ops``, timing the reference loop after each operation;
    returns the passes as lists of (op, output, seconds, slowdown)."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        done, refs = [], []
        for op in ops:
            done += run_ops([op], ordcsp)
            refs.append(reference_seconds())
        passes.append([d + (f,) for d, f in zip(done, slowdowns(refs))])
    return passes


def judge(done, oracle):
    """Failures by class (exception name or "wrong output"), and the
    oracle's reasons for wrong outputs."""
    failures = Counter(out.name for _, out, _ in done if isinstance(out, Raised))
    answered = [(op, out) for op, out, _ in done if not isinstance(out, Raised)]
    wrong = [
        f"{op.label}: {reason}"
        for (op, _), reason in zip(answered, oracle.check_all(answered))
        if reason
    ]
    if wrong:
        failures["wrong output"] = len(wrong)
    return failures, wrong


def summary(op, out):
    """A comparable form of an output, for traced-versus-plain checks."""
    if isinstance(out, Raised):
        return out.name
    if op.kind == "solve":
        return (out.accept, out.sample_size, out.domains, out.witness)
    if op.kind == "orbit":
        return (out.n, out.class_count)
    if op.kind == "structure":
        p, mapping, table, lattice = out
        return (p.relations, mapping, summary_of(table), summary_of(lattice))
    return summary_of(out)


def summary_of(table):
    return None if table is None else table.to_json_dict()


def probe_known_defect(ordcsp, oracle, tracer=None):
    op = known_defect_op()
    build([op], ordcsp)
    ((_, out, seconds),) = run_ops([op], ordcsp, tracer)
    if isinstance(out, Raised):
        verdict = f"{out.name} after {seconds:.1f} s"
    else:
        verdict = f"returned in {seconds:.1f} s, oracle: {oracle.check(op, out) or 'ok'}"
    print(f"known defect probe, {op.label}: {verdict}")


def report(workload, seed, done, failures, wrong):
    print(f"workload {workload}, seed {seed}: {len(done)} calls")
    for reason in wrong[:20]:
        print(f"  wrong: {reason}")
    if failures:
        print(f"  failed by class: {dict(failures)}")


def result(attempted, failures, metrics):
    failed = sum(failures.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def timings(latencies, setup_s):
    """The timed end-to-end metrics from per-operation latencies."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": harrell_davis(latencies, 0.5) * 1000,
        "latency_p90_ms": harrell_davis(latencies, 0.9) * 1000,
        "setup_s": setup_s,
    }


def end_to_end(workload, seed, seconds, ops, setup, ordcsp):
    passes = timed_loop(ops, ordcsp, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    adjusted = [min(runs) for runs in zip(*([s / f for _, _, s, f in p] for p in passes))]
    unadjusted = [min(runs) for runs in zip(*([s for _, _, s, _ in p] for p in passes))]
    values = timings(adjusted, setup[0])
    values["peak_rss_mb"] = peak_rss_mb
    done = [entry[:3] for p in passes for entry in p]
    oracle = Oracle(ordcsp)
    failures, wrong = judge(done, oracle)
    report(workload, seed, done, failures, wrong)
    print(f"  {len(passes)} passes in {sum(s for _, _, s in done):.2f} s; "
          f"latency samples: {len(adjusted)}")
    print("  unadjusted: " + json.dumps(timings(unadjusted, setup[1])))
    if workload == "lab":
        probe_known_defect(ordcsp, oracle)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result(len(done), failures, metrics)


def traced(workload, seed, ops, ordcsp):
    tracer = Tracer()
    plain, spanned = [], []
    # Each operation runs plainly and traced, alternating which goes first,
    # so that warm-up effects cancel in the overhead.
    for i, op in enumerate(ops):
        if i % 2:
            spanned += run_ops([op], ordcsp, tracer)
            plain += run_ops([op], ordcsp)
        else:
            plain += run_ops([op], ordcsp)
            spanned += run_ops([op], ordcsp, tracer)
    # Median over operations, so that no single long call sets it.
    overhead = statistics.median(b[2] / a[2] for a, b in zip(plain, spanned)) - 1
    oracle = Oracle(ordcsp)
    if workload == "lab":
        probe_known_defect(ordcsp, oracle, tracer)
    failures, wrong = judge(plain + spanned, oracle)
    for (op, a, _), (_, b, _) in zip(plain, spanned):
        if summary(op, a) != summary(op, b):
            failures["traced output differs"] += 1
            wrong.append(f"{op.label}: traced output differs from the plain one")
    report(workload, seed, spanned, failures, wrong)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    metrics = tracer.metrics(overhead)
    return result(len(plain) + len(spanned), failures, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        ordcsp = import_package()
    except ImportError as exc:
        print(f"cannot import the ordcsp package from {SRC}: {exc}", file=sys.stderr)
        return 2
    ops = generate(args.workload, args.seed, ordcsp)
    *setup, ordcsp = set_up(ops)
    if args.trace:
        out = traced(args.workload, args.seed, ops, ordcsp)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds, ops, setup, ordcsp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

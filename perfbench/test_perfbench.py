"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run
from oracles import Oracle
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, build, generate

sys.path.insert(0, str(run.SRC))

# Largest n kept per preset, so that the checks run in seconds.
SMALL = {"qlt": 16, "ord3": 8, "gamma1": 4, "gamma3": 5, "gamma2": 4}


def small_ops(workload, seed):
    ordcsp = run.import_package()
    ops = generate(workload, seed, ordcsp)
    if workload != "lab":
        ops = [op for op in ops if op.spec.n <= SMALL[op.spec.template]]
    build(ops, ordcsp)
    return ops, ordcsp


def test_names_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_seeded_run_has_no_wrong_outputs(workload):
    ops, ordcsp = small_ops(workload, seed=7)
    done = run.run_ops(ops, ordcsp)
    failures, wrong = run.judge(done, Oracle(ordcsp))
    assert not failures and not wrong


def test_oracle_rejects_a_flipped_verdict():
    ops, ordcsp = small_ops("solve-direct", seed=7)
    op = next(op for op in ops if not op.spec.planted)
    verdict = ordcsp.solve(op.args["template"], op.args["instance"])
    verdict.accept = not verdict.accept
    verdict.witness = {v: 0 for v in op.spec.variables}
    verdict.domains = {v: [0] for v in op.spec.variables}
    assert Oracle(ordcsp).check(op, verdict) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_outputs_match(workload):
    ops, ordcsp = small_ops(workload, seed=3)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        spanned = run.run_ops(ops, ordcsp, tracer)
        counts.append(tracer.counts_only())
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    plain = run.run_ops(ops, ordcsp)
    for (op, a, _), (_, b, _) in zip(plain, spanned):
        assert run.summary(op, a) == run.summary(op, b)

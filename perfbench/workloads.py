"""Seeded inputs for the benchmark workloads, and the calls that run them.

Inputs are made in two steps. ``generate`` draws plain-Python specs from
the seed (variable names, constraint tuples, relation tuple sets, planted
assignments); it touches the package only to read preset formulas. ``build``
turns specs into package objects (``preset``, ``Instance``,
``FiniteStructure``, ``sample`` for lab structures); that is the set-up a
user pays for, and ``run.py`` times it.

A workload is a list of operations, shuffled by the seed. One operation
is one public call, or, for ``structure``, the lab's four questions on one
structure: ``power_structure`` followed by ``hom_exists`` on its result,
``has_ts_polymorphism`` at arity (max arity)*|B|, and ``find_semilattice``.
``call`` runs an operation;
``call_traced`` runs the same layers in the same order with a span around
each call into a layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("solve-direct", "solve-interp", "lab")

# (preset, n, count): count planted and count random instances. Counts
# fall as n grows, so that a run holds at least 100 operations, and the
# largest sizes keep three instances each, so that no single instance
# sets p90. qlt stops at n=32 and ord3 at n=12: single instances above
# that vary by up to 2x from seed to seed.
SOLVE_GRID = {
    "solve-direct": (
        ("qlt", 8, 5), ("qlt", 12, 5), ("qlt", 16, 4), ("qlt", 20, 4),
        ("qlt", 24, 3), ("qlt", 28, 3), ("qlt", 32, 3),
        ("ord3", 6, 4), ("ord3", 7, 4), ("ord3", 8, 4), ("ord3", 9, 4),
        ("ord3", 10, 3), ("ord3", 11, 3), ("ord3", 12, 3),
    ),
    "solve-interp": (
        ("gamma1", 3, 3), ("gamma1", 4, 2), ("gamma1", 5, 1), ("gamma1", 6, 1),
        ("gamma3", 3, 8), ("gamma3", 4, 6), ("gamma3", 5, 5), ("gamma3", 6, 4),
        ("gamma3", 7, 3),
        ("gamma2", 3, 8), ("gamma2", 4, 6), ("gamma2", 5, 3),
    ),
}
CONSTRAINTS_PER_VARIABLE = 2

# Inputs too small to time (orbits at n=1, samples at n=2, structures on
# one or two elements) are left out, and so is the ord3 sample at n=5: its
# four seconds of power_structure plus hom_exists would set the pace of
# the whole workload. Random structures have three elements, so that they
# all stay below the deterministic operations that decide p90.
ORBIT_SIZES = {"qlt": 5, "ord3": 5, "gamma2": 5, "gamma3": 5, "gamma1": 4}
SAMPLE_STRUCTURES = (("qlt", range(3, 6)), ("ord3", range(3, 5)))
RANDOM_BINARY = 36
MIN_CLOSED = 12
INTERP_TS = (("gamma1", 2, 2), ("gamma1", 2, 3), ("gamma2", 2, 2), ("gamma2", 2, 3))
WALK_ARITIES = (2, 3)
# has_ts_polymorphism on this sample at this arity exceeds the interpreter's
# recursion limit (a known defect of the TS backtracker). It runs once per
# lab run, after the timed loop and not as an operation, so that the defect
# stays visible while every operation of the workload succeeds.
KNOWN_DEFECT_TS = ("gamma1", 2, 4)

_ATOMS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def holds(f, point) -> bool:
    """Evaluate a formula AST on a point, independently of the package's
    compiled evaluator (nodes are read by class name and fields)."""
    kind = type(f).__name__
    if kind == "Const":
        return f.value
    if kind == "Atom":
        return _ATOMS[f.op](point[f.left], point[f.right])
    if kind == "Not":
        return not holds(f.child, point)
    if kind == "And":
        return all(holds(c, point) for c in f.children)
    if kind == "Or":
        return any(holds(c, point) for c in f.children)
    raise TypeError(f"not a formula node: {f!r}")


@dataclass
class InstanceSpec:
    template: str
    n: int
    planted: bool
    variables: tuple
    constraints: tuple
    points: tuple | None  # planted point per variable


@dataclass
class StructureSpec:
    """A lab input structure: either explicit tuples or a preset sample.

    ``known`` is the independently known truth of "has a semilattice / TS
    polymorphism of every arity" (None when only cross-checks apply)."""

    label: str
    size: int = 0
    relations: tuple = ()  # ((name, arity, frozenset of tuples), ...)
    sample_of: tuple | None = None  # (preset, n)
    known: bool | None = None


@dataclass
class Op:
    kind: str  # solve | orbit | structure | ts | walk
    label: str
    spec: object
    arity: int = 0
    args: dict = field(default_factory=dict)  # package objects, from build


# ---------------------------------------------------------------------------
# Generation


def _point(rng, t, grid):
    while True:
        p = tuple(rng.randrange(grid) for _ in range(t.dimension))
        if holds(t.domain_formula, p):
            return p


def instance_spec(rng, t, n, planted) -> InstanceSpec:
    variables = tuple(f"v{i}" for i in range(n))
    m = CONSTRAINTS_PER_VARIABLE * n
    grid = t.dimension * n
    points = None
    while True:
        if planted:
            points = tuple(_point(rng, t, grid) for _ in range(n))
        constraints = []
        for _attempt in range(1000 * m):
            rel = rng.choice(t.relations)
            args = tuple(rng.randrange(n) for _ in range(rel.arity))
            if planted:
                flat = tuple(x for i in args for x in points[i])
                if not holds(rel.formula, flat):
                    continue
            constraints.append((rel.name, tuple(variables[i] for i in args)))
            if len(constraints) == m:
                return InstanceSpec(
                    t.name, n, planted, variables, tuple(constraints), points
                )


def _random_binary(rng, label, m):
    """Half of the m*m pairs, chosen at random."""
    pairs = [(i, j) for i in range(m) for j in range(m)]
    return StructureSpec(label, m, (("E", 2, frozenset(rng.sample(pairs, m * m // 2))),))


def _min_closed(rng, label, m):
    """One or two random binary relations, closed under componentwise min:
    min is then a polymorphism, so TS polymorphisms of every arity exist."""
    relations = []
    for r in range(rng.randint(1, 2)):
        tuples = {
            (i, j)
            for i in range(m)
            for j in range(m)
            if rng.random() < rng.random()
        }
        while True:
            extra = {
                (min(a1, a2), min(b1, b2))
                for a1, b1 in tuples
                for a2, b2 in tuples
            } - tuples
            if not extra:
                break
            tuples |= extra
        relations.append((f"R{r}", 2, frozenset(tuples)))
    return StructureSpec(label, m, tuple(relations), known=True)


def _complete_graph(m):
    tuples = frozenset((i, j) for i in range(m) for j in range(m) if i != j)
    return StructureSpec(f"K{m}", m, (("E", 2, tuples),), known=False)


def generate(workload: str, seed: int, ordcsp) -> list[Op]:
    """The operations of one run, in an order shuffled by the seed."""
    rng = random.Random(f"{seed}:{workload}")
    if workload in SOLVE_GRID:
        ops = []
        for name, n, count in SOLVE_GRID[workload]:
            t = ordcsp.preset(name)
            for planted in (True, False):
                kind = "planted" if planted else "random"
                for _ in range(count):
                    spec = instance_spec(rng, t, n, planted)
                    ops.append(Op("solve", f"{name} n={n} {kind}", spec))
    else:
        ops = _lab_ops(rng)
    rng.shuffle(ops)
    return ops


def _lab_ops(rng) -> list[Op]:
    ops = [
        Op("orbit", f"orbit {name} n={n}", (name, n))
        for name, top in ORBIT_SIZES.items()
        for n in range(2, top + 1)
    ]
    structures = [_complete_graph(3), _complete_graph(4)]
    for name, sizes in SAMPLE_STRUCTURES:
        for n in sizes:
            structures.append(
                StructureSpec(f"{name} sample n={n}", sample_of=(name, n),
                              known=True)
            )
    for i in range(RANDOM_BINARY):
        structures.append(_random_binary(rng, f"random binary #{i}", 3))
    min_closed = [_min_closed(rng, f"min-closed #{i}", 3) for i in range(MIN_CLOSED)]
    structures += min_closed
    for s in structures:
        ops.append(Op("structure", f"questions on {s.label}", s))
    for name, n, arity in INTERP_TS:
        s = StructureSpec(f"{name} sample n={n}", sample_of=(name, n), known=True)
        ops.append(Op("ts", f"ts {s.label} arity {arity}", s, arity))
    for s in min_closed:
        for arity in WALK_ARITIES:
            ops.append(Op("walk", f"walk {s.label} arity {arity}", s, arity))
    return ops


def known_defect_op() -> Op:
    name, n, arity = KNOWN_DEFECT_TS
    s = StructureSpec(f"{name} sample n={n}", sample_of=(name, n), known=True)
    return Op("ts", f"ts {s.label} arity {arity}", s, arity)


# ---------------------------------------------------------------------------
# Building package objects (timed as set-up)


def build(ops: list[Op], ordcsp) -> None:
    """Fill ``op.args`` with package objects made by the package."""
    templates = {}
    structures = {}

    def template(name):
        if name not in templates:
            templates[name] = ordcsp.preset(name)
        return templates[name]

    def structure(spec: StructureSpec):
        if spec.sample_of is not None:
            key = spec.sample_of
            if key not in structures:
                name, n = key
                structures[key] = ordcsp.sample(template(name), n).structure
            return structures[key]
        return ordcsp.FiniteStructure(
            ordcsp.Signature(tuple((n, a) for n, a, _ in spec.relations)),
            spec.size,
            {n: tuples for n, _, tuples in spec.relations},
        )

    for op in ops:
        if op.kind == "solve":
            spec = op.spec
            op.args = {
                "template": template(spec.template),
                "instance": ordcsp.Instance(spec.variables, spec.constraints),
            }
        elif op.kind == "orbit":
            op.args = {"template": template(op.spec[0])}
        else:
            b = structure(op.spec)
            if op.kind == "structure":
                op.arity = max(1, b.max_arity() * b.size)
            op.args = {"structure": b}


# ---------------------------------------------------------------------------
# Running operations


def call(op: Op, ordcsp):
    a = op.args
    if op.kind == "solve":
        return ordcsp.solve(a["template"], a["instance"])
    if op.kind == "orbit":
        return ordcsp.orbit_count(a["template"], op.spec[1])
    b = a["structure"]
    if op.kind == "structure":
        p = ordcsp.power_structure(b)
        return (
            p,
            ordcsp.hom_exists(p, b),
            ordcsp.has_ts_polymorphism(b, op.arity),
            ordcsp.find_semilattice(b),
        )
    if op.kind == "ts":
        return ordcsp.has_ts_polymorphism(b, op.arity)
    if op.kind == "walk":
        return ordcsp.check_aclwalk_lemma(b, op.arity)
    raise ValueError(op.kind)


def traced_ts(b, arity, ordcsp, tracer):
    table = tracer.span("polymorphism.ts", ordcsp.has_ts_polymorphism, b, arity)
    tracer.add("polymorphism.ts.found", table is not None)
    return table


def call_traced(op: Op, ordcsp, tracer):
    """``call`` with a span around each call into a layer. A solve runs
    its layers as ``solve`` does: sample, ac, then the witness fold."""
    a = op.args
    span = tracer.span
    if op.kind == "solve":
        t, instance = a["template"], a["instance"]
        n = len(instance.variables)
        smp = span("sampler", ordcsp.sample, t, n)
        b = smp.structure
        tracer.count_sample(t, n, b)
        accept, h = span("solver.ac", ordcsp.ac, instance, b)
        tracer.count_ac(instance, b, h, accept)
        if not accept:
            return ordcsp.Verdict(False, b.size)
        domains = {v: sorted(h[v]) for v in instance.variables}
        verdict = ordcsp.Verdict(True, b.size, domains)
        if t.kind == "direct" and t.semilattice is not None:
            verdict.witness = span(
                "solver.witness", ordcsp.extract_witness, t, instance, domains
            )
        return verdict
    if op.kind == "orbit":
        report = span("lab.orbit", ordcsp.orbit_count, a["template"], op.spec[1])
        tracer.add("lab.orbit.classes", report.class_count)
        return report
    b = a["structure"]
    if op.kind == "structure":
        p = span("powerset", ordcsp.power_structure, b)
        tracer.add("powerset.elements", p.size)
        tracer.add("powerset.tuples", sum(map(len, p.relations.values())))
        mapping = span("hom", ordcsp.hom_exists, p, b)
        tracer.add("hom.found", mapping is not None)
        table = traced_ts(b, op.arity, ordcsp, tracer)
        lattice = span("polymorphism.semilattice", ordcsp.find_semilattice, b)
        tracer.add("polymorphism.semilattice.found", lattice is not None)
        return p, mapping, table, lattice
    if op.kind == "ts":
        return traced_ts(b, op.arity, ordcsp, tracer)
    if op.kind == "walk":
        return span("lab.walk", ordcsp.check_aclwalk_lemma, b, op.arity)
    raise ValueError(op.kind)

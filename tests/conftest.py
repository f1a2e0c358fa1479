"""Shared builders and independent oracles for the test suite."""

import operator
from functools import lru_cache
from itertools import product

from ordcsp import FiniteStructure, Instance, Signature


def complete_graph(n):
    return FiniteStructure(
        Signature((("E", 2),)),
        n,
        {"E": frozenset((i, j) for i in range(n) for j in range(n) if i != j)},
    )


def binary_structure(size, tuples, name="E"):
    return FiniteStructure(
        Signature(((name, 2),)), size, {name: frozenset(tuples)}
    )


def random_binary_structure(rng, max_size=4):
    m = rng.randint(1, max_size)
    density = rng.random()
    tuples = frozenset(
        (i, j) for i in range(m) for j in range(m) if rng.random() < density
    )
    return binary_structure(m, tuples)


def random_instance(rng, symbols, max_vars=6, max_constraints=8):
    k = rng.randint(1, max_vars)
    variables = tuple(f"v{i}" for i in range(k))
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        name, arity = symbols[rng.randrange(len(symbols))]
        constraints.append(
            (name, tuple(rng.choice(variables) for _ in range(arity)))
        )
    return Instance(variables, tuple(constraints))


def min_closed_structure(rng, max_size=3, max_relations=2):
    """Random binary relations closed under componentwise min, so min is a
    polymorphism and totally symmetric polymorphisms of all arities exist."""
    m = rng.randint(2, max_size)
    n_rel = rng.randint(1, max_relations)
    relations = {}
    symbols = []
    for r in range(n_rel):
        name = f"R{r}"
        symbols.append((name, 2))
        tuples = {
            (i, j)
            for i in range(m)
            for j in range(m)
            if rng.random() < rng.random()
        }
        while True:
            extra = {
                (min(a1, a2), min(b1, b2))
                for (a1, b1) in tuples
                for (a2, b2) in tuples
            } - tuples
            if not extra:
                break
            tuples |= extra
        relations[name] = frozenset(tuples)
    return FiniteStructure(Signature(tuple(symbols)), m, relations)


@lru_cache(maxsize=None)
def weak_orders(k):
    """All surjective rank patterns on k items (total preorders)."""
    out = []
    for ranks in product(range(k), repeat=k):
        if set(ranks) == set(range(max(ranks) + 1)):
            out.append(ranks)
    return tuple(out)


def satisfiable_by_weak_order(template, instance):
    """Direct-template satisfiability oracle: try every weak order of the
    variables and evaluate the defining formulas on the ranks."""
    k = len(instance.variables)
    if k == 0:
        return True
    index = {v: i for i, v in enumerate(instance.variables)}
    formulas = {rel.name: rel.formula for rel in template.relations}
    for ranks in weak_orders(k):
        if all(
            holds(formulas[rel], [ranks[index[v]] for v in args])
            for rel, args in instance.constraints
        ):
            return True
    return False


def all_binary_structures(size):
    """Every structure with one binary relation on a fixed domain size."""
    pairs = [(i, j) for i in range(size) for j in range(size)]
    for bits in range(2 ** len(pairs)):
        tuples = frozenset(
            pairs[i] for i in range(len(pairs)) if bits >> i & 1
        )
        yield binary_structure(size, tuples)


_REFERENCE_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "eq": operator.eq,
    "ne": operator.ne,
    "gt": operator.gt,
    "ge": operator.ge,
}


def holds(f, point):
    """Reference evaluator: walk the formula AST, reading nodes by class
    name and fields, never through ``compile_formula``. It recurses once
    per connective, so chains of ``MAX_DEPTH`` fit the recursion limit."""
    kind = type(f).__name__
    if kind == "Const":
        return f.value
    if kind == "Atom":
        return _REFERENCE_OPS[f.op](point[f.left], point[f.right])
    if kind == "Not":
        return not holds(f.child, point)
    if kind in ("And", "Or"):
        decisive = kind == "Or"
        for child in f.children:
            if holds(child, point) == decisive:
                return decisive
        return not decisive
    raise TypeError(f"not a formula node: {f!r}")

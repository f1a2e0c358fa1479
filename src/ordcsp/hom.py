"""Exhaustive homomorphism search.

``hom_exists`` decides whether an instance (or a whole structure) maps
homomorphically into a target structure, by backtracking with forward
checking. The search is complete, so an absent result is authoritative.
It runs as a loop over an explicit stack of assigned variables, and undoes
a failed choice from a trail of ``(variable, old domain)`` entries, so its
depth is not bounded by the interpreter's recursion limit and no node
copies the domains.
"""

from __future__ import annotations

from operator import contains, itemgetter

from .errors import SignatureMismatch
from .structures import FiniteStructure, Instance, instance_view


def _constraint_view(a, b: FiniteStructure):
    if isinstance(a, FiniteStructure):
        for name, arity in a.signature.symbols:
            if name not in b.signature:
                raise SignatureMismatch(f"unknown relation symbol {name!r}")
            if b.signature.arity(name) != arity:
                raise SignatureMismatch(
                    f"relation {name!r}: arity {arity} vs "
                    f"{b.signature.arity(name)} in target"
                )
        return instance_view(a)
    if isinstance(a, Instance):
        a.check_against(b.signature)
        return list(a.variables), list(a.constraints)
    raise TypeError(f"expected Instance or FiniteStructure, got {type(a)!r}")


def _filter_constraint(tuples, args, domains):
    """Per-variable supported values for one constraint, or None if no
    tuple is compatible with the domains. A variable repeated in ``args``
    takes one value per tuple."""
    first = {}
    for pos, v in enumerate(args):
        first.setdefault(v, pos)
    doms = [domains[v] for v in args]
    kept = [t for t in tuples if all(map(contains, doms, t))]
    repeats = [
        (pos, first[v]) for pos, v in enumerate(args) if pos != first[v]
    ]
    if repeats:
        kept = [t for t in kept if all(t[p] == t[q] for p, q in repeats)]
    if not kept:
        return None
    return {v: set(map(itemgetter(pos), kept)) for v, pos in first.items()}


def hom_exists(a, b: FiniteStructure):
    """Search for a homomorphism from ``a`` into ``b``.

    ``a`` may be an Instance or a FiniteStructure (its elements then act
    as variables). Returns a mapping dict on success, None when no
    homomorphism exists.
    """
    variables, constraints = _constraint_view(a, b)
    if not variables:
        return {}
    relation_tuples = [
        (b.relations[rel], tuple(args)) for rel, args in constraints
    ]
    by_var = {v: [] for v in variables}
    for idx, (_, args) in enumerate(relation_tuples):
        for v in set(args):
            by_var[v].append(idx)

    order_index = {v: i for i, v in enumerate(variables)}
    domains = {v: set(range(b.size)) for v in variables}
    trail = []  # (variable, its domain before a narrowing), newest last

    def propagate(dirty):
        # Re-filter constraints touching changed variables to a fixpoint,
        # trailing every domain it replaces.
        queue = list(dict.fromkeys(dirty))
        queued = set(queue)
        while queue:
            ci = queue.pop()
            queued.discard(ci)
            tuples, args = relation_tuples[ci]
            supported = _filter_constraint(tuples, args, domains)
            if supported is None:
                return False
            for v, values in supported.items():
                if values < domains[v]:
                    trail.append((v, domains[v]))
                    domains[v] = values
                    for cj in by_var[v]:
                        if cj != ci and cj not in queued:
                            queue.append(cj)
                            queued.add(cj)
        return True

    if not propagate(range(len(relation_tuples))):
        return None
    # One frame per assigned variable: (variable, its candidate values,
    # how many of them were tried, trail length before the first try).
    stack = []
    unassigned = set(variables)
    while unassigned:
        var = min(
            unassigned, key=lambda v: (len(domains[v]), order_index[v])
        )
        unassigned.remove(var)
        stack.append((var, sorted(domains[var]), 0, len(trail)))
        while stack:
            var, values, tried, mark = stack.pop()
            while len(trail) > mark:
                v, old = trail.pop()
                domains[v] = old
            if tried == len(values):
                unassigned.add(var)
                continue
            stack.append((var, values, tried + 1, mark))
            trail.append((var, domains[var]))
            domains[var] = {values[tried]}
            if propagate(by_var[var]):
                break
        else:
            return None
    return {var: values[tried - 1] for var, values, tried, _ in stack}

"""Exhaustive homomorphism search.

``hom_exists`` decides whether an instance (or a whole structure) maps
homomorphically into a target structure, by backtracking with forward
checking. The search is complete, so an absent result is authoritative.
It gives the variable with the fewest candidates (its mask's
``bit_count``; ties by declaration order) each value ascending, as the
mask ``1 << value``, and runs ``solver.propagate``, the propagator ``ac``
uses, to the fixpoint, with each repeated variable held to one value:
``R(x, x)`` revises on the diagonal rows ``fwd[a] & (1 << a)`` both ways,
and a table constraint keeps the tuples equal on a repeated variable's
positions. The search loops over an explicit stack and undoes a failed
choice from the propagator's trail of ``(store, key, old)`` entries,
restoring masks and live tuple lists together, so no node copies the
domains and the interpreter's recursion limit bounds no depth.
"""

from __future__ import annotations

from collections import deque

from .errors import SignatureMismatch
from .solver import network, propagate, structure_source
from .structures import FiniteStructure, Instance, _values


def _constraint_view(a, b: FiniteStructure):
    """``a``'s variables, a ``range`` for a structure, and constraints."""
    if isinstance(a, FiniteStructure):
        for name, arity in a.signature.symbols:
            if b.signature.arity(name) != arity:
                raise SignatureMismatch(
                    f"relation {name!r}: arity {arity} vs "
                    f"{b.signature.arity(name)} in target"
                )
        tuples = [(name, t) for name, ts in a.relations.items() for t in sorted(ts)]
        return range(a.size), tuples
    if isinstance(a, Instance):
        a.check_against(b.signature)
        return list(a.variables), list(a.constraints)
    raise TypeError(f"expected Instance or FiniteStructure, got {type(a)!r}")


def hom_exists(a, b: FiniteStructure):
    """Search for a homomorphism from ``a`` into ``b``.

    ``a`` may be an Instance or a FiniteStructure (its elements then act
    as variables). Returns a mapping dict on success, None when no
    homomorphism exists.
    """
    variables, constraints = _constraint_view(a, b)
    h, args_of, live, by_var = network(variables, constraints, *structure_source(b))
    # A repeated variable takes one value: on the diagonal rows, flagged
    # as no chain, or on the tuples equal on its positions, each position
    # projects to the same set.
    for ci, args in enumerate(args_of):
        repeats = [(p, q) for p, v in enumerate(args) if (q := args.index(v)) != p]
        if repeats and type(live[ci]) is tuple:
            diagonal = [f & 1 << a for a, f in enumerate(live[ci][0])]
            live[ci] = diagonal, diagonal, 0, 0
        elif repeats:
            live[ci] = [t for t in live[ci] if all(t[p] == t[q] for p, q in repeats)]
    order_index = {v: i for i, v in enumerate(variables)}
    # The first fixpoint is never undone, so its trail keeps nothing.
    queue, sets = deque(range(len(args_of))), {}
    if not propagate(h, args_of, live, by_var, queue, deque(maxlen=0), sets):
        return None
    trail = []  # (store, key, old value) per narrowing, newest last
    # One frame per assigned variable: (variable, its candidate values,
    # how many of them were tried, trail length before the first try).
    stack = []
    unassigned = set(variables)
    while unassigned:
        var = min(unassigned, key=lambda v: (h[v].bit_count(), order_index[v]))
        unassigned.remove(var)
        stack.append((var, list(_values(h[var])), 0, len(trail)))
        while stack:
            var, values, tried, mark = stack.pop()
            while len(trail) > mark:
                store, key, old = trail.pop()
                store[key] = old
            if tried == len(values):
                unassigned.add(var)
                continue
            stack.append((var, values, tried + 1, mark))
            trail.append((h, var, h[var]))
            h[var] = 1 << values[tried]
            if propagate(h, args_of, live, by_var, deque(by_var[var]), trail, sets):
                break
        else:
            return None
    return {var: values[tried - 1] for var, values, tried, _ in stack}

"""Exhaustive homomorphism search.

``hom_exists`` decides whether an instance (or a whole structure) maps
homomorphically into a target structure, by backtracking with forward
checking. The search is complete, so an absent result is authoritative.
Its whole state is one ``solver.network``, in which each repeated
variable is held to one value (``R(x, x)`` revises on the diagonal rows
``fwd[a] & (1 << a)`` both ways; a table keeps the tuples equal on its
positions), and its first fixpoint is ``solver._fixpoint``'s, as for
``ac``. It then gives the variable with the fewest candidates (mask
``bit_count``; ties by declaration order) each value ascending, as the
mask ``1 << value``, and runs ``solver.propagate`` to the fixpoint. It
undoes a failed choice from the trail of ``(store, key, old)`` entries,
restoring masks and live tuple lists together, over an explicit stack, so
no node copies the domains and no recursion limit bounds its depth.
"""

from __future__ import annotations

from collections import deque

from .errors import SignatureMismatch
from .solver import _fixpoint, network, propagate, structure_source
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
    net = network(*_constraint_view(a, b), *structure_source(b))
    h, args_of, live, by_var, _ = net
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
    if not _fixpoint(net, False):
        return None
    order_index = {v: i for i, v in enumerate(h)}
    trail = []  # (store, key, old value) per narrowing, newest last
    # One frame per assigned variable: (variable, its candidate values,
    # how many of them were tried, trail length before the first try).
    stack = []
    unassigned = set(h)
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
            if propagate(net, deque(by_var[var]), trail):
                break
        else:
            return None
    return {var: values[tried - 1] for var, values, tried, _ in stack}

"""Exhaustive homomorphism search.

``hom_exists`` decides whether an instance (or a whole structure) maps
homomorphically into a target structure, by backtracking with forward
checking. The search is complete, so an absent result is authoritative.
After each assignment it runs ``solver.propagate``, the propagator
``ac`` uses, to the fixpoint. A binary constraint on two distinct
variables revises there on its relation's support bitsets, and every
other constraint by table reduction, here on only the tuples that give a
repeated variable one value; that filter is one reason ``R(x, x)`` stays
on tables. The search runs as a loop over an explicit stack of assigned variables,
and undoes a failed choice from the propagator's trail of ``(store, key,
old)`` entries, which restores domains and live tuple lists together;
bitsets never change, so only domains are trailed for them. So its
depth is not bounded by the interpreter's recursion limit and no node
copies the domains.
"""

from __future__ import annotations

from collections import deque

from .errors import SignatureMismatch
from .solver import network, propagate
from .structures import FiniteStructure, Instance, instance_view


def _constraint_view(a, b: FiniteStructure):
    if isinstance(a, FiniteStructure):
        for name, arity in a.signature.symbols:
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


def hom_exists(a, b: FiniteStructure):
    """Search for a homomorphism from ``a`` into ``b``.

    ``a`` may be an Instance or a FiniteStructure (its elements then act
    as variables). Returns a mapping dict on success, None when no
    homomorphism exists.
    """
    variables, constraints = _constraint_view(a, b)
    if not variables:
        return {}
    h, args_of, live, by_var = network(variables, constraints, b)
    # A repeated variable takes one value per tuple. On the tuples equal
    # on its positions, each position projects to the same set, so the
    # propagator's intersection rule gives exactly that.
    for ci, args in enumerate(args_of):
        repeats = [(p, q) for p, v in enumerate(args) if (q := args.index(v)) != p]
        if repeats:
            live[ci] = [
                t for t in live[ci] if all(t[p] == t[q] for p, q in repeats)
            ]
    order_index = {v: i for i, v in enumerate(variables)}
    # The first fixpoint is never undone, so its trail keeps nothing.
    queue = deque(range(len(args_of)))
    if not propagate(h, args_of, live, by_var, queue, deque(maxlen=0)):
        return None
    trail = []  # (store, key, old value) per narrowing, newest last
    # One frame per assigned variable: (variable, its candidate values,
    # how many of them were tried, trail length before the first try).
    stack = []
    unassigned = set(variables)
    while unassigned:
        var = min(unassigned, key=lambda v: (len(h[v]), order_index[v]))
        unassigned.remove(var)
        stack.append((var, sorted(h[var]), 0, len(trail)))
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
            h[var] = {values[tried]}
            if propagate(h, args_of, live, by_var, deque(by_var[var]), trail):
                break
        else:
            return None
    return {var: values[tried - 1] for var, values, tried, _ in stack}

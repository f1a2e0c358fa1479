"""The structure on non-empty subsets of a finite structure's domain.

Elements of ``power_structure(B)`` are the 2^m - 1 non-empty subsets of
B's domain, numbered by ascending bitmask (mask 1 = {0} first). A tuple
of subsets (U_1, ..., U_k) is in a relation iff every element of every
U_i extends to a tuple of R^B drawn from U_1 x ... x U_k: boxes grow one
position at a time with ``live``, the bitmask of the tuples inside, and
a box is kept iff each x in each U_i is the i-th entry of a live tuple.
"""

from __future__ import annotations

from .errors import CapExceeded
from .formula import MAX_TABLE_WIDTH
from .sampler import _power_exceeds
from .structures import FiniteStructure, _values

SUBSET_CAP_BITS = 16  # binds only with no relation of arity >= 2 (see BOX_CAP)
# Candidate boxes, (2^m - 1)^arity summed over the relations; K11 has 4.2 M.
BOX_CAP = 10**7


def power_structure(b: FiniteStructure) -> FiniteStructure:
    """P(b); ``CapExceeded`` past ``SUBSET_CAP_BITS`` elements, ``BOX_CAP``
    boxes or arity ``MAX_TABLE_WIDTH``, before any subset is listed."""
    if b.size < 1:
        raise ValueError("power_structure needs a non-empty domain")
    if b.size > SUBSET_CAP_BITS:
        raise CapExceeded(
            f"power_structure cap: size {b.size} > {SUBSET_CAP_BITS} "
            f"(2^{b.size} - 1 subsets)"
        )
    count, boxes = (1 << b.size) - 1, 0
    for _, arity in b.signature.symbols:
        if arity > MAX_TABLE_WIDTH:
            raise CapExceeded(f"power_structure cap: arity {arity} > {MAX_TABLE_WIDTH}")
        if _power_exceeds(count, arity, BOX_CAP - boxes):
            raise CapExceeded(f"box cap: {boxes} + {count}^{arity} > {BOX_CAP}")
        boxes += count**arity
    subsets = [tuple(_values(mask)) for mask in range(1, count + 1)]
    relations = {}
    for name, arity in b.signature.symbols:
        # byval[i][x]: bitmask of the tuples t with t[i] == x;
        # need[i][u]: those masks for each x in the subset numbered u.
        byval = [[0] * b.size for _ in range(arity)]
        for bit, t in enumerate(b.relations[name]):
            for i, x in enumerate(t):
                byval[i][x] |= 1 << bit
        need = [[tuple(bv[x] for x in s) for s in subsets] for bv in byval]
        boxes = [((), -1)]  # (subset numbers so far, live tuple bitmask)
        for ni in need:
            cover = [sum(masks) for masks in ni]  # disjoint, so sum is OR
            boxes = [
                (box + (u,), live & c)
                for box, live in boxes
                for u, c in enumerate(cover)
                if live & c
            ]
        relations[name] = frozenset(
            box
            for box, live in boxes
            if all(v & live for ni, u in zip(need, box) for v in ni[u])
        )
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)
    return FiniteStructure(b.signature, len(subsets), relations, labels)

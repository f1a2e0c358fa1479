"""The finite theory: subset structures, totally symmetric operations,
semilattices, and alternating walks.

For a finite structure B these are equivalent: arc-consistency decides
homomorphisms into B; the structure on non-empty subsets of B maps back
into B; B has totally symmetric polymorphisms of every arity. The lab
checks the last two sides against each other, plus a walk-based
consequence.
"""

from dataclasses import asdict

from ordcsp import (
    FiniteStructure,
    Signature,
    check_aclwalk_lemma,
    check_set_hom_equiv,
    find_alternating_walk,
    find_semilattice,
    has_ts_polymorphism,
    hom_exists,
    is_polymorphism,
    power_structure,
)


def binary(size, tuples):
    return FiniteStructure(
        Signature((("R", 2),)), size, {"R": frozenset(tuples)}
    )


# The order relation on {0,1}: min is a semilattice polymorphism, so a
# totally symmetric operation of any arity exists (fold min).
b = binary(2, {(0, 0), (0, 1), (1, 1)})
print("B = ({0,1}; R = {(0,0),(0,1),(1,1)})")
op = find_semilattice(b)
print("  semilattice table:", op.table, "(min)")
ts = has_ts_polymorphism(b, 2)
print("  binary TS table:  ", sorted((sorted(s), v) for s, v in ts.entries.items()))
print("  is polymorphism:  ", is_polymorphism(ts, b))

p = power_structure(b)
print("  subset structure: ", p.size, "elements,", p.labels)
print("  maps back into B: ", hom_exists(p, b) is not None)

# K3 has neither: commutativity would force f(0,1) = f(1,0), but the
# image pair (f(0,1), f(1,0)) must be an edge, and edges are irreflexive.
k3 = FiniteStructure(
    Signature((("E", 2),)),
    3,
    {"E": {(i, j) for i in range(3) for j in range(3) if i != j}},
)
report = check_set_hom_equiv(k3)
print("\nK3 equivalence report:", asdict(report))

# Alternating closed walks: with a totally symmetric polymorphism of
# arity n, a walk of length exactly 2n on (R, S) forces R and the
# converse of S to meet.
walk = find_alternating_walk({(0, 1), (1, 0)}, {(0, 1), (1, 0)}, 3)
print("\nshortest alternating walk on a 2-cycle:", walk.elements)

lemma = check_aclwalk_lemma(b, 2)
for pair in lemma.pairs:
    print(
        f"walk check (R={pair.r_name}, S={pair.s_name}): "
        f"exact walk={pair.exact_walk.elements if pair.exact_walk else None} "
        f"intersection={pair.intersection_nonempty} "
        f"violation={pair.violation}"
    )

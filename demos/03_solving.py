"""Solving instances: sample, propagate, extract a witness.

The solver lists the representatives of the template's sample at the
instance's variable count and runs arc-consistency against that sample,
building each relation it needs straight from the relation's formula. For direct templates that declare a
semilattice operation, an accepted run also yields a concrete satisfying
assignment: fold min (or max) over each variable's surviving candidates.
"""

import json

from ordcsp import (
    FiniteStructure,
    Instance,
    Signature,
    ac,
    hom_exists,
    power_structure,
    preset,
    solve,
)

qlt = preset("qlt")
ord3 = preset("ord3")

# An order 3-cycle is unsatisfiable; propagation empties a domain.
cycle = Instance(
    ("x", "y", "z"),
    (("Lt", ("x", "y")), ("Lt", ("y", "z")), ("Lt", ("z", "x"))),
)
print("x<y<z<x :", solve(qlt, cycle).to_json_dict())

# T(x,y,z) means x>y or x>z; satisfiable, and min-folding the accepted
# domains gives a verified assignment.
inst = Instance(("x", "y", "z"), (("T", ("x", "y", "z")),))
print("T(x,y,z):", json.dumps(solve(ord3, inst).to_json_dict()))

# Repeating the variable forces x>x: rejected.
inst = Instance(("x",), (("T", ("x", "x", "x")),))
print("T(x,x,x):", solve(ord3, inst).to_json_dict())

# Interpretations solve the same way but report no witness, only the
# surviving candidate classes.
gamma2 = preset("gamma2")
inst = Instance(
    ("a", "b", "c"), (("R", ("a", "b")), ("S", ("b", "c")))
)
print("gamma2  :", json.dumps(solve(gamma2, inst).to_json_dict()))

# Why this works only for templates with enough symmetry: on plain graph
# coloring, arc-consistency is incomplete. It accepts mapping the
# complete graph K4 into K3 although no homomorphism exists.
sig = Signature((("E", 2),))


def complete_graph(n):
    return FiniteStructure(
        sig, n, {"E": {(i, j) for i in range(n) for j in range(n) if i != j}}
    )


k3, k4 = complete_graph(3), complete_graph(4)
vs = tuple("abcd")
k4_inst = Instance(vs, tuple(("E", (p, q)) for p in vs for q in vs if p != q))

accepted, _ = ac(k4_inst, k3)
print("\nK4 -> K3:")
print("  arc-consistency accepts:  ", accepted)
print("  homomorphism exists:      ", hom_exists(k4, k3) is not None)
print(
    "  subsets-of-K3 map into K3:",
    hom_exists(power_structure(k3), k3) is not None,
)
print(
    "  (the failed subset mapping is exactly what licenses the gap: "
    "arc-consistency\n   decides a template iff its subset structure "
    "maps back into it)"
)

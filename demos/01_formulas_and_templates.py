"""Formulas and templates: the language everything else is built on.

Relations of an infinite template are defined by quantifier-free order
formulas over integer points, written as s-expressions.
"""

import json
from dataclasses import replace

from ordcsp import (
    SchemaError,
    compile_formula,
    lt,
    parse_formula,
    preset,
    print_formula,
)

# Atoms compare positions of a point: (gt 0 1) holds on p iff p[0] > p[1].
f = parse_formula("(or (gt 0 1) (gt 0 2))")
print("formula:       ", print_formula(f))
print("free variables:", f.free_var_count)
for point in ([3, 1, 5], [1, 2, 3], [0, 0, 0]):
    print(f"  on {point}: {compile_formula(f)(point)}")

# Only the relative order of values matters; these two points agree on
# every order formula.
print("\norder-isomorphic points evaluate alike:")
print("  [2, 0, 9] ->", compile_formula(f)([2, 0, 9]))
print("  [1, 0, 7] ->", compile_formula(f)([1, 0, 7]))

# Built-in templates. 'qlt' is the strict order itself; 'ord3' has the
# ternary relation x > y or x > z; gamma1..gamma3 are two-dimensional:
# their elements are classes of pairs of rationals.
for name in ("qlt", "ord3", "gamma1", "gamma2", "gamma3"):
    t = preset(name)
    rels = ", ".join(f"{r.name}/{r.arity}" for r in t.relations)
    print(
        f"\npreset {name}: kind={t.kind} dimension={t.dimension} "
        f"relations=[{rels}]"
    )

# A template checks its structure when it is built, however it is built:
# a direct template's domain formula must be the literal `true`.
try:
    replace(preset("qlt"), domain_formula=lt(0, 0))
except SchemaError as exc:
    print("\nrejected at construction:", exc)

# Templates are plain JSON; the file format is the source of truth.
print("\ngamma2 as JSON:")
print(json.dumps(preset("gamma2").to_json_dict(), indent=2))

"""Sampling: finite stand-ins for infinite templates.

For an instance with n variables it is enough to solve against a finite
sample: n increasing values for a direct template, or the quotient of a
(dn)-value grid for a d-dimensional interpretation.
"""

from ordcsp import preset, sample

# Direct template: the sample at n is just the chain 0 < 1 < ... < n-1
# with relations evaluated on it.
qlt3 = sample(preset("qlt"), 3)
print("qlt at n=3:", sorted(qlt3.structure.relations["Lt"]))

ord3_2 = sample(preset("ord3"), 2)
print("ord3 at n=2:", sorted(ord3_2.structure.relations["T"]))

# Interpretation: gamma3 lives on pairs (x, y) with x != y; the pair
# names the lower copy of x when x < y and the upper copy when x > y.
# At n=1 the grid {0,1}^2 leaves two classes.
g3 = sample(preset("gamma3"), 1)
print("\ngamma3 at n=1:")
print("  elements:       ", g3.structure.size)
print("  representatives:", g3.representatives)
print("  M tuples:       ", sorted(g3.structure.relations["M"]))
print("  Ord tuples:     ", sorted(g3.structure.relations["Ord"]))
print("  sidecar JSON:   ", g3.sidecar_json_dict())

# Quotienting matters: gamma3's grid at n=3 has 30 admissible pairs but
# far fewer classes.
g3_big = sample(preset("gamma3"), 3)
print(
    f"\ngamma3 at n=3: grid size {g3_big.base_grid_size}^2, "
    f"{g3_big.structure.size} classes"
)

# Size bounds: direct samples have exactly n elements, interpretation
# samples at most (dn)^d.
print("\nsample sizes, n = 1..4:")
for name in ("qlt", "ord3", "gamma1", "gamma2", "gamma3"):
    t = preset(name)
    sizes = [sample(t, n).structure.size for n in range(1, 5)]
    d = t.dimension
    bounds = [(d * n) ** d for n in range(1, 5)]
    print(f"  {name:7s} {sizes}  (bounds {bounds})")

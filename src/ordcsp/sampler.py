"""Finite samples of infinite templates.

``sample(t, n)`` computes a finite structure that is equivalent to the
template for instances with n variables: an instance of size n maps into
the sample iff it maps into the template.

* Direct templates: the sample is the grid {0..n-1} (standing for n
  increasing rationals); relation tuples are exactly the grid tuples
  satisfying the defining formulas.
* Interpretations of dimension d: enumerate the d-tuples over the grid
  {0..dn-1} that satisfy the domain formula, keep the least member of
  each class of the equality formula, and evaluate each relation formula
  on those representatives.

``representatives(t, n)`` lists those points, or those least members,
in element order. It finds the least members from the equality
formula's bitset rows over the domain points (``formula.compile_rows``):
a point is least in its class iff the lowest set bit of its row is its
own index. The rows are streamed, and none is kept.
``template_source(t, points, tables)`` is the one builder of a sample's
relations, straight from the formulas: a binary relation's forward and
backward rows (``formula.compile_rows``, one generated expression per
point rather than per pair), and a ``formula.compile_table`` table for
any other arity. Every binary relation it builds reads one dict of value
tables over ``points``. ``representatives(t, n, tables)`` puts the
equality rows' tables into the caller's dict only when it keeps every
domain point (identity equality, as in gamma1 and gamma2), for only then
are the representatives the point list those tables were made on.
``sample`` and ``solve`` make one dict per call; no table outlives it.
``sample`` is ``representatives`` plus every relation from it in one
``FiniteStructure``, with the forward rows decoded into pairs; ``solve``
builds only the relations its constraints use and revises on them as
they are (see ``solver``).

Templates arrive structurally checked (``Template`` checks itself when it
is built), and a sample's signature is the template's ``signature``.
The grid of a sample, direct or not, is refused past ``GRID_CAP`` points
before any point is built. Within it, the representatives of m domain
points over g grid values hold each value table that the equality
formula uses, g * m bits, plus one row of m bits at a time: gamma2 at
n = 100 (m = 40,000) holds two tables of 1 MB each, and a grid near the
cap, 1,000 values per coordinate at d = 2, would take about 125 MB per
table. Tables handed on to ``template_source`` are held until the
``sample`` or ``solve`` call ends, with those its relations add.
``template_source`` builds nothing before ``check_table_caps`` has
found each relation's m**arity candidate tuples (bits, for rows)
over the m sample elements within ``GRID_CAP`` (direct) or
``TABLE_CAP`` (interpretation, whose m grows as (dn)**d), for every
relation, used or not; past it, ``CapExceeded`` is raised, for
``sample`` and ``solve`` alike. The comparisons never compute a giant
power, so an arity or dimension of 2**70 is refused at once; on one
element, by ``formula.MAX_TABLE_WIDTH``.

The grid is 0-based; only the relative order of values matters. A sample
at n = 0 is defined as the sample at n = 1, and an unsatisfiable domain
formula yields an empty sample, not an error.

The quotient is sound only if the equality formula is an equivalence on
the domain and a congruence for every relation. The formulas are
quantifier-free order formulas, so each property holds iff it holds on
every order type of the at most (arity+1)*d values it reads, and the grid
at n* = max(3, max arity + 1) realises all of them. One exact check there
decides both properties for every n; it runs the first time an
interpretation's representatives are listed, and its outcome is cached
on the template object. It reads the equality formula's rows over the
domain points of that grid: the formula is reflexive iff bit i of row i
is set, symmetric iff the forward rows equal the backward rows, and then
transitive iff each row equals the row of every point in it. The rows
of the s points of that grid hold s**2 bits, refused past ``TABLE_CAP``
as a binary relation's rows in an interpretation's sample are, and the
congruence check's evaluations are refused past ``CHECK_BUDGET``; a
template too large to check exactly raises ``CapExceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    CapExceeded,
    EqualityNotCongruence,
    EqualityNotEquivalence,
    SchemaError,
)
from .formula import compile_formula, compile_rows, compile_table
from .structures import FiniteStructure, _values
from .template import DIRECT, Template

GRID_CAP = 10**6
TABLE_CAP = 10**8
CHECK_BUDGET = 4 * 10**6


@dataclass
class Sample:
    """A finite sample plus the grid points chosen to represent each
    element."""

    structure: FiniteStructure
    representatives: tuple[tuple[int, ...], ...]
    base_grid_size: int

    def sidecar_json_dict(self) -> dict:
        return {
            "representatives": [list(r) for r in self.representatives],
            "base_grid_size": self.base_grid_size,
        }


def sample(t: Template, n: int) -> Sample:
    """The representatives at ``n`` plus every relation on them, as
    ``template_source`` builds it: a table as it is, and a binary
    relation's forward rows decoded into pairs. An interpretation's
    elements are labelled by their points."""
    tables = {}
    reps = representatives(t, n, tables)
    size, relation = template_source(t, reps, tables)
    relations = {}
    for rel in t.relations:
        built = relation(rel.name)
        if rel.arity == 2:
            built = ((a, b) for a, row in enumerate(built[0]) for b in _values(row))
        relations[rel.name] = built
    labels = None if t.kind == DIRECT else tuple(str(tuple(r)) for r in reps)
    structure = FiniteStructure(t.signature, size, relations, labels)
    return Sample(structure, tuple(reps), t.dimension * max(n, 1))


def representatives(t: Template, n: int, tables=None) -> list:
    """The points that stand for the elements of ``t``'s sample at ``n``,
    in element order: the grid {0..n-1} of a direct template, or the
    least member of each equality class of an interpretation's domain
    points over {0..dn-1}, after the equality check; those are the
    points whose equality row has no bit below their own index. When
    every domain point is kept, the value tables of the equality rows
    are put into the dict ``tables``, if given, for ``template_source``."""
    n = max(n, 1)
    if t.kind == DIRECT:
        return _domain_points(t, n)
    _check_equality(t)
    points = _domain_points(t, t.dimension * n)
    own = {}
    rows, _ = compile_rows(t.equality_formula, t.dimension)(points, own)
    reps = [p for i, (p, row) in enumerate(zip(points, rows)) if row & -row == 1 << i]
    if tables is not None and len(reps) == len(points):
        tables.update(own)
    return reps


def check_table_caps(t: Template, m: int):
    """Raise ``CapExceeded`` when a relation of ``t`` has more candidate
    tuples over ``m`` elements than the cap of ``t``'s kind."""
    name, cap = ("grid", GRID_CAP) if t.kind == DIRECT else ("table", TABLE_CAP)
    for rel in t.relations:
        if _power_exceeds(m, rel.arity, cap):
            raise CapExceeded(f"{name} cap: {m}^{rel.arity} > {cap}")


def template_source(t: Template, points, tables):
    """``solver.network``'s ``size, relation`` for the relations of ``t``
    on the sample elements ``points``, built from the formulas:
    ``compile_rows`` rows, listed, for a binary relation at any number of
    points, and a ``compile_table`` table for any other. The rows of every
    relation read and fill ``tables``, one dict of value tables over
    ``points``. Every relation is checked against ``check_table_caps`` and
    compiled first, used or not, so ``solve`` fails where ``sample`` does."""
    check_table_caps(t, len(points))
    d = t.dimension
    build = {
        rel.name: compile_rows(rel.formula, d)
        if rel.arity == 2
        else compile_table(rel.formula, rel.arity, d)
        for rel in t.relations
    }

    def relation(name):
        if t.relation(name).arity == 2:
            return tuple(map(list, build[name](points, tables)))
        return build[name](list(enumerate(points)))

    return len(points), relation


def _power_exceeds(base, exponent, cap):
    """``base ** exponent > cap``, without computing a giant power: any
    base >= 2 passes the cap within cap.bit_length() + 1 factors."""
    return base ** min(exponent, cap.bit_length() + 1) > cap


def _domain_points(t, g):
    """The domain's d-tuples over {0..g-1}, in lexicographic order."""
    d = t.dimension
    if _power_exceeds(g, d, GRID_CAP):
        raise CapExceeded(f"grid cap: {g}^{d} > {GRID_CAP}")
    dom = compile_formula(t.domain_formula)
    return [p for p in product(range(g), repeat=d) if dom(p)]


def _check_equality(t):
    """Raise unless the equality formula of ``t`` is an equivalence and a
    congruence; decided once per template object (see module docstring)."""
    if not hasattr(t, "_equality_problem"):
        try:
            _decide_equality(t)
            problem = None
        except (SchemaError, CapExceeded) as exc:
            problem = exc
        object.__setattr__(t, "_equality_problem", problem)
    if t._equality_problem is not None:
        raise t._equality_problem.with_traceback(None)


def _decide_equality(t):
    arities = [rel.arity for rel in t.relations]
    points = _domain_points(t, t.dimension * (max([2, *arities]) + 1))
    size = len(points)
    if size * size > TABLE_CAP:
        raise CapExceeded(f"equality check: {size}^2 row bits > {TABLE_CAP}")
    fwd, bwd = map(list, compile_rows(t.equality_formula, t.dimension)(points))
    bad = next(
        (p for i, (p, row) in enumerate(zip(points, fwd)) if not row >> i & 1), None
    )
    if bad is not None:
        raise EqualityNotEquivalence(f"equality is not reflexive on {bad}")
    # Reflexive rows form an equivalence iff they are symmetric and each
    # row equals the row of every point in it, that is, iff each row is
    # the set of points that have it.
    having = {}
    for i, row in enumerate(fwd):
        having[row] = having.get(row, 0) | 1 << i
    for i, row in enumerate(fwd):
        odd = (row ^ bwd[i]) | (row ^ having[row])
        if odd:
            q = points[(odd & -odd).bit_length() - 1]
            raise EqualityNotEquivalence(
                f"equality formula is not symmetric or not transitive "
                f"around {points[i]}, {q}"
            )
    # Congruence: each point must be interchangeable with its class's
    # least member, the lowest bit of its row, in every argument position;
    # chains of such swaps join any two argument tuples of the same
    # classes. Swaps are listed class by class.
    lowest = [(row & -row).bit_length() - 1 for row in fwd]
    swaps = [
        (points[j], points[i]) for i, j in sorted(zip(lowest, range(size))) if i != j
    ]
    work = len(swaps) * sum(m * size ** (m - 1) for m in arities)
    if work > CHECK_BUDGET:
        raise CapExceeded(f"congruence check: {work} > {CHECK_BUDGET}")
    for rel in t.relations:
        fn = compile_formula(rel.formula)
        for q, least in swaps:
            for rest in product(points, repeat=rel.arity - 1):
                for a in range(rel.arity):
                    args = rest[:a] + (q,) + rest[a:]
                    alt = rest[:a] + (least,) + rest[a:]
                    if fn(sum(args, ())) != fn(sum(alt, ())):
                        raise EqualityNotCongruence(
                            f"relation {rel.name!r}: equal arguments "
                            f"{list(args)} vs {list(alt)} disagree"
                        )

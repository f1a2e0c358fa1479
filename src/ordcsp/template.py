"""Infinite constraint templates presented over the rational order.

A template names relations and defines each by a quantifier-free order
formula. Two presentations exist:

* ``direct`` (dimension 1, domain formula ``true``, equality formula
  ``(eq 0 1)``): elements are rational points themselves; a relation of
  arity m is defined by a formula over m variables.
* ``interpretation`` (dimension d): elements are classes of d-tuples of
  rationals. A domain formula selects admissible d-tuples, an equality
  formula says when two d-tuples name the same element, and a relation of
  arity m is defined by a formula over m*d variables.

Variable index convention: argument a (0-based), coordinate c (0-based)
is index a*d + c.

Direct templates may declare a ``semilattice`` operation ("min" or
"max"): the solver then extracts a concrete satisfying assignment by
folding that operation over accepted candidate sets. Witness extraction
is restricted to direct templates: folding coordinatewise min/max on
interpretation representatives can leave the domain formula (for
gamma3, min of (1,2) and (2,1) is (1,1), violating x != y).

The JSON file format is the single source of truth; ``preset`` builds
named built-in templates as ordinary values of that format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError
from .formula import (
    Formula,
    TRUE,
    and_,
    eq,
    gt,
    lt,
    ne,
    or_,
    parse_formula,
    print_formula,
)

PRESET_NAMES = ("qlt", "ord3", "gamma1", "gamma2", "gamma3")

DIRECT = "direct"
INTERPRETATION = "interpretation"


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    formula: Formula


@dataclass(frozen=True)
class Template:
    name: str
    kind: str
    dimension: int
    domain_formula: Formula
    equality_formula: Formula
    relations: tuple[Relation, ...]
    semilattice: str | None = None

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise SchemaError(f"template {self.name!r} has no relation {name!r}")

    def signature_symbols(self):
        return tuple((rel.name, rel.arity) for rel in self.relations)

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind}
        if self.kind == INTERPRETATION:
            out["dimension"] = self.dimension
        out["domain_formula"] = print_formula(self.domain_formula)
        out["equality_formula"] = print_formula(self.equality_formula)
        out["relations"] = [
            {
                "name": rel.name,
                "arity": rel.arity,
                "formula": print_formula(rel.formula),
            }
            for rel in self.relations
        ]
        if self.semilattice is not None:
            out["semilattice"] = self.semilattice
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Template":
        try:
            name = data["name"]
            kind = data["kind"]
            relations = tuple(
                Relation(r["name"], r["arity"], parse_formula(r["formula"]))
                for r in data["relations"]
            )
            dimension = data.get("dimension", 1)
            domain_formula = (
                parse_formula(data["domain_formula"])
                if "domain_formula" in data
                else TRUE
            )
            equality_formula = (
                parse_formula(data["equality_formula"])
                if "equality_formula" in data
                else eq(0, 1)
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad template JSON: {exc}") from exc
        if kind not in (DIRECT, INTERPRETATION):
            raise SchemaError(f"bad template kind {kind!r}")
        template = cls(
            name,
            kind,
            dimension,
            domain_formula,
            equality_formula,
            relations,
            data.get("semilattice"),
        )
        problems = validate_template(template)
        if problems:
            raise SchemaError("; ".join(problems))
        return template


def validate_template(t: Template) -> list[str]:
    """Structural checks; returns a list of violations (empty = valid).

    Semantic properties of the equality formula (equivalence, congruence)
    are checked once per template, on its first sample.
    """
    typed = [("name", t.name, str), ("dimension", t.dimension, int)]
    for rel in t.relations:
        typed += [("relation name", rel.name, str), ("arity", rel.arity, int)]
    problems = [
        f"{what} must be {kind.__name__}, got {value!r}"
        for what, value, kind in typed
        if type(value) is not kind
    ]
    if problems:
        return problems
    if t.kind not in (DIRECT, INTERPRETATION):
        problems.append(f"kind must be direct or interpretation, got {t.kind!r}")
    if t.dimension < 1:
        problems.append(f"dimension must be positive, got {t.dimension}")
    if t.kind == DIRECT and t.dimension != 1:
        problems.append("direct templates have dimension 1")
    if t.kind == DIRECT and t.domain_formula != TRUE:
        problems.append("direct templates have domain formula true")
    if t.kind == DIRECT and t.equality_formula != eq(0, 1):
        problems.append("direct templates have equality formula (eq 0 1)")
    names = [rel.name for rel in t.relations]
    if len(set(names)) != len(names):
        problems.append("relation names must be unique")
    d = t.dimension
    if t.domain_formula.free_var_count > d:
        problems.append(
            f"domain formula uses index "
            f"{t.domain_formula.free_var_count - 1}, limit is {d - 1}"
        )
    if t.equality_formula.free_var_count > 2 * d:
        problems.append(
            f"equality formula uses index "
            f"{t.equality_formula.free_var_count - 1}, limit is {2 * d - 1}"
        )
    for rel in t.relations:
        if rel.arity < 1:
            problems.append(f"relation {rel.name!r}: arity must be positive")
            continue
        limit = rel.arity * d
        if rel.formula.free_var_count > limit:
            problems.append(
                f"relation {rel.name!r}: formula uses index "
                f"{rel.formula.free_var_count - 1}, limit is {limit - 1}"
            )
    if t.semilattice is not None:
        if t.semilattice not in ("min", "max"):
            problems.append(
                f"semilattice must be 'min' or 'max', got {t.semilattice!r}"
            )
        if t.kind != DIRECT:
            problems.append(
                "semilattice witness extraction is direct-only; "
                "interpretation templates cannot declare one"
            )
    return problems


def _componentwise_equality(d: int) -> Formula:
    return and_(*(eq(c, d + c) for c in range(d)))


def preset(name: str) -> Template:
    """Built-in templates by name; see PRESET_NAMES."""
    if name == "qlt":
        return Template(
            name="qlt",
            kind=DIRECT,
            dimension=1,
            domain_formula=TRUE,
            equality_formula=eq(0, 1),
            relations=(Relation("Lt", 2, lt(0, 1)),),
            semilattice="min",
        )
    if name == "ord3":
        return Template(
            name="ord3",
            kind=DIRECT,
            dimension=1,
            domain_formula=TRUE,
            equality_formula=eq(0, 1),
            relations=(Relation("T", 3, or_(gt(0, 1), gt(0, 2))),),
            semilattice="min",
        )
    if name == "gamma1":
        # Pairs of rationals; one relation per pair of comparisons,
        # applied to the two coordinates independently.
        ops = (("lt", lt), ("eq", eq), ("gt", gt))
        relations = tuple(
            Relation(f"R_{rn}_{sn}", 2, and_(rf(0, 2), sf(1, 3)))
            for rn, rf in ops
            for sn, sf in ops
        )
        return Template(
            name="gamma1",
            kind=INTERPRETATION,
            dimension=2,
            domain_formula=TRUE,
            equality_formula=_componentwise_equality(2),
            relations=relations,
        )
    if name == "gamma2":
        return Template(
            name="gamma2",
            kind=INTERPRETATION,
            dimension=2,
            domain_formula=TRUE,
            equality_formula=_componentwise_equality(2),
            relations=(
                Relation("R", 2, and_(eq(0, 2), lt(1, 3))),
                Relation("S", 2, lt(0, 2)),
            ),
        )
    if name == "gamma3":
        # Two interleaved copies of the rationals: the pair (x, y) names
        # the lower copy of x when x < y and the upper copy when x > y.
        # Two pairs name the same element iff they share x and pick the
        # same copy.
        same_copy = or_(
            and_(lt(0, 1), lt(2, 3)),
            and_(gt(0, 1), gt(2, 3)),
        )
        matching = and_(eq(0, 2), lt(0, 1), gt(2, 3))
        below = or_(
            and_(lt(0, 1), gt(2, 3)),
            and_(lt(0, 1), lt(2, 3), lt(0, 2)),
            and_(gt(0, 1), gt(2, 3), lt(0, 2)),
        )
        return Template(
            name="gamma3",
            kind=INTERPRETATION,
            dimension=2,
            domain_formula=ne(0, 1),
            equality_formula=and_(eq(0, 2), same_copy),
            relations=(
                Relation("M", 2, matching),
                Relation("Ord", 2, below),
            ),
        )
    raise SchemaError(
        f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}"
    )

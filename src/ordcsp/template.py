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

A ``Template`` checks its structure when it is built, whether from JSON,
by ``preset``, by a direct call or by ``dataclasses.replace``, and raises
``SchemaError`` on the first fault: field types, a known kind, relation
symbols (checked by the ``Signature`` it keeps as ``signature``), formula
indices within their arity, the literal ``true`` and ``(eq 0 1)`` of a
direct template, and a semilattice only on a direct template. Whether the
equality formula is an equivalence and a congruence is decided later, on
the template's first sample (see ``sampler``).

The JSON file format is the single source of truth: ``PRESETS`` stores
the built-in templates in it, and ``preset`` reads one by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError
from .formula import Formula, TRUE, eq, parse_formula, print_formula
from .structures import Signature

DIRECT = "direct"
INTERPRETATION = "interpretation"
# Built once: a new Atom costs more than the rest of a template's check.
_DIRECT_EQUALITY = eq(0, 1)


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
    signature: Signature = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.dimension
        if type(self.name) is not str:
            raise SchemaError(f"name must be str, got {self.name!r}")
        if self.kind not in (DIRECT, INTERPRETATION):
            raise SchemaError(
                f"kind must be direct or interpretation, got {self.kind!r}"
            )
        if type(d) is not int or d < 1:
            raise SchemaError(f"dimension must be a positive int, got {d!r}")
        symbols = tuple((rel.name, rel.arity) for rel in self.relations)
        object.__setattr__(self, "signature", Signature(symbols))
        fixed = (d, self.domain_formula, self.equality_formula)
        if self.kind == DIRECT and fixed != (1, TRUE, _DIRECT_EQUALITY):
            raise SchemaError(
                "direct templates have dimension 1, domain formula true "
                "and equality formula (eq 0 1)"
            )
        limits = [
            ("domain formula", self.domain_formula, d),
            ("equality formula", self.equality_formula, 2 * d),
        ] + [(rel, rel.formula, rel.arity * d) for rel in self.relations]
        for what, formula, limit in limits:
            if formula.free_var_count > limit:
                if isinstance(what, Relation):
                    what = f"relation {what.name!r}: formula"
                raise SchemaError(
                    f"{what} uses index {formula.free_var_count - 1}, "
                    f"limit is {limit - 1}"
                )
        if self.semilattice not in (None, "min", "max"):
            raise SchemaError(
                f"semilattice must be 'min' or 'max', got {self.semilattice!r}"
            )
        if self.semilattice is not None and self.kind != DIRECT:
            raise SchemaError(
                "semilattice witness extraction is direct-only; "
                "interpretation templates cannot declare one"
            )

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise SchemaError(f"template {self.name!r} has no relation {name!r}")

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
            return cls(
                data["name"],
                data["kind"],
                data.get("dimension", 1),
                parse_formula(data.get("domain_formula", "true")),
                parse_formula(data.get("equality_formula", "(eq 0 1)")),
                tuple(
                    Relation(r["name"], r["arity"], parse_formula(r["formula"]))
                    for r in data["relations"]
                ),
                data.get("semilattice"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad template JSON: {exc}") from exc


# Fields shared by the presets on the rationals and on pairs of them.
_DIRECT = dict(kind=DIRECT, domain_formula="true", equality_formula="(eq 0 1)")
_PAIRS = dict(kind=INTERPRETATION, dimension=2, domain_formula="true")

# The built-in templates, each exactly as ``Template.to_json_dict`` writes
# it; ``preset`` reads them with ``Template.from_json_dict``.
PRESETS = {
    "qlt": dict(
        name="qlt",
        **_DIRECT,
        relations=[dict(name="Lt", arity=2, formula="(lt 0 1)")],
        semilattice="min",
    ),
    "ord3": dict(
        name="ord3",
        **_DIRECT,
        relations=[dict(name="T", arity=3, formula="(or (gt 0 1) (gt 0 2))")],
        semilattice="min",
    ),
    # Pairs of rationals; one relation per pair of comparisons, applied
    # to the two coordinates independently.
    "gamma1": dict(
        name="gamma1",
        **_PAIRS,
        equality_formula="(and (eq 0 2) (eq 1 3))",
        relations=[
            dict(name=f"R_{r}_{s}", arity=2, formula=f"(and ({r} 0 2) ({s} 1 3))")
            for r in ("lt", "eq", "gt")
            for s in ("lt", "eq", "gt")
        ],
    ),
    "gamma2": dict(
        name="gamma2",
        **_PAIRS,
        equality_formula="(and (eq 0 2) (eq 1 3))",
        relations=[
            dict(name="R", arity=2, formula="(and (eq 0 2) (lt 1 3))"),
            dict(name="S", arity=2, formula="(lt 0 2)"),
        ],
    ),
    # Two interleaved copies of the rationals: the pair (x, y) names the
    # lower copy of x when x < y and the upper copy when x > y. Two pairs
    # name the same element iff they share x and pick the same copy.
    "gamma3": dict(
        name="gamma3",
        kind=INTERPRETATION,
        dimension=2,
        domain_formula="(ne 0 1)",
        equality_formula="(and (eq 0 2) "
        "(or (and (lt 0 1) (lt 2 3)) (and (gt 0 1) (gt 2 3))))",
        relations=[
            dict(name="M", arity=2, formula="(and (eq 0 2) (lt 0 1) (gt 2 3))"),
            dict(
                name="Ord",
                arity=2,
                formula="(or (and (lt 0 1) (gt 2 3)) "
                "(and (lt 0 1) (lt 2 3) (lt 0 2)) "
                "(and (gt 0 1) (gt 2 3) (lt 0 2)))",
            ),
        ],
    ),
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> Template:
    """Built-in templates by name; see PRESET_NAMES."""
    if name not in PRESETS:
        known = ", ".join(PRESET_NAMES)
        raise SchemaError(f"unknown preset {name!r}; known presets: {known}")
    return Template.from_json_dict(PRESETS[name])

"""Finite relational structures and constraint instances.

A ``FiniteStructure`` is a domain ``{0, ..., size-1}`` together with one
named relation (a set of tuples) per signature symbol. An ``Instance`` is
the input side of a constraint problem: named variables plus constraints
``(symbol, variable tuple)`` to be interpreted in some target structure.

Both have a stable JSON form, documented next to ``to_json_dict``.

A subset of a domain is an int mask: ``_values`` reads one, ``_mask`` builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count

from .errors import SchemaError, SignatureMismatch


@dataclass(frozen=True)
class Signature:
    """Ordered relation symbols with arities; names unique, arity >= 1."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if not isinstance(name, str) or not name:
                raise SchemaError(f"bad relation name {name!r}")
            if name in seen:
                raise SchemaError(f"duplicate relation name {name!r}")
            if type(arity) is not int or arity < 1:
                raise SchemaError(f"relation {name!r} has bad arity {arity!r}")
            seen.add(name)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise SignatureMismatch(f"unknown relation symbol {name!r}")


@dataclass
class FiniteStructure:
    """Domain {0..size-1} plus a tuple set per signature symbol.

    Instances are treated as immutable after construction. ``labels``
    optionally gives a display string per element.
    """

    signature: Signature
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if type(self.size) is not int or self.size < 0:
            raise SchemaError(f"size must be an int >= 0, got {self.size!r}")
        normalized = {}
        for name, arity in self.signature.symbols:
            listed = list(map(tuple, self.relations.get(name, ())))
            tuples = frozenset(listed)
            # C-level passes over the tuples as given, which visit memory in
            # order; the loop that names the first bad entry runs on failure.
            entries = partial(chain.from_iterable, listed)
            if not (
                set(map(len, listed)) <= {arity}
                and set(map(type, entries())) <= {int}
                and 0 <= min(values := set(entries()), default=0)
                and max(values, default=-1) < self.size
            ):
                for t in tuples:
                    if len(t) != arity:
                        raise SchemaError(
                            f"relation {name!r}: tuple {t} has length {len(t)}, "
                            f"declared arity is {arity}"
                        )
                    for x in t:
                        if type(x) is not int or not 0 <= x < self.size:
                            raise SchemaError(
                                f"relation {name!r}: entry {x!r} outside domain "
                                f"[0, {self.size})"
                            )
            normalized[name] = tuples
        extra = set(self.relations) - set(normalized)
        if extra:
            raise SchemaError(f"relations not in signature: {sorted(extra)}")
        self.relations = normalized
        if self.labels is not None:
            self.labels = tuple(str(s) for s in self.labels)
            if len(self.labels) != self.size:
                raise SchemaError("labels must have one entry per element")

    def max_arity(self) -> int:
        return max((a for _, a in self.signature.symbols), default=0)

    def to_json_dict(self) -> dict:
        """JSON form: {"signature": [{"name","arity"}...], "size": m,
        "relations": {name: [[...], ...]}, "labels": [...]?}"""
        out = {
            "signature": [
                {"name": n, "arity": a} for n, a in self.signature.symbols
            ],
            "size": self.size,
            "relations": {
                name: [list(t) for t in sorted(tuples)]
                for name, tuples in self.relations.items()
            },
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteStructure":
        try:
            symbols = tuple(
                (entry["name"], entry["arity"]) for entry in data["signature"]
            )
            size = data["size"]
            relations = {
                name: frozenset(tuple(t) for t in tuples)
                for name, tuples in data.get("relations", {}).items()
            }
            labels = data.get("labels")
            if labels is not None:
                labels = tuple(_json_list(labels, "labels"))
        except (AttributeError, KeyError, TypeError) as exc:
            raise SchemaError(f"bad structure JSON: {exc}") from exc
        return cls(Signature(symbols), size, relations, labels)


@dataclass
class Instance:
    """Variables plus constraints; repeated variables in a constraint are
    allowed."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[str, tuple[str, ...]], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self):
        self.variables = tuple(self.variables)
        for v in self.variables:
            _check_name(v, "variable")
        if len(set(self.variables)) != len(self.variables):
            raise SchemaError("variable names must be unique")
        known = set(self.variables)
        normalized = []
        for rel, args in self.constraints:
            _check_name(rel, "relation")
            args = tuple(args)
            for a in args:
                if a not in known:
                    raise SchemaError(
                        f"constraint {rel!r} uses undeclared variable {a!r}"
                    )
            normalized.append((rel, args))
        self.constraints = tuple(normalized)

    def check_against(self, signature: Signature):
        """Raise SignatureMismatch unless every constraint symbol exists in
        the signature with matching arity."""
        for rel, args in self.constraints:
            arity = signature.arity(rel)
            if arity != len(args):
                raise SignatureMismatch(
                    f"constraint {rel!r} has {len(args)} arguments, "
                    f"declared arity is {arity}"
                )

    def to_json_dict(self) -> dict:
        """JSON form: {"variables": [...],
        "constraints": [{"rel": name, "args": [...]}, ...]}"""
        return {
            "variables": list(self.variables),
            "constraints": [
                {"rel": rel, "args": list(args)}
                for rel, args in self.constraints
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        try:
            variables = tuple(_json_list(data["variables"], "variables"))
            constraints = tuple(
                (entry["rel"], tuple(_json_list(entry["args"], "args")))
                for entry in data.get("constraints", [])
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad instance JSON: {exc}") from exc
        return cls(variables, constraints)


def _check_name(name, what):
    if not isinstance(name, str):
        raise SchemaError(f"{what} name must be a string, got {name!r}")


def _json_list(value, what):
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask):
    """``compress``'s flags for ``mask``: byte ``a`` is 1 iff bit ``a`` is."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _values(mask):
    """The values ``a`` whose bit is set in ``mask``, ascending."""
    return compress(count(), _flags(mask))


def _mask(values):
    """The mask with bit ``a`` set for each ``a`` in ``values`` (distinct)."""
    return sum(map((1).__lshift__, values))

import random

import pytest

from ordcsp import (
    FiniteStructure,
    Instance,
    SchemaError,
    Signature,
    SignatureMismatch,
)

from conftest import complete_graph


def test_signature_validation():
    Signature((("E", 2), ("P", 1)))
    with pytest.raises(SchemaError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(SchemaError):
        Signature((("E", 0),))
    with pytest.raises(SchemaError):
        Signature((("", 1),))


def test_structure_validation():
    sig = Signature((("E", 2),))
    with pytest.raises(SchemaError):
        FiniteStructure(sig, 2, {"E": {(0, 2)}})
    with pytest.raises(SchemaError):
        FiniteStructure(sig, 2, {"E": {(0, 1, 1)}})
    with pytest.raises(SchemaError):
        FiniteStructure(sig, 2, {"F": {(0, 1)}})
    with pytest.raises(SchemaError):
        FiniteStructure(sig, 2, {"E": set()}, labels=("a",))
    # Missing relations default to empty; size 0 is legal.
    b = FiniteStructure(sig, 0, {})
    assert b.relations["E"] == frozenset()


def first_schema_error(signature, size, relations):
    """The message of the tuple-by-tuple check of every entry, in
    signature order, or None when all pass."""
    for name, arity in signature.symbols:
        for t in frozenset(tuple(t) for t in relations.get(name, ())):
            if len(t) != arity:
                return (
                    f"relation {name!r}: tuple {t} has length {len(t)}, "
                    f"declared arity is {arity}"
                )
            for x in t:
                if type(x) is not int or not 0 <= x < size:
                    return f"relation {name!r}: entry {x!r} outside domain [0, {size})"
    return None


def test_structure_validation_names_the_first_bad_entry():
    # Bad lengths and entries (negative, at or past the size, bool, float,
    # str, None) alone, together and in two relations: the same first
    # message as the tuple-by-tuple check. (1, True) equals (1, 1), so it
    # is dropped when (1, 1) comes first, and passes as it always has.
    rng = random.Random(42)
    sig = Signature((("E", 2), ("T", 3)))
    bad = [-1, 4, 5, True, False, 1.0, "a", None]
    cases = [{"E": [(1, 1), (1, True)]}, {"E": [(1, True), (1, 1)]}, {"E": []}]
    for _ in range(300):
        relations = {}
        for name, arity in sig.symbols:
            tuples = [
                tuple(rng.randrange(4) for _ in range(arity))
                for _ in range(rng.randrange(6))
            ]
            for _ in range(rng.choice((0, 0, 1, 2))):
                t = list(rng.choice(tuples or [(0,) * arity]))
                if rng.random() < 0.3:
                    t = t[: rng.randrange(arity)] or t + [0]
                else:
                    t[rng.randrange(len(t))] = rng.choice(bad)
                tuples.insert(rng.randrange(len(tuples) + 1), tuple(t))
            relations[name] = tuples
        cases.append(relations)
    raised = 0
    for relations in cases:
        expected = first_schema_error(sig, 4, relations)
        if expected is None:
            b = FiniteStructure(sig, 4, relations)
            assert b.relations == {
                name: frozenset(map(tuple, relations.get(name, ())))
                for name, _ in sig.symbols
            }
        else:
            raised += 1
            with pytest.raises(SchemaError) as exc:
                FiniteStructure(sig, 4, relations)
            assert str(exc.value) == expected
    assert first_schema_error(sig, 4, cases[0]) is None
    assert str(first_schema_error(sig, 4, cases[1])).endswith("entry True outside domain [0, 4)")
    assert raised >= 100


def test_structure_json_roundtrip():
    k3 = complete_graph(3)
    data = k3.to_json_dict()
    assert data["size"] == 3
    assert data["relations"]["E"][0] == [0, 1]
    again = FiniteStructure.from_json_dict(data)
    assert again.size == k3.size
    assert again.relations == k3.relations
    assert again.to_json_dict() == data


def test_structure_json_labels():
    b = FiniteStructure(
        Signature((("E", 2),)), 2, {"E": {(0, 1)}}, labels=("lo", "hi")
    )
    again = FiniteStructure.from_json_dict(b.to_json_dict())
    assert again.labels == ("lo", "hi")


def test_structure_json_rejects_wrong_types():
    data = complete_graph(2).to_json_dict()
    for key, value in (
        ("relations", {"E": [[0, True]]}),
        ("size", True),
        ("labels", 5),
        ("relations", [[0, 1]]),
    ):
        with pytest.raises(SchemaError):
            FiniteStructure.from_json_dict({**data, key: value})


def test_instance_json_rejects_non_lists():
    with pytest.raises(SchemaError):
        Instance.from_json_dict({"variables": "abc"})
    with pytest.raises(SchemaError):
        Instance.from_json_dict(
            {"variables": ["a", "b"], "constraints": [{"rel": "E", "args": "ab"}]}
        )


def test_instance_json_rejects_non_string_names():
    with pytest.raises(SchemaError):
        Instance.from_json_dict(
            {
                "variables": [None, 1.5, True],
                "constraints": [{"rel": 7, "args": [None, True]}],
            }
        )
    with pytest.raises(SchemaError):
        Instance(("x",), ((7, ("x",)),))


def test_instance_validation():
    Instance(("x", "y"), (("E", ("x", "y")), ("E", ("y", "y"))))
    with pytest.raises(SchemaError):
        Instance(("x", "x"), ())
    with pytest.raises(SchemaError):
        Instance(("x",), (("E", ("x", "z")),))


def test_instance_check_against():
    sig = Signature((("E", 2),))
    inst = Instance(("x",), (("E", ("x", "x")),))
    inst.check_against(sig)
    with pytest.raises(SignatureMismatch):
        Instance(("x",), (("F", ("x", "x")),)).check_against(sig)
    with pytest.raises(SignatureMismatch):
        Instance(("x",), (("E", ("x", "x", "x")),)).check_against(sig)


def test_instance_json_roundtrip():
    inst = Instance(("x", "y"), (("E", ("x", "y")),))
    data = inst.to_json_dict()
    assert data == {
        "variables": ["x", "y"],
        "constraints": [{"rel": "E", "args": ["x", "y"]}],
    }
    assert Instance.from_json_dict(data) == inst

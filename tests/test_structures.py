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

import json
from dataclasses import replace

import pytest

from ordcsp import (
    PRESET_NAMES,
    Relation,
    SchemaError,
    Template,
    eq,
    lt,
    preset,
)
from ordcsp.formula import TRUE, and_, gt, ne, or_
from ordcsp.template import PRESETS

# Every preset's JSON, compact, as written before presets were stored as
# JSON; ``test_presets_pinned`` compares the indented text byte for byte.
PINNED_JSON = {
    "qlt": '{"name": "qlt", "kind": "direct", "domain_formula": "true", '
    '"equality_formula": "(eq 0 1)", "relations": [{"name": "Lt", '
    '"arity": 2, "formula": "(lt 0 1)"}], "semilattice": "min"}',
    "ord3": '{"name": "ord3", "kind": "direct", "domain_formula": "true", '
    '"equality_formula": "(eq 0 1)", "relations": [{"name": "T", '
    '"arity": 3, "formula": "(or (gt 0 1) (gt 0 2))"}], '
    '"semilattice": "min"}',
    "gamma1": '{"name": "gamma1", "kind": "interpretation", "dimension": 2, '
    '"domain_formula": "true", "equality_formula": "(and (eq 0 2) (eq 1 3))", '
    '"relations": ['
    + ", ".join(
        '{"name": "R_%s_%s", "arity": 2, "formula": "(and (%s 0 2) (%s 1 3))"}'
        % (r, s, r, s)
        for r in ("lt", "eq", "gt")
        for s in ("lt", "eq", "gt")
    )
    + "]}",
    "gamma2": '{"name": "gamma2", "kind": "interpretation", "dimension": 2, '
    '"domain_formula": "true", "equality_formula": "(and (eq 0 2) (eq 1 3))", '
    '"relations": [{"name": "R", "arity": 2, "formula": '
    '"(and (eq 0 2) (lt 1 3))"}, {"name": "S", "arity": 2, "formula": '
    '"(lt 0 2)"}]}',
    "gamma3": '{"name": "gamma3", "kind": "interpretation", "dimension": 2, '
    '"domain_formula": "(ne 0 1)", "equality_formula": "(and (eq 0 2) '
    '(or (and (lt 0 1) (lt 2 3)) (and (gt 0 1) (gt 2 3))))", "relations": '
    '[{"name": "M", "arity": 2, "formula": "(and (eq 0 2) (lt 0 1) '
    '(gt 2 3))"}, {"name": "Ord", "arity": 2, "formula": "(or (and (lt 0 1) '
    '(gt 2 3)) (and (lt 0 1) (lt 2 3) (lt 0 2)) (and (gt 0 1) (gt 2 3) '
    '(lt 0 2)))"}]}',
}


def constructed_presets():
    """The presets built by constructor calls: an oracle that neither
    parses nor prints a formula."""
    direct = dict(
        kind="direct",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=eq(0, 1),
        semilattice="min",
    )
    pairs = dict(
        kind="interpretation",
        dimension=2,
        domain_formula=TRUE,
        equality_formula=and_(eq(0, 2), eq(1, 3)),
    )
    ops = (("lt", lt), ("eq", eq), ("gt", gt))
    return {
        "qlt": Template("qlt", relations=(Relation("Lt", 2, lt(0, 1)),), **direct),
        "ord3": Template(
            "ord3", relations=(Relation("T", 3, or_(gt(0, 1), gt(0, 2))),), **direct
        ),
        "gamma1": Template(
            "gamma1",
            relations=tuple(
                Relation(f"R_{rn}_{sn}", 2, and_(rf(0, 2), sf(1, 3)))
                for rn, rf in ops
                for sn, sf in ops
            ),
            **pairs,
        ),
        "gamma2": Template(
            "gamma2",
            relations=(
                Relation("R", 2, and_(eq(0, 2), lt(1, 3))),
                Relation("S", 2, lt(0, 2)),
            ),
            **pairs,
        ),
        "gamma3": Template(
            "gamma3",
            "interpretation",
            2,
            ne(0, 1),
            and_(
                eq(0, 2),
                or_(and_(lt(0, 1), lt(2, 3)), and_(gt(0, 1), gt(2, 3))),
            ),
            (
                Relation("M", 2, and_(eq(0, 2), lt(0, 1), gt(2, 3))),
                Relation(
                    "Ord",
                    2,
                    or_(
                        and_(lt(0, 1), gt(2, 3)),
                        and_(lt(0, 1), lt(2, 3), lt(0, 2)),
                        and_(gt(0, 1), gt(2, 3), lt(0, 2)),
                    ),
                ),
            ),
        ),
    }


def test_preset_names():
    assert PRESET_NAMES == ("qlt", "ord3", "gamma1", "gamma2", "gamma3")
    known = "known presets: qlt, ord3, gamma1, gamma2, gamma3"
    with pytest.raises(SchemaError, match=f"^unknown preset 'nope'; {known}$"):
        preset("nope")


def test_preset_qlt():
    t = preset("qlt")
    assert t.kind == "direct"
    assert t.dimension == 1
    assert t.semilattice == "min"
    assert [(r.name, r.arity) for r in t.relations] == [("Lt", 2)]


def test_preset_ord3():
    t = preset("ord3")
    assert t.kind == "direct"
    assert len(t.relations) == 1
    assert t.relations[0].arity == 3


def test_preset_gamma1():
    t = preset("gamma1")
    assert t.kind == "interpretation"
    assert t.dimension == 2
    assert len(t.relations) == 9
    assert all(r.arity == 2 for r in t.relations)
    assert t.semilattice is None


def test_preset_gamma2():
    t = preset("gamma2")
    assert [(r.name, r.arity) for r in t.relations] == [("R", 2), ("S", 2)]
    assert t.relation("R").formula == and_(eq(0, 2), lt(1, 3))
    assert t.relation("S").formula == lt(0, 2)
    with pytest.raises(SchemaError, match="template 'gamma2' has no relation 'T'"):
        t.relation("T")


def test_preset_gamma3():
    t = preset("gamma3")
    assert t.domain_formula.free_var_count == 2
    assert [r.name for r in t.relations] == ["M", "Ord"]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_pinned(name):
    t = preset(name)
    assert t == constructed_presets()[name]
    text = json.dumps(t.to_json_dict(), indent=2)
    assert text == json.dumps(json.loads(PINNED_JSON[name]), indent=2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_json_is_its_stored_entry(name):
    # orbit_count calls a count exact by comparing a template's JSON with
    # these entries; each is what to_json_dict writes, in the same order.
    assert json.dumps(preset(name).to_json_dict()) == json.dumps(PRESETS[name])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    t = preset(name)
    assert t.signature.symbols == tuple((r.name, r.arity) for r in t.relations)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_json_roundtrip_bit_identical(name):
    t = preset(name)
    text = json.dumps(t.to_json_dict(), indent=2)
    again = Template.from_json_dict(json.loads(text))
    assert json.dumps(again.to_json_dict(), indent=2) == text
    assert again == t


def test_validate_out_of_range_index():
    with pytest.raises(SchemaError, match="uses index 2, limit is 1"):
        Template(
            name="bad",
            kind="direct",
            dimension=1,
            domain_formula=TRUE,
            equality_formula=eq(0, 1),
            relations=(Relation("R", 2, lt(0, 2)),),
        )


def test_validate_semilattice_direct_only():
    with pytest.raises(SchemaError, match="direct-only"):
        Template(
            name="bad",
            kind="interpretation",
            dimension=2,
            domain_formula=TRUE,
            equality_formula=and_(eq(0, 2), eq(1, 3)),
            relations=(Relation("S", 2, lt(0, 2)),),
            semilattice="min",
        )


def test_validate_duplicate_relation_names():
    with pytest.raises(SchemaError, match="duplicate relation name 'R'"):
        Template(
            name="bad",
            kind="direct",
            dimension=1,
            domain_formula=TRUE,
            equality_formula=eq(0, 1),
            relations=(Relation("R", 2, lt(0, 1)), Relation("R", 2, lt(1, 0))),
        )


def test_every_construction_path_checks():
    # A direct template whose domain is (lt 0 0) would sample 3 elements
    # and let solve accept Lt(a, b), while orbit_count finds 0 classes; no
    # way of building a template may skip the check.
    qlt = preset("qlt")
    fields = {
        f: getattr(qlt, f)
        for f in ("name", "kind", "dimension", "equality_formula", "relations")
    }
    for build in (
        lambda: Template(**fields, domain_formula=lt(0, 0)),
        lambda: replace(qlt, domain_formula=lt(0, 0)),
        lambda: replace(qlt, relations=(Relation("", 2, lt(0, 1)),)),
        lambda: replace(qlt, semilattice="median"),
        lambda: replace(preset("gamma2"), dimension=0),
    ):
        with pytest.raises(SchemaError):
            build()


def test_from_json_rejects_invalid():
    data = preset("gamma2").to_json_dict()
    data["semilattice"] = "min"
    with pytest.raises(SchemaError):
        Template.from_json_dict(data)
    with pytest.raises(SchemaError):
        Template.from_json_dict({"name": "x", "kind": "weird", "relations": []})
    good = preset("gamma2").to_json_dict()
    for key, value in (("dimension", "2"), ("domain_formula", 5)):
        with pytest.raises(SchemaError):
            Template.from_json_dict({**good, key: value})
    direct = preset("qlt").to_json_dict()
    for key, value in (
        ("domain_formula", "(lt 0 0)"),
        ("equality_formula", "(le 0 1)"),
    ):
        with pytest.raises(SchemaError, match="direct templates have"):
            Template.from_json_dict({**direct, key: value})


def test_direct_defaults():
    data = {
        "name": "tiny",
        "kind": "direct",
        "relations": [{"name": "Lt", "arity": 2, "formula": "(lt 0 1)"}],
    }
    t = Template.from_json_dict(data)
    assert t.dimension == 1
    assert t.domain_formula is TRUE
    assert t.equality_formula == eq(0, 1)

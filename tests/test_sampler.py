import random
import warnings
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import ordcsp.sampler
from ordcsp import (
    CapExceeded,
    EqualityNotCongruence,
    EqualityNotEquivalence,
    Relation,
    Template,
    compile_formula,
    hom_exists,
    preset,
    sample,
)
from ordcsp.formula import (
    TRUE,
    Atom,
    and_,
    compile_rows,
    compile_table,
    eq,
    lt,
    ne,
    or_,
    parse_formula,
)
from ordcsp.sampler import representatives
from ordcsp.template import PRESET_NAMES

from conftest import holds, random_instance
from test_formula import formulas


def test_direct_qlt_3():
    smp = sample(preset("qlt"), 3)
    assert smp.structure.size == 3
    assert smp.structure.relations["Lt"] == {(0, 1), (0, 2), (1, 2)}
    assert smp.representatives == ((0,), (1,), (2,))
    assert smp.base_grid_size == 3


def test_direct_ord3_2():
    smp = sample(preset("ord3"), 2)
    assert smp.structure.relations["T"] == {(1, 0, 0), (1, 0, 1), (1, 1, 0)}


def test_direct_qlt_1():
    assert sample(preset("qlt"), 1).structure.relations["Lt"] == frozenset()


def test_direct_size_zero_is_size_one():
    assert sample(preset("qlt"), 0).structure.size == 1


def test_interpretation_gamma1_1():
    smp = sample(preset("gamma1"), 1)
    assert smp.structure.size == 4
    assert smp.base_grid_size == 2


def test_interpretation_gamma3_1():
    smp = sample(preset("gamma3"), 1)
    assert smp.structure.size == 2
    assert smp.representatives == ((0, 1), (1, 0))
    assert smp.structure.relations["M"] == frozenset()
    assert smp.structure.relations["Ord"] == {(0, 1)}


def test_interpretation_gamma2_3_size_bound():
    smp = sample(preset("gamma2"), 3)
    assert smp.structure.size <= 36


@pytest.mark.parametrize("name", ["qlt", "ord3", "gamma1", "gamma2", "gamma3"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_size_bounds_all_presets(name, n):
    t = preset(name)
    smp = sample(t, n)
    if t.kind == "direct":
        assert smp.structure.size == n
    else:
        assert smp.structure.size <= (t.dimension * n) ** t.dimension


def test_direct_samples_nest():
    for name in ("qlt", "ord3"):
        t = preset(name)
        for n in (1, 2, 3, 4):
            small = sample(t, n).structure
            big = sample(t, n + 1).structure
            for rel, tuples in small.relations.items():
                restricted = {
                    tu
                    for tu in big.relations[rel]
                    if all(x < n for x in tu)
                }
                assert restricted == tuples


def test_representatives_satisfy_invariants():
    for name in ("gamma1", "gamma2", "gamma3"):
        t = preset(name)
        smp = sample(t, 2)
        dom = t.domain_formula
        eqf = t.equality_formula
        reps = smp.representatives
        for r in reps:
            assert compile_formula(dom)(r)
        for i in range(len(reps)):
            for j in range(len(reps)):
                if i != j:
                    assert not compile_formula(eqf)(reps[i] + reps[j])
        for rel in t.relations:
            for tu in smp.structure.relations[rel.name]:
                flat = tuple(x for ci in tu for x in reps[ci])
                assert compile_formula(rel.formula)(flat)


def test_grid_cap():
    with pytest.raises(CapExceeded):
        sample(preset("gamma2"), 600)
    # 30**6 candidate tuples for one 6-ary relation on 30 elements: refused
    # before any table is built.
    t = Template(
        name="wide",
        kind="interpretation",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=eq(0, 1),
        relations=(Relation("W", 6, lt(0, 5)),),
    )
    with pytest.raises(CapExceeded, match="table cap"):
        sample(t, 30)


@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_interpretation_samples_beyond_direct_cap(name):
    # 1,024 elements at n=16, so 1,024**2 candidate pairs: above the
    # direct cap, below the interpretation cap.
    smp = sample(preset(name), 16)
    assert smp.structure.size == 1024
    sizes = {k: len(v) for k, v in smp.structure.relations.items()}
    if name == "gamma1":
        assert sum(sizes.values()) == 1024**2
    else:
        assert sizes == {"R": 32 * 496, "S": 496 * 32 * 32}


def test_direct_grid_cap():
    # 101**3 ternary grid tuples exceed GRID_CAP.
    with pytest.raises(CapExceeded):
        sample(preset("ord3"), 101)


def test_unsatisfiable_domain_gives_empty_sample():
    t = Template(
        name="void",
        kind="interpretation",
        dimension=2,
        domain_formula=and_(lt(0, 1), lt(1, 0)),
        equality_formula=and_(eq(0, 2), eq(1, 3)),
        relations=(Relation("S", 2, lt(0, 2)),),
    )
    smp = sample(t, 2)
    assert smp.structure.size == 0
    assert smp.structure.relations["S"] == frozenset()


def rejected_at_every_n(t, error):
    # A fresh copy per n: the verdict is cached on the template object.
    for n in (1, 2, 5):
        with pytest.raises(error):
            sample(replace(t), n)


def test_equality_not_equivalence_detected():
    # x <= y is reflexive but not symmetric.
    bad = Template(
        name="asym",
        kind="interpretation",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=parse_formula("(le 0 1)"),
        relations=(Relation("S", 2, lt(0, 1)),),
    )
    rejected_at_every_n(bad, EqualityNotEquivalence)


def test_equality_not_reflexive_detected():
    bad = Template(
        name="irref",
        kind="interpretation",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=ne(0, 1),
        relations=(Relation("S", 2, lt(0, 1)),),
    )
    rejected_at_every_n(bad, EqualityNotEquivalence)


def test_equality_not_congruence_detected():
    # Identify everything, but keep an order relation that tells
    # identified points apart.
    t = Template(
        name="collapse",
        kind="interpretation",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=TRUE,
        relations=(Relation("S", 2, lt(0, 1)),),
    )
    rejected_at_every_n(t, EqualityNotCongruence)


def test_equality_too_large_to_check_exactly():
    # A congruence, but too large to check exactly: a cap, not a
    # spot-check. On its grid, "wide" needs 4 * 90 * 100^3 congruence
    # evaluations.
    wide = Template(
        name="wide",
        kind="interpretation",
        dimension=2,
        domain_formula=TRUE,
        equality_formula=parse_formula("(eq 0 2)"),
        relations=(
            Relation("R", 4, parse_formula("(and (lt 0 2) (lt 4 6))")),
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapExceeded):
            sample(wide, 2)


def test_equality_check_caps_row_bits():
    # The check reads one row of size bits per point of its grid. "deep"
    # has 18^3 = 5,832 points at n* = 6, within TABLE_CAP bits, and is
    # decided; a 4-dimensional identity has 12^4 = 20,736 at n* = 3.
    deep = Template(
        name="deep",
        kind="interpretation",
        dimension=3,
        domain_formula=TRUE,
        equality_formula=and_(eq(0, 3), eq(1, 4), eq(2, 5)),
        relations=(Relation("R", 5, lt(0, 3)),),
    )
    assert len(representatives(deep, 1)) == 27
    four = Template(
        "four", "interpretation", 4, TRUE,
        and_(eq(0, 4), eq(1, 5), eq(2, 6), eq(3, 7)), (),
    )
    with pytest.raises(CapExceeded) as exc:
        representatives(four, 1)
    assert str(exc.value) == "equality check: 20736^2 row bits > 100000000"


def test_equality_checked_once_per_template(monkeypatch):
    calls = []
    decide = ordcsp.sampler._decide_equality
    monkeypatch.setattr(
        ordcsp.sampler,
        "_decide_equality",
        lambda t: calls.append(t.name) or decide(t),
    )
    good = preset("gamma3")
    bad = Template("irref", "interpretation", 1, TRUE, ne(0, 1), ())
    for n in (1, 2, 3):
        sample(good, n)
        with pytest.raises(EqualityNotEquivalence):
            sample(bad, n)
    assert calls == ["gamma3", "irref"]


@st.composite
def equality_templates(draw):
    """A 1- or 2-dimensional interpretation with one binary relation. Its
    equality formula is drawn, or one of a few equivalences so that the
    congruence check is reached often: the identity, the first coordinate,
    one class and, at d = 2, the order type of a pair. Only a pair has a
    domain formula that can hold on some points and not others."""
    d = draw(st.sampled_from([1, 2]))
    known = [TRUE, eq(0, d), and_(*(eq(c, d + c) for c in range(d)))]
    if d == 2:
        same = [and_(Atom(op, 0, 1), Atom(op, 2, 3)) for op in ("lt", "eq", "gt")]
        known.append(or_(*same))
    equality = draw(
        st.one_of(st.sampled_from(known), formulas(max_leaves=6, variables=2 * d))
    )
    domain = TRUE
    if d == 2:
        domain = draw(st.one_of(st.just(TRUE), formulas(max_leaves=3, variables=2)))
    # Comparisons of single coordinates, which some of those equivalences
    # respect and others break, and TRUE, which every relation respects.
    known = [TRUE, lt(0, d), lt(d - 1, 2 * d - 1), lt(0, d - 1)]
    relation = draw(
        st.one_of(st.sampled_from(known), formulas(max_leaves=6, variables=2 * d))
    )
    return Template(
        "drawn", "interpretation", d, domain, equality, (Relation("R", 2, relation),)
    )


def equality_oracle(t):
    """The error the equality check must raise on ``t``, or None, decided
    by brute force with ``holds`` on the domain points of the n* = 3 grid:
    reflexive, symmetric, transitive, then congruent for the relation,
    one argument swapped at a time."""
    d = t.dimension
    points = [p for p in product(range(3 * d), repeat=d) if holds(t.domain_formula, p)]
    e = {(p, q): holds(t.equality_formula, p + q) for p in points for q in points}
    reflexive = all(e[p, p] for p in points)
    symmetric = all(e[p, q] == e[q, p] for p, q in e)
    transitive = all(e[p, s] for (p, q) in e if e[p, q] for s in points if e[q, s])
    if not (reflexive and symmetric and transitive):
        return EqualityNotEquivalence
    r = {pq: holds(t.relations[0].formula, pq[0] + pq[1]) for pq in e}
    congruent = all(
        r[p, s] == r[q, s] and r[s, p] == r[s, q]
        for (p, q) in e
        if e[p, q]
        for s in points
    )
    return None if congruent else EqualityNotCongruence


@settings(max_examples=200, deadline=None)
@given(equality_templates())
def test_equality_check_matches_brute_force(t):
    expected = equality_oracle(t)
    if expected is None:
        ordcsp.sampler._check_equality(t)
    else:
        with pytest.raises(expected):
            ordcsp.sampler._check_equality(t)


def test_direct_sampling_stability():
    # For direct templates, deciding against the sample at |A| equals
    # deciding against a larger sample.
    rng = random.Random(17)
    for name in ("qlt", "ord3"):
        t = preset(name)
        symbols = t.signature.symbols
        for _ in range(40):
            a = random_instance(rng, symbols, max_vars=4, max_constraints=5)
            n = len(a.variables)
            small = sample(t, n).structure
            big = sample(t, n + 2).structure
            assert (hom_exists(a, small) is None) == (
                hom_exists(a, big) is None
            )


def test_sidecar_json():
    smp = sample(preset("gamma3"), 1)
    assert smp.sidecar_json_dict() == {
        "representatives": [[0, 1], [1, 0]],
        "base_grid_size": 2,
    }


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("gamma1", (1, 2, 3, 4)),
        ("gamma2", (1, 2, 3, 4, 5)),
        ("gamma3", (1, 2, 3, 4, 5)),
    ],
)
def test_interpretation_matches_brute_force(name, sizes):
    # Rebuild each sample from the definition with the reference
    # evaluator: domain points on the grid, each class named by its least
    # member, relations evaluated on those representatives.
    t = preset(name)
    d = t.dimension
    for n in sizes:
        g = d * n
        points = [
            p for p in product(range(g), repeat=d) if holds(t.domain_formula, p)
        ]
        reps = sorted(
            {
                min(q for q in points if holds(t.equality_formula, p + q))
                for p in points
            }
        )
        relations = {
            rel.name: frozenset(
                combo
                for combo in product(range(len(reps)), repeat=rel.arity)
                if holds(rel.formula, sum((reps[i] for i in combo), ()))
            )
            for rel in t.relations
        }
        smp = sample(t, n)
        assert smp.structure.relations == relations
        assert smp.structure.labels == tuple(str(r) for r in reps)
        assert smp.representatives == tuple(reps)
        assert smp.base_grid_size == g


# Equalities on pairs that pass the equivalence and congruence check on a
# template with no relations, each with the domain it needs to be
# reflexive: the identity, each coordinate alone, one class, unordered
# pairs, and gamma3's two copies of the rationals.
EQUALITIES = [
    ("(and (eq 0 2) (eq 1 3))", "true"),
    ("(eq 0 2)", "true"),
    ("(eq 1 3)", "true"),
    ("true", "true"),
    ("(or (and (eq 0 2) (eq 1 3)) (and (eq 0 3) (eq 1 2)))", "true"),
    (preset("gamma3").to_json_dict()["equality_formula"], "(ne 0 1)"),
]


@settings(deadline=None)
@given(
    st.sampled_from(EQUALITIES),
    formulas(max_leaves=6, variables=2),
    st.integers(min_value=1, max_value=4),
)
def test_representatives_match_brute_force(equality, domain, n):
    # The least member of each class, by the definition, on drawn domains.
    eqf, base = map(parse_formula, equality)
    t = Template("drawn", "interpretation", 2, and_(base, domain), eqf, ())
    points = [
        p for p in product(range(2 * n), repeat=2) if holds(t.domain_formula, p)
    ]
    least = {min(q for q in points if holds(eqf, p + q)) for p in points}
    assert representatives(t, n) == sorted(least)


@st.composite
def drawn_templates(draw):
    """A direct template, or a 2-dimensional interpretation over one of
    ``EQUALITIES`` with a drawn domain, of one to three relations of
    arity 1 to 3."""
    direct = draw(st.booleans())
    d = 1 if direct else 2
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    relations = tuple(
        Relation(f"R{i}", m, draw(formulas(max_leaves=6, variables=m * d)))
        for i, m in enumerate(arities)
    )
    if direct:
        return Template("drawn", "direct", 1, TRUE, eq(0, 1), relations)
    eqf, base = map(parse_formula, draw(st.sampled_from(EQUALITIES)))
    domain = and_(base, draw(formulas(max_leaves=6, variables=2)))
    return Template("drawn", "interpretation", 2, domain, eqf, relations)


@settings(deadline=None)
@given(drawn_templates(), st.integers(min_value=1, max_value=3))
def test_sample_matches_brute_force(t, n):
    # The definition, read through the reference evaluator: the least
    # member of each class of domain points, and every tuple of them whose
    # concatenation satisfies a relation's formula.
    try:
        smp = sample(t, n)
    except (EqualityNotEquivalence, EqualityNotCongruence):
        assume(False)
    g = t.dimension * n
    points = [
        p for p in product(range(g), repeat=t.dimension)
        if holds(t.domain_formula, p)
    ]
    reps = sorted({
        min(q for q in points if holds(t.equality_formula, p + q)) for p in points
    })
    assert smp.representatives == tuple(reps)
    assert smp.structure.relations == {
        rel.name: frozenset(
            combo
            for combo in product(range(len(reps)), repeat=rel.arity)
            if holds(rel.formula, sum((reps[i] for i in combo), ()))
        )
        for rel in t.relations
    }


# Keeps the first coordinate of a pair only, so the equality drops points,
# and every relation reads that coordinate through a value table.
FIRST_COORDINATE = Template(
    "first", "interpretation", 2, TRUE, eq(0, 2),
    tuple(
        Relation(name, 2, parse_formula(text))
        for name, text in [("Lt", "(lt 0 2)"), ("Eq", "(eq 0 2)"), ("Ge", "(ge 2 0)")]
    ),
)


@pytest.mark.parametrize(
    "t", [preset(name) for name in PRESET_NAMES] + [FIRST_COORDINATE],
    ids=[*PRESET_NAMES, "first"],
)
def test_shared_tables_change_no_relation(t):
    # representatives hands its tables on only when it keeps every domain
    # point, as gamma1 and gamma2 do. gamma3 drops points from n = 2 on and
    # FIRST_COORDINATE at every n, and their equality tables would then
    # give wrong rows on the representatives.
    # template_source builds every relation from one dict of tables; each
    # must equal the rows or table built on the same points with no shared
    # dict.
    d = t.dimension
    for n in range(1, 5):
        tables = {}
        reps = representatives(t, n, tables)
        assert reps == representatives(t, n)
        points = ordcsp.sampler._domain_points(t, d * n)
        assert bool(tables) == (t.kind != "direct" and reps == points)
        shared_reps, size, shared = ordcsp.sampler.template_source(t, n)
        assert shared_reps == reps and size == len(reps)
        for rel in t.relations:
            if rel.arity == 2:
                alone = tuple(map(list, compile_rows(rel.formula, d)(reps)))
            else:
                alone = compile_table(rel.formula, rel.arity, d)(list(enumerate(reps)))
            assert shared(rel.name) == alone


def test_representatives_at_scale():
    # Each point of gamma2 is its own class: 9,216 points at n = 48 and
    # 40,000 at n = 100. gamma3 has two copies of each of its 96 values at
    # n = 48 but the ends; a copy's least point is (x, x + 1) or (x, 0).
    gamma2 = preset("gamma2")
    for n in (48, 100):
        g = 2 * n
        reps = representatives(gamma2, n)
        assert len(reps) == g * g
        assert reps[0] == (0, 0) and reps[-1] == (g - 1, g - 1)
    lower = [(x, x + 1) for x in range(95)]
    upper = [(x, 0) for x in range(1, 96)]
    assert representatives(preset("gamma3"), 48) == sorted(lower + upper)

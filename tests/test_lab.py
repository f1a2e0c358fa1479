import random
from dataclasses import asdict, replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ordcsp import (
    PRESET_NAMES,
    CapExceeded,
    FiniteStructure,
    Relation,
    Signature,
    Template,
    check_aclwalk_lemma,
    check_set_hom_equiv,
    find_alternating_walk,
    has_ts_polymorphism,
    orbit_count,
    preset,
    sample,
    subset_class_count,
)
from ordcsp.formula import TRUE, and_, eq, gt, lt, or_
from ordcsp.lab import _placements

from conftest import (
    all_binary_structures,
    binary_structure,
    complete_graph,
    min_closed_structure,
    random_binary_structure,
    reference_alternating_walk,
    reference_exact_walk,
    reference_orbit_count,
    valid_walk,
)
from test_formula import formulas


# ---------------------------------------------------------------------------
# equivalence reports


def test_equiv_k3():
    report = check_set_hom_equiv(complete_graph(3))
    assert report.set_hom is False
    assert report.ts_at_km is False
    assert report.ts_arity == 6
    assert report.consistent


def test_equiv_min_closed_order():
    b = binary_structure(2, {(0, 0), (0, 1), (1, 1)}, name="R")
    report = check_set_hom_equiv(b)
    assert report.set_hom and report.ts_at_km and report.consistent
    assert report.semilattice is not None


def test_equiv_singleton():
    b = binary_structure(1, {(0, 0)}, name="R")
    report = check_set_hom_equiv(b)
    assert report.set_hom and report.ts_at_km and report.consistent


def test_equiv_cap():
    with pytest.raises(CapExceeded):
        check_set_hom_equiv(complete_graph(4))


def test_equiv_consistent_on_all_two_element_structures():
    for b in all_binary_structures(2):
        assert check_set_hom_equiv(b).consistent


# ---------------------------------------------------------------------------
# alternating walks


def test_walk_back_and_forth():
    r = {(0, 1), (1, 0)}
    walk = find_alternating_walk(r, r, 3)
    assert walk.elements == (0, 1, 0)
    assert walk.half_length == 1
    assert valid_walk(walk, r, r)


def test_walk_absent():
    assert find_alternating_walk({(0, 1)}, {(2, 0)}, 4) is None


def test_walk_through_cycle():
    r = {(0, 1), (1, 2), (2, 0)}
    walk = find_alternating_walk(r, r, 3)
    assert walk is not None
    assert walk.half_length <= 3
    assert valid_walk(walk, r, r)


def test_walks_always_validate():
    rng = random.Random(61)
    for _ in range(200):
        m = rng.randint(1, 4)
        r = {
            (rng.randrange(m), rng.randrange(m))
            for _ in range(rng.randint(0, 5))
        }
        s = {
            (rng.randrange(m), rng.randrange(m))
            for _ in range(rng.randint(0, 5))
        }
        walk = find_alternating_walk(r, s, 4)
        if walk is not None:
            assert valid_walk(walk, r, s)


def test_walk_lemma_loop_pair():
    b = binary_structure(2, {(0, 0), (0, 1), (1, 1)}, name="R")
    report = check_aclwalk_lemma(b, 2)
    assert report.arity == 2
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert pair.exact_walk is not None
    assert pair.intersection_nonempty
    assert not report.violations


def test_walk_lemma_acyclic_is_vacuous():
    b = sample(preset("qlt"), 3).structure
    report = check_aclwalk_lemma(b, 2)
    (pair,) = report.pairs
    assert pair.exact_walk is None
    assert not pair.violation


def test_walk_lemma_precondition():
    with pytest.raises(ValueError, match="precondition"):
        check_aclwalk_lemma(complete_graph(3), 2)


def test_walk_lemma_randomized_campaign():
    rng = random.Random(62)
    for _ in range(60):
        b = min_closed_structure(rng)
        for n in (2, 3):
            assert has_ts_polymorphism(b, n) is not None
            report = check_aclwalk_lemma(b, n)
            assert not report.violations


def random_walk_pair(rng):
    """Relations R, S on 1-12 elements: random pairs, one of them empty
    one time in six, or (a third of the time) an alternating cycle
    through a random order of the elements plus a few random pairs."""
    m = rng.randint(1, 12)
    pairs = [(i, j) for i in range(m) for j in range(m)]

    def noise(most):
        return set(rng.sample(pairs, rng.randint(0, min(len(pairs), most))))

    if m < 2 or rng.randrange(3):
        r, s = noise(3 * m), noise(3 * m)
        if rng.randrange(6) == 0:
            (r if rng.randrange(2) else s).clear()
        return r, s
    order = rng.sample(range(m), 2 * rng.randint(1, m // 2))
    k = len(order)
    r = {(order[i], order[i + 1]) for i in range(0, k, 2)} | noise(2)
    s = {(order[i], order[(i + 1) % k]) for i in range(1, k, 2)} | noise(2)
    return r, s


def test_walks_match_reference():
    # Pinned against a breadth-first search over (element, parity) states
    # started from every element of R or S.
    rng = random.Random(64)
    for _ in range(1000):
        r, s = random_walk_pair(rng)
        half = rng.randint(1, 12)
        assert find_alternating_walk(r, s, half) == reference_alternating_walk(
            r, s, half
        ), (r, s, half)


def test_walk_lemma_walks_match_reference():
    rng = random.Random(65)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 4)
        if rng.randrange(2):
            b = min_closed_structure(rng, max_size=4)
        else:
            first = random_binary_structure(rng, max_size=4)
            second = random_binary_structure(rng, max_size=first.size)
            b = FiniteStructure(
                Signature((("R", 2), ("S", 2))),
                first.size,
                {"R": first.relations["E"], "S": second.relations["E"]},
            )
        if has_ts_polymorphism(b, n) is None:
            continue
        checked += 1
        pairs = iter(check_aclwalk_lemma(b, n).to_json_dict()["pairs"])
        binary = [b.relations[name] for name, _ in b.signature.symbols]
        for r in binary:
            for s in binary:
                pair = next(pairs)
                exact = reference_exact_walk(b.size, r, s, n)
                shortest = reference_alternating_walk(r, s, n)
                assert pair["exact_walk"] == (exact and asdict(exact))
                assert pair["shortest_walk"] == (shortest and asdict(shortest))


# ---------------------------------------------------------------------------
# orbit growth


def test_orbit_qlt_always_one():
    # Exactness follows the template's content, not its name.
    for t in (preset("qlt"), replace(preset("qlt"), name="myqlt")):
        for n in range(1, 6):
            report = orbit_count(t, n)
            assert report.class_count == 1
            assert report.exactness == "exact"


def test_orbit_exactness_pinned():
    # Exact means equal to qlt, ord3, gamma1 or gamma2 in every field but
    # the name; any other difference makes the count a lower bound.
    qlt, ord3, gamma2 = preset("qlt"), preset("ord3"), preset("gamma2")
    swapped = or_(gt(0, 2), gt(0, 1))
    cases = [(preset(p), p != "gamma3") for p in PRESET_NAMES]
    cases += [(replace(preset(p), name="x"), p != "gamma3") for p in PRESET_NAMES]
    cases += [
        (replace(preset("gamma3"), name="qlt"), False),
        (replace(qlt, semilattice="max"), False),
        (replace(qlt, semilattice=None), False),
        (replace(ord3, relations=(Relation("T", 3, swapped),)), False),
        (replace(gamma2, relations=gamma2.relations[::-1]), False),
        (
            Template(
                "q", "direct", 1, TRUE, eq(0, 1), (Relation("Lt", 2, lt(0, 1)),), "min"
            ),
            True,
        ),
    ]
    for t, exact in cases:
        want = "exact" if exact else "lower_bound"
        assert orbit_count(t, 2).exactness == want, t


def test_orbit_gamma2_doubles():
    for n in range(1, 6):
        assert orbit_count(preset("gamma2"), n).class_count == 2 ** (n - 1)


def test_orbit_gamma1_examples():
    assert orbit_count(preset("gamma1"), 2).class_count == 4
    report = orbit_count(preset("gamma1"), 3)
    assert report.class_count == 24
    assert report.class_count >= 4
    assert report.exactness == "exact"


def test_orbit_gamma3_lower_bound():
    for name in ("gamma3", "qlt"):
        report = orbit_count(replace(preset("gamma3"), name=name), 3)
        assert report.exactness == "lower_bound"
        assert report.class_count >= 1


def test_orbit_caps():
    with pytest.raises(CapExceeded):
        orbit_count(preset("qlt"), 8)
    with pytest.raises(ValueError):
        orbit_count(preset("qlt"), 0)
    with pytest.raises(CapExceeded):
        orbit_count(preset("gamma1"), 5, budget=100)
    # Each cap is checked before its enumeration: 3^3 first-level
    # patterns, 3^2 table candidates, and 8^2 points for a one-point
    # gamma2 configuration (two used values, spread 3 apart).
    three = replace(preset("gamma2"), dimension=3)
    with pytest.raises(CapExceeded, match=r"3\^3 patterns > 20"):
        orbit_count(three, 2, budget=20)
    with pytest.raises(CapExceeded, match=r"3\^2 table candidates > 8"):
        orbit_count(preset("gamma2"), 3, budget=8)
    with pytest.raises(CapExceeded, match=r"8\^2 points > 50"):
        orbit_count(preset("gamma2"), 3, budget=50)
    with pytest.raises(CapExceeded, match="67 configurations > 64"):
        orbit_count(preset("gamma2"), 3, budget=64)


# The least budget under which orbit_count passes, and the cap that one
# less hits. Where that cap is the configurations grown, the budget is the
# total of distinct candidates over all levels, so it pins the candidates.
ORBIT_BUDGET_THRESHOLDS = [
    ("qlt", 1, 1, "1^1 patterns"),
    ("qlt", 2, 4, "2^2 table candidates"),
    ("qlt", 3, 9, "3^2 table candidates"),
    ("qlt", 4, 16, "4^2 table candidates"),
    ("qlt", 5, 25, "5^2 table candidates"),
    ("ord3", 1, 1, "1^1 patterns"),
    ("ord3", 2, 8, "2^3 table candidates"),
    ("ord3", 3, 27, "3^3 table candidates"),
    ("ord3", 4, 64, "4^3 table candidates"),
    ("ord3", 5, 125, "5^3 table candidates"),
    ("gamma2", 1, 4, "2^2 patterns"),
    ("gamma2", 2, 25, "5^2 points"),
    ("gamma2", 3, 67, "67 configurations"),
    ("gamma2", 4, 220, "220 configurations"),
    ("gamma2", 5, 655, "655 configurations"),
    ("gamma3", 1, 4, "2^2 patterns"),
    ("gamma3", 2, 64, "8^2 points"),
    ("gamma3", 3, 121, "11^2 points"),
    ("gamma3", 4, 260, "260 configurations"),
    ("gamma3", 5, 781, "781 configurations"),
    ("gamma1", 1, 4, "2^2 patterns"),
    ("gamma1", 2, 25, "5^2 points"),
    ("gamma1", 3, 125, "125 configurations"),
    ("gamma1", 4, 1314, "1314 configurations"),
]


@pytest.mark.parametrize("name, n, budget, cap", ORBIT_BUDGET_THRESHOLDS)
def test_orbit_budget_threshold_pinned(name, n, budget, cap):
    t = preset(name)
    orbit_count(t, n, budget)
    with pytest.raises(CapExceeded) as raised:
        orbit_count(t, n, budget - 1)
    assert str(raised.value) == f"orbit counting budget: {cap} > {budget - 1}"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("v", range(5))
def test_placements_list_each_order_type_once(v, d):
    # Brute force: every point of the grid that spreads the v values d + 1
    # apart, ranked together with those values.
    values = [d + x * (d + 1) for x in range(v)]
    fine = d + v * (d + 1)

    def order_type(w):
        rank = {x: i for i, x in enumerate(sorted({*values, *w}))}
        return tuple(rank[x] for x in values), tuple(rank[x] for x in w)

    brute = {order_type(w) for w in product(range(fine), repeat=d)}
    placements = _placements(v, d)
    types = [(tuple(old), new) for old, new in placements]
    assert len(set(types)) == len(types)
    assert set(types) == brute
    if d == 1:
        assert len(placements) == 2 * v + 1


def test_orbit_count_sets_no_template_attribute():
    # Its builders are cached on the template's formulas, not on the
    # template; a direct template has no equality verdict to cache.
    t = preset("qlt")
    keys = set(vars(t))
    orbit_count(t, 3)
    assert set(vars(t)) == keys


def test_orbit_report_json():
    report = orbit_count(preset("gamma2"), 4)
    assert asdict(report) == {
        "n": 4,
        "class_count": 8,
        "exactness": "exact",
    }


@pytest.mark.parametrize(
    "name, n, count",
    [("gamma1", 4, 196), ("gamma2", 5, 16), ("gamma3", 5, 16),
     ("qlt", 5, 1), ("ord3", 5, 1)],
)
def test_orbit_counts_pinned(name, n, count):
    assert orbit_count(preset(name), n).class_count == count


@pytest.mark.parametrize(
    "t, counts",
    [
        (preset("qlt"), [1] * 5),
        (preset("ord3"), [1] * 5),
        (preset("gamma2"), [1, 2, 4, 8, 16]),
        (preset("gamma3"), [1, 2, 4, 8, 16]),
        (preset("gamma1"), [1, 4, 24, 196, 2016]),
        (
            replace(
                preset("gamma2"),
                dimension=3,
                equality_formula=and_(eq(0, 3), eq(1, 4), eq(2, 5)),
            ),
            [3, 13, 75],
        ),
    ],
    ids=["qlt", "ord3", "gamma2", "gamma3", "gamma1", "gamma2-dim3"],
)
def test_orbit_counts_by_level_pinned(t, counts):
    assert [orbit_count(t, n).class_count for n in range(1, len(counts) + 1)] == counts


@pytest.mark.parametrize("name", ["qlt", "ord3", "gamma1", "gamma2", "gamma3"])
def test_orbit_growth_matches_subset_enumeration(name):
    # Independent oracle: enumerate all n-subsets of an actual sample and
    # canonicalize each induced substructure by plain minimization.
    t = preset(name)
    for n in (1, 2, 3):
        grown = orbit_count(t, n).class_count
        assert grown == subset_class_count(sample(t, n).structure, n)


@pytest.mark.parametrize("name", ["qlt", "gamma2", "gamma3"])
def test_orbit_representative_in_larger_sample(name):
    # Counting inside a bigger sample finds the same classes.
    t = preset(name)
    for n in (1, 2, 3):
        bigger = subset_class_count(sample(t, n + 1).structure, n)
        assert orbit_count(t, n).class_count == bigger


def test_subset_count_relabeling_invariance():
    rng = random.Random(63)
    for _ in range(20):
        m = rng.randint(2, 5)
        tuples = {
            (rng.randrange(m), rng.randrange(m))
            for _ in range(rng.randint(0, 6))
        }
        b = binary_structure(m, tuples)
        perm = list(range(m))
        rng.shuffle(perm)
        relabeled = binary_structure(
            m, {(perm[i], perm[j]) for i, j in tuples}
        )
        for n in (1, 2, 3):
            if n <= m:
                assert subset_class_count(b, n) == subset_class_count(
                    relabeled, n
                )


def test_subset_count_budget():
    with pytest.raises(CapExceeded):
        subset_class_count(binary_structure(30, ()), 5, budget=10)


def test_orbit_gamma3_growth_matches_brute_at_4():
    # gamma3 is the preset where exactness is only a lower bound, so the
    # growth enumeration gets the extra scrutiny of a size-4 cross-check.
    t = preset("gamma3")
    grown = orbit_count(t, 4).class_count
    assert grown == subset_class_count(sample(t, 4).structure, 4)
    assert grown == subset_class_count(sample(t, 5).structure, 4)


def test_orbit_growth_on_coordinate_mixing_template():
    # y-coordinates compared across points and against the own x: the
    # relative order of a new point's two coordinates inside a single gap
    # is observable, so the extension grid must hold d slots per gap.
    from ordcsp.formula import TRUE, and_, eq, lt
    from ordcsp.template import Relation, Template

    t = Template(
        name="mixed",
        kind="interpretation",
        dimension=2,
        domain_formula=TRUE,
        equality_formula=and_(eq(0, 2), eq(1, 3)),
        relations=(
            Relation("S", 2, lt(0, 2)),
            Relation("W", 2, lt(1, 3)),
            Relation("C", 1, lt(0, 1)),
        ),
    )
    expected = {1: 2, 2: 13, 3: 120}
    for n in (1, 2, 3):
        grown = orbit_count(t, n).class_count
        assert grown == expected[n]
        assert grown == subset_class_count(sample(t, n).structure, n)


def test_canonicalizers_define_same_classes():
    from ordcsp.lab import _canonical_all_perms, canonical_form

    rng = random.Random(77)
    structs = []
    for _ in range(60):
        k = rng.randint(1, 5)
        rels = []
        for _ in range(rng.randint(1, 2)):
            m = rng.choice([1, 2, 2, 3])
            tuples = {
                tuple(rng.randrange(k) for _ in range(m))
                for _ in range(rng.randint(0, 6))
            }
            rels.append((m, tuples))
        structs.append((k, rels))
    for i, (k1, r1) in enumerate(structs):
        for k2, r2 in structs[i:]:
            if k1 != k2 or [a for a, _ in r1] != [a for a, _ in r2]:
                continue
            ref_eq = _canonical_all_perms(k1, r1) == _canonical_all_perms(
                k2, r2
            )
            fast_eq = canonical_form(k1, r1) == canonical_form(k2, r2)
            assert ref_eq == fast_eq
    assert canonical_form(0, []) == () == _canonical_all_perms(0, [])

    # k = 6-7: nine binary relations as in gamma1, unary and ternary ones,
    # and empty and complete relations, which leave large colour classes.
    # Cycles that colour refinement cannot tell apart (C6 against two
    # triangles, C7 against C3 + C4) need the search over orderings.
    def relabel(k, rels):
        perm = rng.sample(range(k), k)
        return [(m, {tuple(perm[x] for x in t) for t in ts}) for m, ts in rels]

    def cycles(*lengths):
        edges, start = set(), 0
        for n in lengths:
            for i in range(n):
                a, b = start + i, start + (i + 1) % n
                edges |= {(a, b), (b, a)}
            start += n
        return start, [(2, edges)]

    def relation(k, m):
        every = list(product(range(k), repeat=m))
        kind = rng.randrange(4)
        if kind < 2:
            return set(every) if kind else set()
        return set(rng.sample(every, rng.randint(1, min(len(every), 3 * k))))

    large = [cycles(6), cycles(3, 3), cycles(7), cycles(3, 4)]
    complete = set(product(range(7), repeat=2))
    large.append((7, [(1, set()), (2, complete), (3, set())]))
    shapes = [[2] * 9, [1, 2, 2], [3, 2], [1, 3]]
    for k, shape in [(6, s) for s in shapes] + [(7, s) for s in shapes[:2]]:
        rels = [(m, relation(k, m)) for m in shape]
        # A near copy: relabelled, with one tuple of one relation toggled.
        near = relabel(k, rels)
        m, ts = rng.choice(near)
        ts ^= {tuple(rng.randrange(k) for _ in range(m))}
        large += [(k, rels), (k, near)]
    forms = []
    for k, rels in large:
        form = canonical_form(k, rels)
        assert canonical_form(k, relabel(k, rels)) == form
        forms.append((k, [m for m, _ in rels], _canonical_all_perms(k, rels), form))
    for i, (k1, shape1, ref1, form1) in enumerate(forms):
        for k2, shape2, ref2, form2 in forms[i + 1 :]:
            if (k1, shape1) == (k2, shape2):
                assert (ref1 == ref2) == (form1 == form2)


def _drawn_template(d):
    """A drawn domain formula, 1-3 drawn relations of arity 1 or 2 and
    n, all on dimension d; n <= 2 at d = 3 keeps the reference cheap."""
    relation = st.sampled_from([2, 2, 2, 1]).flatmap(
        lambda m: st.tuples(st.just(m), formulas(max_leaves=6, variables=m * d))
    )
    return st.tuples(
        st.just(d),
        formulas(max_leaves=4, variables=d),
        st.lists(relation, min_size=1, max_size=3),
        st.integers(1, 2 if d == 3 else 3),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(_drawn_template))
def test_orbit_count_on_drawn_templates(drawn):
    # Random interpretations of dimension d with identity equality and a
    # drawn domain formula, which growth tests on each placement. Every
    # class of n points has a copy in Sample(n), whose grid has dn values,
    # so subset enumeration counts them all. Growth keeps one configuration
    # per class, which on a template that is not homogeneous may miss some
    # (R(p, q) = p0 < q1 has 46 classes of 3 points, of which growth finds
    # 44): the count is a lower bound, and equals the reference growth's.
    d, domain, rels, n = drawn
    t = Template(
        name="drawn",
        kind="interpretation",
        dimension=d,
        domain_formula=domain,
        equality_formula=and_(*(eq(i, d + i) for i in range(d))),
        relations=tuple(Relation(f"R{i}", m, f) for i, (m, f) in enumerate(rels)),
    )
    grown = orbit_count(t, n).class_count
    assert grown == reference_orbit_count(t, n)
    assert grown <= subset_class_count(sample(t, n).structure, n)


def test_orbit_growth_is_a_lower_bound_off_homogeneous_templates():
    t = Template(
        "mixed",
        "interpretation",
        2,
        TRUE,
        and_(eq(0, 2), eq(1, 3)),
        (Relation("R", 2, lt(0, 3)),),
    )
    assert [orbit_count(t, n).class_count for n in (1, 2, 3)] == [2, 8, 44]
    assert subset_class_count(sample(t, 3).structure, 3) == 46
    assert orbit_count(t, 3).exactness == "lower_bound"

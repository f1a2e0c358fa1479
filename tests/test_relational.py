import hashlib
import json
import operator
import random
from itertools import combinations, product

import pytest

import ordcsp
from ordcsp import (
    BinaryOpTable,
    CapExceeded,
    FiniteStructure,
    Instance,
    Signature,
    SignatureMismatch,
    find_semilattice,
    has_ts_polymorphism,
    hom_exists,
    is_polymorphism,
    power_structure,
    preset,
    sample,
)
from ordcsp.formula import MAX_TABLE_WIDTH
from ordcsp.polymorphism import _SUBSET_KEYS, TS_TABLE_CAP, SubsetFunctionTable

from conftest import (
    all_binary_structures,
    binary_structure,
    complete_graph,
    enumerated_semilattice,
    is_associative,
    is_commutative,
    is_idempotent,
    min_fold_table,
    random_binary_structure,
    random_instance,
    reference_hom,
    reference_power_relations,
    reference_semilattice,
    reference_signatures,
    reference_ts_entries,
    wide_binary_structures,
)


def check_mapping(a, b, mapping):
    for name, tuples in a.relations.items():
        for t in tuples:
            assert tuple(mapping[x] for x in t) in b.relations[name]


def random_structure(rng, max_size=4):
    """One or two relations of arity 1-3 on at most ``max_size`` elements;
    ternary relations only on at most three."""
    m = rng.randint(1, max_size)
    symbols = []
    relations = {}
    for r in range(rng.randint(1, 2)):
        arity = rng.randint(1, 3 if m <= 3 else 2)
        density = rng.random()
        symbols.append((f"R{r}", arity))
        relations[f"R{r}"] = frozenset(
            t
            for t in product(range(m), repeat=arity)
            if rng.random() < density
        )
    return FiniteStructure(Signature(tuple(symbols)), m, relations)


def ternary_structure(rng, unary):
    """A ternary relation on four elements, as in ord3's lab samples, and
    when ``unary`` a unary relation beside it."""
    density = rng.random()
    symbols, relations = [("T", 3)], {}
    relations["T"] = frozenset(
        t for t in product(range(4), repeat=3) if rng.random() < density
    )
    if unary:
        symbols.append(("U", 1))
        relations["U"] = frozenset((x,) for x in range(4) if rng.random() < 0.7)
    return FiniteStructure(Signature(tuple(symbols)), 4, relations)


def lab_sample(name):
    return sample(preset(name), 2).structure


# ---------------------------------------------------------------------------
# hom_exists


def test_hom_unconstrained_variable():
    a = Instance(("x",), ())
    assert hom_exists(a, complete_graph(1)) == {"x": 0}


def test_hom_k4_to_k3_absent():
    assert hom_exists(complete_graph(4), complete_graph(3)) is None


def test_hom_k3_identity():
    k3 = complete_graph(3)
    mapping = hom_exists(k3, k3)
    assert mapping is not None
    check_mapping(k3, k3, mapping)


def test_hom_instance_with_repeats():
    k3 = complete_graph(3)
    a = Instance(("x",), (("E", ("x", "x")),))
    assert hom_exists(a, k3) is None


def test_hom_empty_target():
    empty = binary_structure(0, ())
    assert hom_exists(Instance((), ()), empty) == {}
    assert hom_exists(Instance(("x",), ()), empty) is None


def test_hom_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        hom_exists(Instance(("x",), (("F", ("x", "x")),)), complete_graph(2))
    wrong_arity = FiniteStructure(Signature((("E", 3),)), 2, {})
    with pytest.raises(SignatureMismatch):
        hom_exists(complete_graph(2), wrong_arity)
    with pytest.raises(TypeError, match="expected Instance or FiniteStructure"):
        hom_exists({"variables": []}, complete_graph(2))


def test_hom_relabeling_invariance():
    rng = random.Random(11)
    for _ in range(50):
        b = random_binary_structure(rng)
        a = random_instance(rng, [("E", 2)], max_vars=4, max_constraints=5)
        perm = list(range(b.size))
        rng.shuffle(perm)
        relabeled = binary_structure(
            b.size, {(perm[i], perm[j]) for i, j in b.relations["E"]}
        )
        assert (hom_exists(a, b) is None) == (hom_exists(a, relabeled) is None)


def test_hom_mapping_is_always_valid():
    rng = random.Random(12)
    for _ in range(100):
        b = random_binary_structure(rng)
        a = random_instance(rng, [("E", 2)], max_vars=5)
        mapping = hom_exists(a, b)
        if mapping is not None:
            for rel, args in a.constraints:
                assert tuple(mapping[v] for v in args) in b.relations[rel]


def test_hom_matches_recursive_reference():
    rng = random.Random(23)
    found = absent = 0
    for i in range(240):
        b = random_structure(rng)
        if i % 4 == 0 and b.size <= 3:
            a = power_structure(b)
        else:
            a = random_instance(
                rng, b.signature.symbols, max_vars=8, max_constraints=12
            )
        mapping = hom_exists(a, b)
        expected = reference_hom(a, b)
        assert (mapping and list(mapping.items())) == (
            expected and list(expected.items())
        )
        found += mapping is not None
        absent += mapping is None
    assert found > 50 and absent > 50
    # Binary structures of 0 to 6 elements, with E(x, x) on diagonal rows
    # next to E(x, y) on support bitsets, and ones wider than a machine
    # word.
    inputs = [random_binary_structure(rng, 6, min_size=0) for _ in range(150)]
    for b in inputs + [b for b in wide_binary_structures(rng) for _ in range(4)]:
        a = random_instance(rng, [("E", 2)], max_vars=5, max_constraints=7)
        mapping = hom_exists(a, b)
        expected = reference_hom(a, b)
        assert (mapping and list(mapping.items())) == (
            expected and list(expected.items())
        )
    # Interpretation samples of 144 elements.
    for name in ("gamma1", "gamma2"):
        b = sample(preset(name), 6).structure
        for _ in range(6):
            a = random_instance(
                rng, list(b.signature.symbols), max_vars=4, max_constraints=5
            )
            mapping = hom_exists(a, b)
            expected = reference_hom(a, b)
            assert (mapping and list(mapping.items())) == (
                expected and list(expected.items())
            )
    # Power structures of template samples: repeated elements within
    # constraints and long live lists.
    for name in ("qlt", "ord3"):
        for n in (3, 4):
            b = sample(preset(name), n).structure
            a = power_structure(b)
            mapping = hom_exists(a, b)
            assert mapping is not None
            assert list(mapping.items()) == list(reference_hom(a, b).items())
    # Graphs near the 3-colouring threshold, where the search backtracks.
    names = tuple(f"v{i}" for i in range(12))
    for _ in range(40):
        edges = tuple(("E", tuple(rng.sample(names, 2))) for _ in range(26))
        a = Instance(names, edges)
        mapping = hom_exists(a, complete_graph(3))
        expected = reference_hom(a, complete_graph(3))
        assert (mapping and list(mapping.items())) == (
            expected and list(expected.items())
        )


def test_hom_long_path_into_two_cycle():
    # Deeper than the interpreter's recursion limit.
    names = tuple(f"x{i}" for i in range(1500))
    path = Instance(
        names, tuple(("E", (u, v)) for u, v in zip(names, names[1:]))
    )
    cycle = binary_structure(2, {(0, 1), (1, 0)})
    mapping = hom_exists(path, cycle)
    assert mapping == {v: i % 2 for i, v in enumerate(names)}


# ---------------------------------------------------------------------------
# power_structure


def test_power_singleton_loop():
    b = binary_structure(1, {(0, 0)}, name="R")
    p = power_structure(b)
    assert p.size == 1
    assert p.relations["R"] == frozenset({(0, 0)})


def test_power_k3():
    p = power_structure(complete_graph(3))
    assert p.size == 7
    # canonical order is by ascending bitmask: {0}=0, {1}=1, {0,1}=2, ...
    assert p.labels[:4] == ("{0}", "{1}", "{0,1}", "{2}")
    assert (2, 2) in p.relations["E"]  # {0,1} vs {0,1}
    assert (0, 0) not in p.relations["E"]  # {0} vs {0}


def test_power_k3_no_hom_back():
    k3 = complete_graph(3)
    assert hom_exists(power_structure(k3), k3) is None


def test_power_size_and_cap(monkeypatch):
    for m in (1, 2, 3, 4):
        assert power_structure(binary_structure(m, ())).size == 2**m - 1
    with monkeypatch.context() as patch:
        patch.setattr(ordcsp.powerset, "SUBSET_CAP_BITS", 4)
        with pytest.raises(CapExceeded, match=r"size 5 > 4 \(2\^5 - 1 subsets\)"):
            power_structure(binary_structure(5, ()))
    with pytest.raises(ValueError):
        power_structure(binary_structure(0, ()))
    # Candidate boxes are (2^m - 1)^arity summed over the relations: K11's
    # 2047^2 pass the cap, K12's 4095^2 do not, and two binary relations on
    # 2 elements have 9 + 9.
    assert 2047**2 <= ordcsp.powerset.BOX_CAP < 4095**2
    with pytest.raises(CapExceeded, match=r"box cap: 0 \+ 4095\^2 > 10000000"):
        power_structure(complete_graph(12))
    two = FiniteStructure(Signature((("E", 2), ("F", 2))), 2, {})
    monkeypatch.setattr(ordcsp.powerset, "BOX_CAP", 18)
    assert power_structure(two).size == 3
    monkeypatch.setattr(ordcsp.powerset, "BOX_CAP", 17)
    with pytest.raises(CapExceeded, match=r"box cap: 9 \+ 3\^2 > 17"):
        power_structure(two)
    # One element has one box at any arity, so the arity is capped too.
    def wide(arity):
        return FiniteStructure(Signature((("R", arity),)), 1, {})

    assert power_structure(wide(MAX_TABLE_WIDTH)).relations["R"] == frozenset()
    for arity in (MAX_TABLE_WIDTH + 1, 2**70):
        with pytest.raises(CapExceeded, match=f"arity {arity} > 10000"):
            power_structure(wide(arity))


def test_power_empty_relation():
    p = power_structure(binary_structure(2, ()))
    assert p.relations["E"] == frozenset()


@pytest.mark.parametrize("name", ["qlt", "ord3"])
def test_power_matches_covering_rule_on_samples(name):
    for n in range(1, 6):
        b = sample(preset(name), n).structure
        assert power_structure(b).relations == reference_power_relations(b)


def test_power_matches_covering_rule_on_random_structures():
    rng = random.Random(71)
    for _ in range(200):
        m, arity, density = rng.randint(1, 4), rng.randint(1, 3), rng.random()
        tuples = frozenset(
            t for t in product(range(m), repeat=arity) if rng.random() < density
        )
        b = FiniteStructure(Signature((("R", arity),)), m, {"R": tuples})
        assert power_structure(b).relations == reference_power_relations(b)


# ---------------------------------------------------------------------------
# totally symmetric polymorphisms


def test_ts_min_example():
    b = binary_structure(2, {(0, 0), (0, 1), (1, 1)}, name="R")
    table = has_ts_polymorphism(b, 2)
    assert table is not None
    assert table.entries == {
        frozenset({0}): 0,
        frozenset({1}): 1,
        frozenset({0, 1}): 0,
    }
    assert is_polymorphism(table, b)


def test_ts_k3_absent():
    assert has_ts_polymorphism(complete_graph(3), 2) is None


def test_ts_arity_one_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        b = random_binary_structure(rng)
        table = has_ts_polymorphism(b, 1)
        assert table.entries == {
            frozenset({x}): x for x in range(b.size)
        }
        assert is_polymorphism(table, b)


def test_ts_brute_force_agreement():
    # Independent oracle: search raw n-ary tables over all argument
    # subsets, checking the polymorphism condition on all tuple n-tuples.
    def brute_ts(b, n):
        subsets = [
            frozenset(c)
            for size in range(1, min(n, b.size) + 1)
            for c in combinations(range(b.size), size)
        ]
        tuple_lists = {
            name: sorted(ts) for name, ts in b.relations.items()
        }

        def ok(entries):
            for name, tuples in tuple_lists.items():
                for chosen in product(tuples, repeat=n):
                    image = tuple(
                        entries[frozenset(t[i] for t in chosen)]
                        for i in range(len(chosen[0]))
                    )
                    if image not in b.relations[name]:
                        return False
            return True

        for values in product(range(b.size), repeat=len(subsets)):
            entries = dict(zip(subsets, values))
            if ok(entries):
                return True
        return False

    rng = random.Random(5)
    for _ in range(25):
        b = random_binary_structure(rng, max_size=2)
        for n in (2, 3):
            assert (has_ts_polymorphism(b, n) is not None) == brute_ts(b, n)


def test_ts_budget():
    k3 = complete_graph(3)
    with pytest.raises(CapExceeded):
        has_ts_polymorphism(k3, 6, budget=3)
    with pytest.raises(ValueError, match="arity must be positive"):
        has_ts_polymorphism(k3, 0)


def test_ts_table_cap():
    # 300 elements at arity 3 make 4,500,250 subsets; the unary shortcut
    # is capped too. Both raise before any table is built.
    for m, n in ((300, 3), (TS_TABLE_CAP + 1, 1)):
        with pytest.raises(CapExceeded, match="TS table cap"):
            has_ts_polymorphism(binary_structure(m, ()), n)
    table = has_ts_polymorphism(binary_structure(TS_TABLE_CAP, ()), 1)
    assert len(table.entries) == TS_TABLE_CAP


def test_ts_matches_reference_search():
    rng = random.Random(29)
    cases = [
        (complete_graph(3), 2),
        (complete_graph(3), 3),
        (complete_graph(4), 2),
        # The first table here depends on {0,3} coming before {1,2}.
        (binary_structure(4, {(1, 2), (2, 3), (3, 0)}), 2),
        (lab_sample("gamma1"), 2),
        (lab_sample("gamma2"), 2),
    ]
    cases += [(random_structure(rng), rng.randint(1, 5)) for _ in range(300)]
    # Ternary relations on four elements, alone and beside a unary one.
    cases += [(ternary_structure(rng, i % 2), 2 + i % 3 // 2) for i in range(60)]
    found = absent = 0
    for b, n in cases:
        table = has_ts_polymorphism(b, n)
        assert (table and table.entries) == reference_ts_entries(b, n)
        found += table is not None
        absent += table is None
    assert found > 100 and absent > 10


@pytest.mark.parametrize(
    "which", ["k3-arity-6", "gamma2-arity-2", "one-tuple-arity-3"]
)
def test_ts_budget_is_signature_count(which):
    b, n = {
        "k3-arity-6": (complete_graph(3), 6),
        "gamma2-arity-2": (lab_sample("gamma2"), 2),
        "one-tuple-arity-3": (binary_structure(2, {(0, 1)}), 3),
    }[which]
    count = sum(
        len(reference_signatures(tuples, n)) for tuples in b.relations.values()
    )
    has_ts_polymorphism(b, n, budget=count)
    with pytest.raises(CapExceeded):
        has_ts_polymorphism(b, n, budget=count - 1)


TS_PINS = {
    ("gamma1", 2, 2): "b3902d0a0966c0e27a408fc5b40d51ab9b2f5f1060d6d733c0903c102c852ca8",
    ("gamma1", 2, 3): "a16f23b4b6ab83ffbedd167d9ba4c8401b063d0e0dbf49c5712581eb4c77e9f5",
    ("gamma1", 2, 4): "eb56a56d6aeb9900162b06b585d9f9e08ba7f832fbe282045f2c631e1dc6de0d",
    ("gamma2", 2, 2): "f4ec24bf34e451efd630ceb41b0f5cedb2daea259b110530503cf0ed0d191e73",
    ("gamma2", 2, 3): "32f38a292b38a3c31ad44427684a575a5cd53e3ae3380a4891b57c0a5f21438a",
    ("gamma2", 2, 4): "f81d8607fedac5fee5abffd13e3cea0359f368aa4861435d79a0837def72cf6f",
    ("ord3", 3, 9): "3263cbd202753b12b9486956e84027e8aa67574a4d1433037544d33e67055695",
    ("ord3", 4, 12): "a7bbcd0d43783b63d74d72315f99256e0608a0bea8460824aef38387505531cf",
    ("qlt", 5, 10): "801615b3d7ade06935a15931a25d5075a3f630e59f30ea4aed51a006fcd9ab34",
    ("gamma3", 2, 2): "b8b116f9001a5bb812da246756f6809a366273ad1f2f88d04c80ed6e97f696a5",
    ("K3", None, 2): "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
}


@pytest.mark.parametrize("name, size, n", list(TS_PINS), ids=str)
def test_ts_tables_pinned(name, size, n):
    # Tables the reference search cannot reach in time (arity 3 and 4 on
    # 16 elements), hashed from to_json_dict(), or from None.
    if name == "K3":
        b = complete_graph(3)
    else:
        b = sample(preset(name), size).structure
    table = has_ts_polymorphism(b, n)
    data = None if table is None else table.to_json_dict()
    text = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == TS_PINS[name, size, n]


def test_ts_tables_share_keys():
    # Tables of one (|B|, n) hold the same subset objects as keys; their
    # values are pinned in test_ts_tables_pinned.
    gamma1, gamma2 = lab_sample("gamma1"), lab_sample("gamma2")
    first, again = has_ts_polymorphism(gamma1, 2), has_ts_polymorphism(gamma1, 2)
    other = has_ts_polymorphism(gamma2, 2)
    assert len(first.entries) == len(other.entries) == 136
    assert all(map(operator.is_, first.entries, again.entries))
    assert all(map(operator.is_, first.entries, other.entries))
    assert first.to_json_dict() == again.to_json_dict()
    # The shared keys stay within TS_TABLE_CAP over many sizes, the
    # largest pair (99,681 keys) pushing the others out.
    sweep = [(m, n) for m in range(1, 40) for n in (1, 2, 3)]
    for m, n in sweep + [(m, m + 1) for m in range(1, 12)]:
        has_ts_polymorphism(binary_structure(m, ()), n)
        assert sum(map(len, _SUBSET_KEYS.values())) <= TS_TABLE_CAP
    big = has_ts_polymorphism(binary_structure(446, ()), 2)
    assert list(_SUBSET_KEYS) == [(446, 2)]
    assert all(map(operator.is_, big.entries, _SUBSET_KEYS[446, 2]))
    has_ts_polymorphism(binary_structure(5, ()), 3)
    assert list(_SUBSET_KEYS) == [(446, 2), (5, 3)]
    has_ts_polymorphism(binary_structure(84, ()), 3)
    assert list(_SUBSET_KEYS) == [(5, 3), (84, 3)]
    assert sum(map(len, _SUBSET_KEYS.values())) <= TS_TABLE_CAP


def test_ts_gamma1_sample_at_arity_4():
    # 2,516 subset variables, more than the default recursion limit.
    b = lab_sample("gamma1")
    table = has_ts_polymorphism(b, 4)
    assert table is not None
    for tuples in b.relations.values():
        for sig in reference_signatures(tuples, 4):
            assert tuple(table.entries[s] for s in sig) in tuples


# ---------------------------------------------------------------------------
# semilattice search


def test_semilattice_min_example():
    b = binary_structure(2, {(0, 0), (0, 1), (1, 1)}, name="R")
    op = find_semilattice(b)
    assert op.table == ((0, 0), (0, 1))
    assert is_idempotent(op) and is_commutative(op) and is_associative(op)
    assert is_polymorphism(op, b)


def test_semilattice_k3_absent():
    assert find_semilattice(complete_graph(3)) is None


def test_semilattice_singleton():
    b = binary_structure(1, {(0, 0)}, name="R")
    op = find_semilattice(b)
    assert op.table == ((0,),)


def test_semilattice_cap():
    with pytest.raises(CapExceeded):
        find_semilattice(binary_structure(7, ()))


def test_semilattice_pair_budget(monkeypatch):
    # The budget counts unordered pairs of distinct tuples, summed over the
    # relations: 6 + 3 here. At 9 the search runs, at 8 it is refused.
    b = FiniteStructure(
        Signature((("R", 2), ("U", 1))),
        3,
        {"R": [(0, 0), (0, 1), (1, 1), (2, 2)], "U": [(0,), (1,), (2,)]},
    )
    monkeypatch.setattr(ordcsp.polymorphism, "DEFAULT_CONSTRAINT_BUDGET", 9)
    op = find_semilattice(b)
    assert op is not None and op == reference_semilattice(b)
    monkeypatch.setattr(ordcsp.polymorphism, "DEFAULT_CONSTRAINT_BUDGET", 8)
    with pytest.raises(CapExceeded) as info:
        find_semilattice(b)
    assert str(info.value) == "semilattice pair budget: 9 tuple pairs > 8"


def test_semilattice_results_always_valid():
    rng = random.Random(9)
    for _ in range(60):
        b = random_binary_structure(rng, max_size=3)
        op = find_semilattice(b)
        if op is not None:
            assert is_idempotent(op)
            assert is_commutative(op)
            assert is_associative(op)
            assert is_polymorphism(op, b)


def test_semilattice_matches_reference_order():
    # Every one-relation structure on 3 elements, then seeded 4-element
    # ones: the search returns the reference's first table, or None.
    structures = list(all_binary_structures(3))
    rng = random.Random(31)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(60):
        density = rng.random()
        tuples = [p for p in pairs if rng.random() < density]
        structures.append(binary_structure(4, tuples))
    found = 0
    for b in structures:
        op = find_semilattice(b)
        assert op == reference_semilattice(b)
        found += op is not None
    assert found >= 100
    assert find_semilattice(complete_graph(5)) is None


def test_semilattice_matches_enumeration_at_5_and_6():
    # Seeded 5-element structures of mixed density, half with a unary
    # relation too, then K6: the search that checks each pair of tuples
    # as its cells fill returns the table that enumerating every
    # semilattice and testing it whole returns first, or None.
    rng = random.Random(41)
    found = 0
    for k in range(40):
        density = rng.random()
        symbols = (("E", 2),) if k % 2 else (("E", 2), ("U", 1))
        pairs = product(range(5), repeat=2)
        relations = {
            "E": [p for p in pairs if rng.random() < density],
            "U": [(i,) for i in range(5) if rng.random() < 0.6],
        }
        b = FiniteStructure(
            Signature(symbols), 5, {name: relations[name] for name, _ in symbols}
        )
        op = find_semilattice(b)
        assert op == enumerated_semilattice(b)
        found += op is not None
    assert 10 <= found <= 30  # 29 of 40
    assert find_semilattice(complete_graph(6)) is None
    assert enumerated_semilattice(complete_graph(6)) is None


# ---------------------------------------------------------------------------
# is_polymorphism


def test_is_polymorphism_counterexample():
    b = binary_structure(2, {(0, 1), (1, 0)}, name="R")
    min_table = BinaryOpTable(2, ((0, 0), (0, 1)))
    assert not is_polymorphism(min_table, b)
    # min folded over subsets is not a polymorphism of K3: (0, 1) and
    # (1, 0) are edges, but their column sets {0, 1} fold to the loop (0, 0).
    min3 = BinaryOpTable(
        3, tuple(tuple(min(x, y) for y in range(3)) for x in range(3))
    )
    assert not is_polymorphism(min_fold_table(min3, 2), complete_graph(3))


def test_is_polymorphism_checks_both_orders_of_a_pair():
    # A non-commutative table sends (0, 1) into U and (1, 0) out of it, its
    # transpose the other way round: each fails on one order of one pair.
    b = FiniteStructure(Signature((("U", 1),)), 3, {"U": {(0,), (1,)}})
    table = ((0, 0, 0), (2, 1, 1), (2, 2, 2))
    for rows in (table, tuple(zip(*table))):
        assert not is_polymorphism(BinaryOpTable(3, rows), b)
    fixed = ((0, 0, 0), (0, 1, 1), (2, 2, 2))
    assert is_polymorphism(BinaryOpTable(3, fixed), b)


def test_is_polymorphism_mismatch():
    with pytest.raises(ValueError):
        is_polymorphism(BinaryOpTable(2, ((0, 0), (0, 1))), complete_graph(3))
    partial = SubsetFunctionTable(2, {frozenset({0}): 0})
    with pytest.raises(ValueError):
        is_polymorphism(partial, complete_graph(2))
    with pytest.raises(TypeError, match="expected an operation table"):
        is_polymorphism(min, complete_graph(2))


# ---------------------------------------------------------------------------
# invariants tying the pieces together


def test_set_hom_induces_ts_function():
    # When the subset structure maps back into B, reading the mapping as a
    # choice function on subsets gives a totally symmetric polymorphism.
    rng = random.Random(21)
    tested = 0
    while tested < 20:
        b = random_binary_structure(rng, max_size=3)
        p = power_structure(b)
        g = hom_exists(p, b)
        if g is None:
            continue
        tested += 1
        masks = [
            frozenset(i for i in range(b.size) if mask >> i & 1)
            for mask in range(1, 2**b.size)
        ]
        for n in (2, 3, 4):
            entries = {}
            for size in range(1, min(n, b.size) + 1):
                for c in combinations(range(b.size), size):
                    entries[frozenset(c)] = g[masks.index(frozenset(c))]
            assert is_polymorphism(SubsetFunctionTable(n, entries), b)


def test_set_hom_iff_ts_at_km():
    rng = random.Random(22)
    for _ in range(40):
        b = random_binary_structure(rng, max_size=3)
        set_hom = hom_exists(power_structure(b), b) is not None
        ts = has_ts_polymorphism(b, 2 * b.size) is not None
        assert set_hom == ts


def test_semilattice_gives_ts_folds():
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        b = random_binary_structure(rng, max_size=3)
        op = find_semilattice(b)
        if op is None:
            continue
        found += 1
        for n in (2, 3, 4):
            fold = min_fold_table(op, n)
            assert is_polymorphism(fold, b)
            assert has_ts_polymorphism(b, n) is not None
    assert found >= 5

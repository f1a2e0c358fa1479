import random
from itertools import combinations, product

import pytest

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
    min_fold_table,
    power_structure,
    preset,
    sample,
)
from ordcsp.polymorphism import TS_TABLE_CAP, SubsetFunctionTable

from conftest import (
    all_binary_structures,
    binary_structure,
    complete_graph,
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
    # Binary structures of 0 to 6 elements, with E(x, x) next to E(x, y),
    # and ones wider than a machine word.
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


def test_power_size_and_cap():
    for m in (1, 2, 3, 4):
        assert power_structure(binary_structure(m, ())).size == 2**m - 1
    with pytest.raises(CapExceeded):
        power_structure(binary_structure(5, ()), cap_bits=4)
    with pytest.raises(ValueError):
        power_structure(binary_structure(0, ()))


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
    assert op.is_idempotent() and op.is_commutative() and op.is_associative()
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


def test_semilattice_results_always_valid():
    rng = random.Random(9)
    for _ in range(60):
        b = random_binary_structure(rng, max_size=3)
        op = find_semilattice(b)
        if op is not None:
            assert op.is_idempotent()
            assert op.is_commutative()
            assert op.is_associative()
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


# ---------------------------------------------------------------------------
# is_polymorphism


def test_is_polymorphism_counterexample():
    b = binary_structure(2, {(0, 1), (1, 0)}, name="R")
    min_table = BinaryOpTable(2, ((0, 0), (0, 1)))
    assert not is_polymorphism(min_table, b)


def test_is_polymorphism_mismatch():
    with pytest.raises(ValueError):
        is_polymorphism(BinaryOpTable(2, ((0, 0), (0, 1))), complete_graph(3))
    partial = SubsetFunctionTable(2, {frozenset({0}): 0})
    with pytest.raises(ValueError):
        is_polymorphism(partial, complete_graph(2))


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

import gc
import random
from itertools import product

import pytest

from ordcsp import (
    FiniteStructure,
    Instance,
    Signature,
    SignatureMismatch,
    VerificationFailed,
    ac,
    ac_roundrobin,
    extract_witness,
    hom_exists,
    power_structure,
    preset,
    sample,
    sample_direct,
    solve,
    verify_assignment,
)
from ordcsp.template import Relation, Template
from ordcsp.formula import TRUE, eq, lt
from ordcsp.solver import BITSET_SIZE, network

from conftest import (
    binary_structure,
    complete_graph,
    covering_tuple,
    random_binary_structure,
    random_instance,
    reference_hom,
    satisfiable_by_weak_order,
    wide_binary_structures,
)


def k4_instance():
    vs = tuple("abcd")
    return Instance(
        vs, tuple(("E", (p, q)) for p in vs for q in vs if p != q)
    )


# ---------------------------------------------------------------------------
# ac


def test_ac_empty_instance():
    accept, h = ac(Instance((), ()), complete_graph(3))
    assert accept and h == {}


def test_ac_k4_k3_accepts():
    accept, h = ac(k4_instance(), complete_graph(3))
    assert accept
    assert all(h[v] == {0, 1, 2} for v in "abcd")
    # ... although no homomorphism exists: arc-consistency is incomplete.
    assert hom_exists(complete_graph(4), complete_graph(3)) is None


def test_ac_rejects_impossible_repeat():
    b = sample_direct(preset("ord3"), 1).structure
    a = Instance(("x",), (("T", ("x", "x", "x")),))
    accept, h = ac(a, b)
    assert not accept
    assert h["x"] == set()


def test_ac_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        ac(Instance(("x",), (("F", ("x", "x")),)), complete_graph(2))


def test_ac_chain_domains():
    b = sample_direct(preset("qlt"), 3).structure
    a = Instance(("x", "y", "z"), (("Lt", ("x", "y")), ("Lt", ("y", "z"))))
    accept, h = ac(a, b)
    assert accept
    assert h == {"x": {0}, "y": {1}, "z": {2}}


def uses_bitsets(b):
    _, _, live, _ = network(("x", "y"), (("E", ("x", "y")),), b)
    return type(live[0]) is tuple


def test_ac_matches_roundrobin_and_is_sound():
    # E(x, y) revises on support bitsets, E(x, x) on tables, and both
    # meet on one variable; structures of 0 to 6 elements, wider than a
    # machine word, and wider than BITSET_SIZE.
    rng = random.Random(31)
    inputs = [(random_binary_structure(rng, 6, min_size=0), 5) for _ in range(300)]
    m = BITSET_SIZE + 1
    tables_only = binary_structure(
        m, {(i, j) for i in range(m) for j in (2 * i % m, (3 * i + 1) % m)}
    )
    wide = wide_binary_structures(rng) + [tables_only]
    assert [uses_bitsets(b) for b in wide] == [True] * 4 + [False]
    inputs += [(b, 4) for b in wide for _ in range(10)]
    both = empty = 0
    for b, max_vars in inputs:
        empty += not b.relations["E"]
        a = random_instance(rng, [("E", 2)], max_vars=max_vars, max_constraints=6)
        loops = {x for _, (x, y) in a.constraints if x == y}
        both += any(x != y and {x, y} & loops for _, (x, y) in a.constraints)
        accept_w, h_w = ac(a, b)
        accept_r, h_r = ac_roundrobin(a, b)
        assert accept_w == accept_r
        assert h_w == h_r
        if not accept_w:
            assert hom_exists(a, b) is None
    assert both >= 30 and empty >= 30


def test_ac_matches_roundrobin_on_template_samples():
    # Ternary relations and interpretation samples, where instances repeat
    # variables inside a constraint; covers the self-requeue of ``ac``.
    rng = random.Random(33)
    samples = [sample(preset("ord3"), n).structure for n in range(2, 6)] + [
        sample(preset(name), n).structure
        for name in ("gamma2", "gamma3")
        for n in (2, 3)
    ]
    repeats = 0
    for _ in range(240):
        b = rng.choice(samples)
        a = random_instance(rng, list(b.signature.symbols))
        repeats += any(len(set(args)) < len(args) for _, args in a.constraints)
        assert ac(a, b) == ac_roundrobin(a, b)
    assert repeats >= 100
    # Samples of 144 elements, whose masks span three machine words.
    for name in ("gamma1", "gamma2"):
        b = sample(preset(name), 6).structure
        for _ in range(6):
            a = random_instance(
                rng, list(b.signature.symbols), max_vars=5, max_constraints=6
            )
            assert ac(a, b) == ac_roundrobin(a, b)


def random_mixed_structure(rng, max_size=3, min_size=1):
    """Up to three relations of arity 1 to 4, each empty about half the
    time, on ``min_size`` to ``max_size`` elements."""
    m = rng.randint(min_size, max_size)
    symbols = tuple(
        (f"R{r}", rng.randint(1, 4)) for r in range(rng.randint(1, 3))
    )
    relations = {}
    for name, arity in symbols:
        density = rng.choice((0.0, rng.random()))
        relations[name] = frozenset(
            t for t in product(range(m), repeat=arity) if rng.random() < density
        )
    return FiniteStructure(Signature(symbols), m, relations)


def satisfies(a, b, mapping):
    return all(
        tuple(mapping[v] for v in args) in b.relations[rel]
        for rel, args in a.constraints
    )


def test_ac_and_hom_on_mixed_arities():
    # Arities 1 to 4, empty relations and repeated variables: the 1-tuple
    # and empty-table paths of the propagator's filter, against the
    # round-robin scheduler, the reference search and brute force.
    rng = random.Random(36)
    unary = empty = repeats = 0
    for max_size, min_size in [(3, 1)] * 300 + [(6, 0)] * 100:
        b = random_mixed_structure(rng, max_size, min_size)
        a = random_instance(
            rng, list(b.signature.symbols), max_vars=4, max_constraints=5
        )
        unary += any(len(args) == 1 for _, args in a.constraints)
        empty += any(not b.relations[rel] for rel, _ in a.constraints)
        repeats += any(len(set(args)) < len(args) for _, args in a.constraints)
        accept, h = ac(a, b)
        assert (accept, h) == ac_roundrobin(a, b)
        mapping = hom_exists(a, b)
        assert mapping == reference_hom(a, b)
        if mapping is None:
            assert not any(
                satisfies(a, b, dict(zip(a.variables, values)))
                for values in product(range(b.size), repeat=len(a.variables))
            )
        else:
            assert accept and set(mapping) == set(a.variables)
            assert satisfies(a, b, mapping)
    assert unary >= 50 and empty >= 50 and repeats >= 50


def test_ac_sets_off_no_garbage_collection():
    # A revision filters and projects its live tuples in C-level passes
    # that allocate nothing per tuple, so even the 450- and 4,500-tuple
    # tables of this sample revise without setting off a collection.
    b = sample(preset("gamma2"), 5).structure
    assert sorted(map(len, b.relations.values())) == [450, 4500]
    rng = random.Random(30)
    instances = [
        random_instance(rng, list(b.signature.symbols), max_vars=5)
        for _ in range(15)
    ]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        for a in instances:
            ac(a, b)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


def test_ac_domains_never_grow():
    rng = random.Random(32)
    for _ in range(50):
        b = random_binary_structure(rng)
        a = random_instance(rng, [("E", 2)], max_vars=4, max_constraints=5)
        history = []
        ac_roundrobin(a, b, history=history)
        for before, after in zip(history, history[1:]):
            for v in a.variables:
                assert after[v] <= before[v]


def test_accepting_domains_form_subset_structure_hom():
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        b = random_binary_structure(rng, max_size=4)
        if b.size < 1:
            continue
        a = random_instance(rng, [("E", 2)], max_vars=4, max_constraints=4)
        accept, h = ac(a, b)
        if not accept or not a.constraints:
            continue
        checked += 1
        p = power_structure(b)
        index = {
            frozenset(i for i in range(b.size) if mask >> i & 1): pos
            for pos, mask in enumerate(range(1, 2**b.size))
        }
        for rel, args in a.constraints:
            subset_tuple = tuple(index[frozenset(h[v])] for v in args)
            assert subset_tuple in p.relations[rel]
            # same thing, checked directly against the covering rule
            assert covering_tuple(
                b.relations[rel], tuple(frozenset(h[v]) for v in args)
            )


def test_ac_completeness_under_ts():
    rng = random.Random(34)
    qualifying = 0
    for _ in range(200):
        b = random_binary_structure(rng)
        a = random_instance(rng, [("E", 2)], max_vars=5, max_constraints=6)
        if hom_exists(power_structure(b), b) is None:
            continue
        qualifying += 1
        accept, _ = ac(a, b)
        assert accept == (hom_exists(a, b) is not None)
    assert qualifying >= 50


# ---------------------------------------------------------------------------
# solve


def test_solve_rejects_order_cycle():
    qlt = preset("qlt")
    a = Instance(
        ("x", "y", "z"),
        (("Lt", ("x", "y")), ("Lt", ("y", "z")), ("Lt", ("z", "x"))),
    )
    assert not solve(qlt, a).accept


def test_solve_ord3_accepts_with_witness():
    ord3 = preset("ord3")
    a = Instance(("x", "y", "z"), (("T", ("x", "y", "z")),))
    verdict = solve(ord3, a)
    assert verdict.accept
    assert verdict.sample_size == 3
    assert verdict.witness is not None
    assert verify_assignment(ord3, a, verdict.witness)
    assert verdict.witness == {
        v: min(verdict.domains[v]) for v in a.variables
    }


def test_solve_ord3_rejects_repeat():
    a = Instance(("x",), (("T", ("x", "x", "x")),))
    verdict = solve(preset("ord3"), a)
    assert not verdict.accept
    assert verdict.domains is None
    assert verdict.witness is None


def test_solve_empty_instance():
    verdict = solve(preset("qlt"), Instance((), ()))
    assert verdict.accept
    assert verdict.sample_size == 0
    assert verdict.domains == {}


def test_solve_unknown_symbol():
    with pytest.raises(SignatureMismatch):
        solve(preset("qlt"), Instance(("x",), (("Gt", ("x", "x")),)))


def test_solve_interpretation_has_no_witness():
    gamma2 = preset("gamma2")
    a = Instance(("x", "y"), (("S", ("x", "y")),))
    verdict = solve(gamma2, a)
    assert verdict.accept
    assert verdict.witness is None
    assert verdict.domains is not None


def test_solve_agrees_with_weak_order_oracle():
    rng = random.Random(35)
    ord3 = preset("ord3")
    for _ in range(100):
        a = random_instance(
            rng, ord3.signature.symbols, max_vars=5, max_constraints=5
        )
        assert solve(ord3, a).accept == satisfiable_by_weak_order(ord3, a)


def test_verdict_json():
    verdict = solve(
        preset("qlt"),
        Instance(("x", "y"), (("Lt", ("x", "y")),)),
    )
    data = verdict.to_json_dict()
    assert data["accept"] is True
    assert data["sample_size"] == 2
    assert data["domains"] == {"x": [0], "y": [1]}
    assert data["witness"] == {"x": 0, "y": 1}


# ---------------------------------------------------------------------------
# witness extraction and verification


def test_extract_witness_max():
    qlt_max = Template(
        name="qgt",
        kind="direct",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=eq(0, 1),
        relations=(Relation("Lt", 2, lt(0, 1)),),
        semilattice="max",
    )
    a = Instance(("x",), ())
    verdict = solve(qlt_max, a)
    assert verdict.witness == {"x": 0}  # sample has a single element
    a3 = Instance(("x", "y", "z"), ())
    verdict = solve(qlt_max, a3)
    assert verdict.witness == {"x": 2, "y": 2, "z": 2}


def test_extract_witness_verifies_or_raises():
    # ord3's relation is preserved by min but not by max; declaring max is
    # a user error that must surface, never a silent bad witness.
    bad = Template(
        name="bad-ord3",
        kind="direct",
        dimension=1,
        domain_formula=TRUE,
        equality_formula=eq(0, 1),
        relations=preset("ord3").relations,
        semilattice="max",
    )
    a = Instance(("x", "y", "z"), (("T", ("x", "y", "z")),))
    with pytest.raises(VerificationFailed):
        solve(bad, a)


def test_extract_witness_needs_semilattice():
    with pytest.raises(ValueError):
        extract_witness(preset("gamma2"), Instance(("x",), ()), {"x": [0]})


def test_verify_assignment_examples():
    qlt = preset("qlt")
    a = Instance(("x", "y"), (("Lt", ("x", "y")),))
    assert verify_assignment(qlt, a, {"x": 0, "y": 1})
    assert not verify_assignment(qlt, a, {"x": 1, "y": 0})
    ord3 = preset("ord3")
    a = Instance(("x", "y", "z"), (("T", ("x", "y", "z")),))
    assert verify_assignment(ord3, a, {"x": 5, "y": 2, "z": 9})
    with pytest.raises(ValueError):
        verify_assignment(ord3, a, {"x": 5, "y": 2})


def test_verify_assignment_interpretation_points():
    gamma2 = preset("gamma2")
    a = Instance(("x", "y"), (("R", ("x", "y")),))
    assert verify_assignment(gamma2, a, {"x": (0, 0), "y": (0, 5)})
    assert not verify_assignment(gamma2, a, {"x": (0, 5), "y": (0, 0)})
    with pytest.raises(ValueError):
        verify_assignment(gamma2, a, {"x": 0, "y": 1})

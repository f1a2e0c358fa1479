import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ordcsp import (
    CapExceeded,
    EqualityNotCongruence,
    EqualityNotEquivalence,
    FiniteStructure,
    Instance,
    Signature,
    SignatureMismatch,
    VerificationFailed,
    ac,
    ac_roundrobin,
    compile_formula,
    extract_witness,
    hom_exists,
    power_structure,
    preset,
    sample,
    solve,
    verify_assignment,
)
import ordcsp.formula
import ordcsp.sampler
import ordcsp.solver
from ordcsp.template import PRESET_NAMES, Relation, Template
from ordcsp.formula import TRUE, and_, eq, lt
from ordcsp.sampler import representatives
from ordcsp.solver import (
    BITSET_SIZE,
    _chain,
    _union,
    network,
    structure_source,
)
from ordcsp.structures import _mask, _values

from conftest import (
    binary_structure,
    complete_graph,
    covering_tuple,
    digest_histories,
    random_binary_structure,
    random_instance,
    reference_hom,
    satisfiable_by_weak_order,
    wide_binary_structures,
)
from test_formula import formulas


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
    # No variables build no domain, so a target of any size answers.
    for size in (2**63, 2**70, 10**12):
        huge = FiniteStructure(Signature((("E", 2),)), size, {})
        assert ac(Instance((), ()), huge) == (True, {})


def test_ac_k4_k3_accepts():
    accept, h = ac(k4_instance(), complete_graph(3))
    assert accept
    assert all(h[v] == {0, 1, 2} for v in "abcd")
    # ... although no homomorphism exists: arc-consistency is incomplete.
    assert hom_exists(complete_graph(4), complete_graph(3)) is None


def test_ac_on_a_loop_constraint():
    # The projection rule keeps each value of x with a successor and a
    # predecessor in h[x], on the diagonal or not: the swap passes, though
    # it has no loop, and one edge fails.
    a = Instance(("x",), (("E", ("x", "x")),))
    swap = binary_structure(2, {(0, 1), (1, 0)})
    assert ac(a, swap) == ac_roundrobin(a, swap) == (True, {"x": {0, 1}})
    assert hom_exists(a, swap) is None
    edge = binary_structure(2, {(0, 1)})
    assert ac(a, edge) == ac_roundrobin(a, edge) == (False, {"x": set()})


def test_ac_on_a_loop_next_to_an_edge():
    # E(x, x) and E(x, y) share x. E(x, x) takes two passes: 3 has no
    # predecessor, then 2 no successor in h[x]; E(x, y) then leaves y
    # the successors of 0 and 1.
    b = binary_structure(4, {(0, 1), (1, 0), (1, 2), (2, 3)})
    a = Instance(("x", "y"), (("E", ("x", "x")), ("E", ("x", "y"))))
    assert ac(a, b) == ac_roundrobin(a, b) == (True, {"x": {0, 1}, "y": {0, 1, 2}})
    assert hom_exists(a, b) is None


@pytest.mark.parametrize("m", [BITSET_SIZE, BITSET_SIZE + 1])
def test_ac_on_a_loop_on_either_side_of_bitset_size(m):
    # E(x, x) keeps the 3-cycle and the loop on m - 1: 3 and m - 2 have
    # no predecessor, and then 4 none.
    tuples = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (m - 2, m - 1), (m - 1, m - 1)}
    b = binary_structure(m, tuples)
    a = Instance(("x", "y"), (("E", ("x", "x")), ("E", ("x", "y"))))
    kept = {0, 1, 2, m - 1}
    assert ac(a, b) == ac_roundrobin(a, b) == (True, {"x": kept, "y": kept})
    assert hom_exists(a, b) == {"x": m - 1, "y": m - 1}


def test_ac_rejects_impossible_repeat():
    b = sample(preset("ord3"), 1).structure
    a = Instance(("x",), (("T", ("x", "x", "x")),))
    accept, h = ac(a, b)
    assert not accept
    assert h["x"] == set()


def test_ac_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        ac(Instance(("x",), (("F", ("x", "x")),)), complete_graph(2))


def test_ac_chain_domains():
    b = sample(preset("qlt"), 3).structure
    a = Instance(("x", "y", "z"), (("Lt", ("x", "y")), ("Lt", ("y", "z"))))
    accept, h = ac(a, b)
    assert accept
    assert h == {"x": {0}, "y": {1}, "z": {2}}


def test_mask_values_and_unions_round_trip():
    # 0, 2**k - 1 and 2**k on either side of one and two 30-bit int
    # digits, a 64-bit word and BITSET_SIZE, then seeded random masks of
    # up to 4,097 bits.
    rng = random.Random(41)
    masks = [0] + [m for k in (1, 30, 31, 60, 64, 4095, 4096) for m in (2**k - 1, 2**k)]
    masks += [rng.getrandbits(rng.randint(1, 4097)) for _ in range(60)]
    for mask in masks:
        values = list(_values(mask))
        assert values == [a for a in range(mask.bit_length()) if mask >> a & 1]
        assert _mask(_values(mask)) == mask
        size = mask.bit_length() + 1
        assert _union([1 << a for a in range(size)], mask) == mask
        rows = [rng.getrandbits(size) for _ in range(size)]
        expected = 0
        for a in values:
            expected |= rows[a]
        assert _union(rows, mask) == expected
        # A chain's flagged union is the plain OR, either way round.
        chain = random_chain(rng, size)
        flags = (1, -1 if len(set(chain)) > 1 else 1)
        for rows, flag in zip((chain, chain[::-1]), flags):
            assert _chain(rows) == flag
            assert _union(rows, mask, flag) == _union(rows, mask)
    # The flag is set exactly when every consecutive pair is nested: on
    # every list of up to four 2-bit rows, which holds equal and all-zero
    # rows, one row, and lists broken at each position, and on chains
    # broken at their first pair, a middle pair and their last pair.
    lists = [list(rows) for k in range(5) for rows in product(range(4), repeat=k)]
    for k in (0, 30, 62):
        for chain in (random_chain(rng, 64), [(1 << 64) - (1 << a) for a in range(64)]):
            broken = chain[:]
            broken[k + 1] |= ~chain[k] & -~chain[k]
            assert _chain(broken) == _chain(broken[::-1]) == 0
            lists += [broken, broken[::-1]]
    seen = set()
    for rows in lists:
        seen.add(_chain(rows))
        assert _chain(rows) == nesting(rows)
    assert seen == {1, -1, 0}


def random_chain(rng, size):
    """``size`` rows of up to ``size`` bits, each containing the next;
    about half of them equal their predecessor."""
    rows, row = [], rng.getrandbits(size)
    for _ in range(size):
        rows.append(row)
        if rng.random() < 0.5:
            row &= ~(1 << rng.randrange(size))
    return rows


def nesting(rows):
    """1 if each row contains the next, -1 if each is contained in the
    next, 0 otherwise."""
    pairs = list(zip(rows, rows[1:]))
    if all(a | b == a for a, b in pairs):
        return 1
    return -1 if all(a | b == b for a, b in pairs) else 0


def uses_bitsets(b, args=("x", "y")):
    _, _, live, _, _ = network(("x", "y"), (("E", args),), *structure_source(b))
    return type(live[0]) is tuple


def test_network_gives_a_loop_rows_up_to_bitset_size():
    assert uses_bitsets(binary_structure(BITSET_SIZE, {(0, 1)}), ("x", "x"))
    assert not uses_bitsets(binary_structure(BITSET_SIZE + 1, {(0, 1)}), ("x", "x"))


def test_ac_matches_roundrobin_and_is_sound():
    # E(x, y) and E(x, x) revise on support bitsets, and meet on one
    # variable; structures of 0 to 6 elements, wider than a machine word,
    # and wider than BITSET_SIZE, where both revise on tables.
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


def boundary_structure(rng, m):
    """A binary E and a ternary T on ``m`` elements. Each is empty a
    quarter of the time; otherwise it draws 1, 3 or about m/2 tuples per
    element, so propagation prunes little or much."""

    def relation(arity):
        if rng.random() < 0.25:
            return frozenset()
        k = rng.choice((1, 3, m // 2 + 1)) * m
        return frozenset(
            tuple(rng.randrange(m) for _ in range(arity)) for _ in range(k)
        )

    symbols = (("E", 2), ("T", 3))
    return FiniteStructure(Signature(symbols), m, {"E": relation(2), "T": relation(3)})


@pytest.mark.parametrize("m", [1, 2, 29, 30, 31, 59, 60, 61, 63, 64, 65])
def test_ac_and_hom_pinned_across_word_boundaries(m):
    # Targets on either side of one and two 30-bit int digits and of a
    # 64-bit word: ac against the round-robin scheduler, hom_exists
    # against the reference search, on binary and ternary constraints
    # that share variables, repeat them, and use empty relations.
    rng = random.Random(40 + m)
    repeats = empty = rejects = found = 0
    for _ in range(8):
        b = boundary_structure(rng, m)
        for _ in range(6):
            a = random_instance(
                rng, list(b.signature.symbols), max_vars=4, max_constraints=5
            )
            repeats += any(len(set(args)) < len(args) for _, args in a.constraints)
            empty += any(not b.relations[rel] for rel, _ in a.constraints)
            accept, h = ac(a, b)
            assert (accept, h) == ac_roundrobin(a, b)
            rejects += not accept
            assert accept == all(h.values())
            mapping = hom_exists(a, b)
            assert mapping == reference_hom(a, b)
            if mapping is not None:
                found += 1
                assert accept and satisfies(a, b, mapping)
            elif m <= 2:
                assert not any(
                    satisfies(a, b, dict(zip(a.variables, values)))
                    for values in product(range(m), repeat=len(a.variables))
                )
    assert repeats >= 5 and empty >= 5 and rejects >= 5 and found >= 5


ORDERS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def incomparable(rows, k):
    return rows[k] & rows[k + 1] not in (rows[k], rows[k + 1])


def broken_order(tuples, m, k):
    """``tuples`` with the first single pair toggled in row ``k`` or
    ``k + 1`` that leaves forward rows ``k`` and ``k + 1`` unnested
    either way."""
    for r, j in product((k, k + 1), range(m)):
        toggled = tuples ^ {(r, j)}
        if incomparable(ordcsp.solver._supports(toggled, m)[0], k):
            return toggled
    raise AssertionError(f"no toggle breaks rows {k}, {k + 1}")


def order_structures(m):
    """E is <, <=, > or >= on ``m`` elements, whose support rows are all
    nested, and each again with the pair of rows at the start, the
    middle and the end of the list broken, so nested only partway."""
    for order in ORDERS.values():
        tuples = {(a, b) for a in range(m) for b in range(m) if order(a, b)}
        yield binary_structure(m, tuples), True
        for k in sorted({0, (m - 2) // 2, m - 2}) if m > 1 else ():
            yield binary_structure(m, broken_order(tuples, m, k)), False


# ``ac_roundrobin``'s per-sweep snapshots on each m's instances below,
# as ``digest_histories`` writes them: the reference's sweeps are fixed,
# not only its fixpoint.
ORDER_HISTORIES = {
    1: "642332b47ee74ef0",
    2: "d8ce1c85e248a9ca",
    29: "d6bc4b2c27ab7e7b",
    30: "c88a168e8ded9c84",
    31: "9ded1f25fa5ad911",
    59: "8f552e1148df93fe",
    60: "beeaa3a0dcb6eb05",
    61: "d178a559caa8d0a3",
    62: "25c6ad8639474536",
    63: "11bbdf3c3a7411b0",
    64: "91a29ab52bdae698",
    65: "9c7593079872de6f",
}


@pytest.mark.parametrize("m", [1, 2, 29, 30, 31, 59, 60, 61, 62, 63, 64, 65])
def test_ac_and_hom_on_order_relations_and_their_broken_chains(m):
    # Order relations, whose support rows form a chain, and the same with
    # one pair of rows broken: ac against the round-robin scheduler and
    # hom_exists against the reference search, on instances with E(x, x)
    # constraints and chains that prune from both ends.
    rng = random.Random(70 + m)
    loops = rejects = found = pruned = broken = 0
    histories = []
    for b, nested in order_structures(m):
        broken += not nested
        for _ in range(3):
            a = random_instance(rng, [("E", 2)], max_vars=4, max_constraints=4)
            loops += any(x == y for _, (x, y) in a.constraints)
            accept, h = ac(a, b)
            histories.append([])
            assert (accept, h) == ac_roundrobin(a, b, history=histories[-1])
            rejects += not accept
            pruned += accept and any(len(s) < m for s in h.values())
            mapping = hom_exists(a, b)
            assert mapping == reference_hom(a, b)
            if mapping is not None:
                found += 1
                assert accept and satisfies(a, b, mapping)
    assert broken == {1: 0, 2: 4}.get(m, 12)
    assert digest_histories(histories) == ORDER_HISTORIES[m]
    assert loops >= 3 and rejects >= 3 and found >= 3
    assert pruned >= 3 or m <= 2


def acyclic_domains(n, edges):
    """The candidate sets arc consistency leaves for ``x < y`` on every
    edge over n increasing values, or None when the edges have a cycle:
    from the longest edge path into each vertex up to n - 1 minus the
    longest path out of it."""
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for x, y in edges:
        succ[x].append(y)
        indegree[y] += 1
    order = [v for v in range(n) if not indegree[v]]
    for v in order:
        for w in succ[v]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) < n:
        return None
    below, above = [0] * n, [0] * n
    for v in order:
        for w in succ[v]:
            below[w] = max(below[w], below[v] + 1)
    for v in reversed(order):
        for w in succ[v]:
            above[v] = max(above[v], above[w] + 1)
    return [list(range(below[v], n - above[v])) for v in range(n)]


def test_solve_qlt_400_against_an_acyclicity_check():
    # Seeded qlt instances on 400 variables: random ones with n / 2 and
    # 2n constraints, and planted ones whose constraints hold on drawn
    # points; solve accepts iff the Lt edges have no cycle, with the
    # candidate sets between the longest paths in and out.
    qlt, n = preset("qlt"), 400
    names = [f"v{i}" for i in range(n)]
    rng = random.Random(72)
    verdicts = []
    for kind, m in [("random", n // 2), ("random", 2 * n), ("planted", 2 * n)] * 2:
        point = [rng.randrange(n) for _ in range(n)]
        edges = []
        while len(edges) < m:
            x, y = rng.randrange(n), rng.randrange(n)
            if kind == "random" or point[x] < point[y]:
                edges.append((x, y))
        a = Instance(tuple(names), tuple(("Lt", (names[x], names[y])) for x, y in edges))
        verdict = solve(qlt, a)
        expected = acyclic_domains(n, edges)
        assert verdict.accept == (expected is not None)
        if expected is not None:
            assert verdict.domains == dict(zip(names, expected))
            assert verify_assignment(qlt, a, verdict.witness)
        verdicts.append((kind, verdict.accept))
    assert ("random", False) in verdicts and ("random", True) in verdicts
    assert ("planted", True) in verdicts


@pytest.mark.parametrize("name, n, chains", [("qlt", 400, True), ("gamma1", 8, False)])
def test_chains_revise_by_one_row(monkeypatch, name, n, chains):
    # qlt's Lt rows are nested both ways, so solve revises each of its
    # constraints on one row per direction and never ORs rows; no
    # relation of gamma1 at n >= 2 is a chain, so every union ORs them.
    t = preset(name)
    rng = random.Random(f"chains-{name}")
    names = [f"v{i}" for i in range(n)]
    calls = {"union": 0, "or": 0}
    union, flags = ordcsp.solver._union, ordcsp.solver._flags

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(ordcsp.solver, "_union", counted("union", union))
    monkeypatch.setattr(ordcsp.solver, "_flags", counted("or", flags))
    points = representatives(t, n)
    holds = {rel.name: compile_formula(rel.formula) for rel in t.relations}
    verdicts = set()
    for planted in (False, True) * 2:
        chosen = [rng.choice(points) for _ in range(n)]
        constraints = []
        while len(constraints) < 2 * n:
            rel = rng.choice(t.relations)
            args = [rng.randrange(n) for _ in range(rel.arity)]
            if not planted or holds[rel.name](sum((chosen[i] for i in args), ())):
                constraints.append((rel.name, tuple(names[i] for i in args)))
        verdicts.add(solve(t, Instance(tuple(names), tuple(constraints))).accept)
    assert calls["union"] > 0
    assert calls["or"] == (0 if chains else calls["union"])
    assert verdicts == {False, True}


def test_solve_stops_at_the_first_wipe_out(monkeypatch):
    # The cycle a < b < c < a empties a candidate set while Lt(c, d) and
    # Lt(d, a) are still queued. ac resumes propagate until the queue is
    # empty; solve rejects after the one call.
    calls = []
    propagate = ordcsp.solver.propagate

    def spy(*args):
        calls.append(propagate(*args))
        return calls[-1]

    monkeypatch.setattr(ordcsp.solver, "propagate", spy)
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")]
    a = Instance(tuple("abcd"), tuple(("Lt", p) for p in pairs))
    assert solve(preset("qlt"), a) == ordcsp.solver.Verdict(False, 4)
    assert calls == [False]
    calls.clear()
    accept, _ = ac(a, sample(preset("qlt"), 4).structure)
    assert not accept and len(calls) > 1


def test_ac_sets_off_no_garbage_collection():
    # gamma2's binary relations at n=5 (450 and 4,500 pairs on 100
    # elements) revise on support rows, which OR ints and build no tuple.
    # ord3's ternary T at n=12 (1,078 triples) revises by table
    # reduction, whose C-level passes allocate nothing per tuple. Neither
    # sets off a collection.
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    for name, n, sizes in (("gamma2", 5, [450, 4500]), ("ord3", 12, [1078])):
        b = sample(preset(name), n).structure
        assert sorted(map(len, b.relations.values())) == sizes
        rng = random.Random(30)
        instances = [
            random_instance(rng, list(b.signature.symbols), max_vars=5)
            for _ in range(15)
        ]
        gc.collect()
        gc.callbacks.append(count)
        try:
            for a in instances:
                ac(a, b)
        finally:
            gc.callbacks.remove(count)
        assert starts == [], name


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


@pytest.mark.parametrize("constraints", [(), (("Lt", ("x", "y")),)])
def test_solve_rejects_on_an_empty_sample(constraints):
    # No point satisfies the domain formula, so every variable's candidate
    # set starts empty. With no constraint nothing is revised and no
    # revision reports the empty sets; solve must still reject.
    t = Template(
        "empty", "interpretation", 1, lt(0, 0), eq(0, 1),
        (Relation("Lt", 2, lt(0, 1)),),
    )
    verdict = solve(t, Instance(("x", "y"), constraints))
    assert verdict == ordcsp.solver.Verdict(False, 0)


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


def table_path(t, a):
    """What ``solve`` answers, computed on the full sample: ``ac`` on its
    tables, then the witness fold. An error is returned as its type and
    message. The sample's relations come from the rows and tables of
    ``sampler.template_source``, as ``solve``'s do, so this checks
    propagation and not formula evaluation. The checks of that which
    share none of its code are ``test_sampler``'s
    ``test_sample_matches_brute_force`` and ``test_formula``'s
    brute-force tests of ``compile_rows``."""
    try:
        b = sample(t, len(a.variables)).structure
        accept, h = ac(a, b)
        domains = {v: sorted(h[v]) for v in a.variables} if accept else None
        witness = None
        if accept and t.semilattice is not None:
            witness = extract_witness(t, a, domains)
        return accept, b.size, domains, witness
    except Exception as exc:
        return type(exc), str(exc)


def solve_path(t, a):
    try:
        v = solve(t, a)
        return v.accept, v.sample_size, v.domains, v.witness
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def drawn_cases(draw):
    """A direct template or a 2-dimensional interpretation with identity
    equality, of one to three relations of arity 1 to 3, and an instance
    over them. Few variables make repeats such as R(x, x) and T(x, y, x)
    common; a relation no constraint names is common too."""
    direct = draw(st.booleans())
    d = 1 if direct else 2
    arities = draw(st.lists(st.sampled_from([2, 2, 1, 3]), min_size=1, max_size=3))
    relations = tuple(
        Relation(f"R{i}", m, draw(formulas(max_leaves=6, variables=m * d)))
        for i, m in enumerate(arities)
    )
    if direct:
        t = Template(
            "drawn", "direct", 1, TRUE, eq(0, 1), relations,
            draw(st.sampled_from([None, "min", "max"])),
        )
    else:
        domain = draw(st.one_of(st.just(TRUE), formulas(max_leaves=3, variables=2)))
        t = Template(
            "drawn", "interpretation", 2, domain, and_(eq(0, 2), eq(1, 3)),
            relations,
        )
    variables = tuple(f"v{i}" for i in range(draw(st.integers(1, 4 if direct else 3))))
    constraint = st.sampled_from(relations).flatmap(
        lambda rel: st.tuples(
            st.just(rel.name),
            st.tuples(*[st.sampled_from(variables)] * rel.arity),
        )
    )
    constraints = draw(st.lists(constraint, min_size=1, max_size=6))
    return t, Instance(variables, tuple(constraints))


@settings(max_examples=150, deadline=None)
@given(drawn_cases())
def test_solve_equals_the_table_path_on_drawn_templates(case):
    t, a = case
    assert solve_path(t, a) == table_path(t, a)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solve_equals_the_table_path_on_presets(name):
    rng = random.Random(f"solve-{name}")
    t = preset(name)
    top = 8 if t.kind == "direct" else 5
    for _ in range(30):
        a = random_instance(
            rng, t.signature.symbols, max_vars=top, max_constraints=8
        )
        assert solve_path(t, a) == table_path(t, a)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solve_builds_no_sample_structure(monkeypatch, name):
    # Constraints on distinct variables revise on rows built from the
    # formulas, so solve builds no sample structure and no relation table,
    # except ord3's ternary T, which keeps its table.
    t = preset(name)
    rng = random.Random(f"rows-{name}")
    top = 8 if t.kind == "direct" else 5
    cases = []
    while len(cases) < 20:
        a = random_instance(rng, t.signature.symbols, max_vars=top)
        if all(len(set(args)) == len(args) for _, args in a.constraints):
            cases.append((a, table_path(t, a)))

    def refuse(*args):
        raise AssertionError("solve built a sample structure")

    monkeypatch.setattr(FiniteStructure, "__post_init__", refuse)
    arities = []
    compile_table = ordcsp.formula.compile_table
    monkeypatch.setattr(
        ordcsp.sampler,
        "compile_table",
        lambda f, arity, d: arities.append(arity) or compile_table(f, arity, d),
        raising=False,
    )
    for a, expected in cases:
        v = solve(t, a)
        assert (v.accept, v.sample_size, v.domains, v.witness) == expected
    assert set(arities) == ({3} if name == "ord3" else set())


def with_repeats(name, count):
    """Preset ``name`` and ``count`` seeded instances over it, each with
    a constraint whose first two arguments are one variable, such as
    R(x, x) or T(x, x, y)."""
    t = preset(name)
    rng = random.Random(f"repeats-{name}")
    top = 8 if t.kind == "direct" else 5
    cases = []
    for _ in range(count):
        a = random_instance(rng, t.signature.symbols, top, max_constraints=3)
        rel, arity = rng.choice(t.signature.symbols)
        args = [rng.choice(a.variables) for _ in range(arity)]
        args[1] = args[0]
        cases.append(Instance(a.variables, a.constraints + ((rel, tuple(args)),)))
    return t, cases


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solve_equals_the_table_path_on_repeated_variables(name):
    # Every preset relation but gamma1's R_eq_eq is a strict order, on
    # which R(x, x) rejects after one pass per layer of minimal and
    # maximal points.
    t, cases = with_repeats(name, 30)
    assert [solve_path(t, a) for a in cases] == [table_path(t, a) for a in cases]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solve_builds_no_table_for_a_repeated_binary_constraint(monkeypatch, name):
    # R(x, x) revises on R's rows too, so only ord3's ternary T gets a
    # table.
    t, cases = with_repeats(name, 20)
    arities = []
    compile_table = ordcsp.formula.compile_table
    monkeypatch.setattr(
        ordcsp.sampler,
        "compile_table",
        lambda f, arity, d: arities.append(arity) or compile_table(f, arity, d),
    )
    for a in cases:
        solve(t, a)
    assert set(arities) == ({3} if name == "ord3" else set())


@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_solve_answers_past_bitset_size(monkeypatch, name):
    # n = 48 gives 9,216 representatives, past BITSET_SIZE; every binary
    # relation still revises on rows, so no table is built. Each variable
    # is planted on a representative, and its domain must keep that
    # representative's index.
    t = preset(name)
    n = 48
    rng = random.Random(f"planted-{name}")
    reps = representatives(t, n)
    assert len(reps) == 9216 > BITSET_SIZE
    planted = [rng.choice(reps) for _ in range(n)]
    variables = tuple(f"v{i}" for i in range(n))
    constraints = []
    while len(constraints) < 2 * n:
        rel = rng.choice(t.relations)
        i, j = rng.randrange(n), rng.randrange(n)
        if compile_formula(rel.formula)(planted[i] + planted[j]):
            constraints.append((rel.name, (variables[i], variables[j])))
    arities = []
    compile_table = ordcsp.formula.compile_table
    monkeypatch.setattr(
        ordcsp.sampler,
        "compile_table",
        lambda f, arity, d: arities.append(arity) or compile_table(f, arity, d),
    )
    v = solve(t, Instance(variables, tuple(constraints)))
    assert v.accept and v.sample_size == 9216
    for var, p in zip(variables, planted):
        assert reps.index(p) in v.domains[var]
    assert arities == []


def cap_template(kind, wide_arity):
    """A template whose binary relation ``Lt`` the instances use, and
    whose relation ``W`` of arity ``wide_arity`` none does."""
    return Template(
        "caps", kind, 1, TRUE, eq(0, 1),
        (Relation("Lt", 2, lt(0, 1)), Relation("W", wide_arity, lt(0, 1))),
    )


def chain(k):
    vs = tuple(f"v{i}" for i in range(k))
    return Instance(vs, tuple(("Lt", p) for p in zip(vs, vs[1:])))


@pytest.mark.parametrize(
    "kind, k, message",
    [
        ("direct", 11, "grid cap: 11^6 > 1000000"),
        ("interpretation", 22, "table cap: 22^6 > 100000000"),
    ],
)
def test_solve_checks_unused_relations_against_the_table_caps(
    monkeypatch, kind, k, message
):
    # The grid or table cap is checked on every relation before anything
    # is built, so it wins over the network cap.
    t = cap_template(kind, 6)
    with pytest.raises(CapExceeded) as exc:
        solve(t, chain(k))
    assert str(exc.value) == message
    monkeypatch.setattr(ordcsp.solver, "NETWORK_CAP", 10)
    with pytest.raises(CapExceeded) as exc:
        solve(t, chain(k))
    assert str(exc.value) == message


def test_solve_network_cap(monkeypatch):
    monkeypatch.setattr(ordcsp.solver, "NETWORK_CAP", 10)
    assert solve(preset("qlt"), chain(3)).accept
    with pytest.raises(CapExceeded) as exc:
        solve(preset("qlt"), chain(4))
    assert str(exc.value) == "network cap: 4 variables x 4 values > 10"


@pytest.mark.parametrize(
    "equality, error, message",
    [
        (
            TRUE,
            EqualityNotCongruence,
            "relation 'Lt': equal arguments [(0,), (1,)] vs [(0,), (0,)] "
            "disagree",
        ),
        (lt(0, 1), EqualityNotEquivalence, "equality is not reflexive on (0,)"),
    ],
)
def test_solve_checks_the_equality_formula(equality, error, message):
    t = Template(
        "bad-equality", "interpretation", 1, TRUE, equality,
        (Relation("Lt", 2, lt(0, 1)),),
    )
    with pytest.raises(error) as exc:
        solve(t, chain(2))
    assert str(exc.value) == message


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
    with pytest.raises(ValueError, match="'x' has an empty candidate set"):
        extract_witness(preset("qlt"), Instance(("x",), ()), {"x": []})


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

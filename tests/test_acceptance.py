"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime (visible with ``pytest -s`` or in captured output).

Criteria are exact (integer counts, bit-equal maps, zero violations) with
per-criterion wall-clock limits.
"""

import random
import time

import pytest

from ordcsp import (
    ac,
    ac_roundrobin,
    check_aclwalk_lemma,
    check_set_hom_equiv,
    has_ts_polymorphism,
    hom_exists,
    orbit_count,
    power_structure,
    preset,
    sample,
    solve,
    verify_assignment,
)

from conftest import (
    all_binary_structures,
    complete_graph,
    min_closed_structure,
    random_binary_structure,
    random_instance,
    satisfiable_by_weak_order,
)

PRESETS = ("qlt", "ord3", "gamma1", "gamma2", "gamma3")


def report(k, detail, t0, limit):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {k} took {elapsed:.1f}s (limit {limit}s)"
    print(f"[PASS] criterion {k}: {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def ac_pairs():
    """500 seeded random (instance, structure) pairs, |A| <= 6, |B| <= 4."""
    rng = random.Random(20260808)
    pairs = []
    for _ in range(500):
        b = random_binary_structure(rng, max_size=4)
        a = random_instance(rng, [("E", 2)], max_vars=6, max_constraints=8)
        pairs.append((a, b))
    return pairs


def test_criterion_1_orbit_growth():
    t0 = time.time()
    for n in range(1, 6):
        start = time.time()
        assert orbit_count(preset("qlt"), n).class_count == 1
        assert time.time() - start < 60
    for n in range(1, 6):
        start = time.time()
        assert orbit_count(preset("gamma2"), n).class_count == 2 ** (n - 1)
        assert time.time() - start < 60
    for n in range(1, 6):
        start = time.time()
        assert orbit_count(preset("gamma1"), n).class_count >= 2 ** (n - 1)
        assert time.time() - start < 60
    report(
        1,
        "qlt=1, gamma2=2^(n-1) exactly, gamma1>=2^(n-1), n=1..5",
        t0,
        3 * 5 * 60,
    )


def test_criterion_2_subset_hom_vs_ts_equivalence():
    t0 = time.time()
    checked = 0
    for size in (1, 2, 3):
        for b in all_binary_structures(size):
            r = check_set_hom_equiv(b)
            assert r.consistent, (
                f"set-hom/ts disagreement on size {size}: "
                f"{sorted(b.relations['E'])}"
            )
            checked += 1
    assert checked == 2 + 16 + 512
    report(2, f"consistent on all {checked} one-relation structures", t0, 600)


def test_criterion_3_ac_soundness_completeness(ac_pairs):
    t0 = time.time()
    qualifying = 0
    for a, b in ac_pairs:
        accept, _ = ac(a, b)
        hom = hom_exists(a, b) is not None
        if not accept:
            assert not hom, "ac rejected a satisfiable pair"
        if hom_exists(power_structure(b), b) is not None:
            qualifying += 1
            assert accept == hom, "ac incomplete on a qualifying pair"
    report(
        3,
        f"sound on 500 pairs, complete on {qualifying} qualifying pairs",
        t0,
        300,
    )


def test_criterion_4_ac_incompleteness_witness():
    t0 = time.time()
    k3 = complete_graph(3)
    k4 = complete_graph(4)
    vs = tuple("abcd")
    from ordcsp import Instance

    k4_instance = Instance(
        vs, tuple(("E", (p, q)) for p in vs for q in vs if p != q)
    )
    accept, _ = ac(k4_instance, k3)
    assert accept
    assert hom_exists(k4, k3) is None
    assert hom_exists(power_structure(k3), k3) is None
    report(4, "ac accepts K4->K3, hom and subset-hom both absent", t0, 1)


def test_criterion_5_ord3_vs_weak_order_oracle():
    t0 = time.time()
    ord3 = preset("ord3")
    rng = random.Random(5050)
    accepted = 0
    for _ in range(300):
        a = random_instance(
            rng, ord3.signature.symbols, max_vars=6, max_constraints=6
        )
        verdict = solve(ord3, a)
        assert verdict.accept == satisfiable_by_weak_order(ord3, a)
        if verdict.accept:
            accepted += 1
            assert verdict.witness is not None
            assert verify_assignment(ord3, a, verdict.witness)
    report(
        5,
        f"300 instances match the oracle; {accepted} verified witnesses",
        t0,
        120,
    )


def test_criterion_6_interpretations_vs_sampling_oracle():
    t0 = time.time()
    rng = random.Random(6060)
    oracle_samples = {}
    for name in ("gamma2", "gamma3", "gamma1"):
        t = preset(name)
        symbols = t.signature.symbols
        for _ in range(100):
            a = random_instance(rng, symbols, max_vars=4, max_constraints=5)
            verdict = solve(t, a)
            key = (name, len(a.variables) + 2)
            if key not in oracle_samples:
                oracle_samples[key] = sample(t, key[1]).structure
            oracle = hom_exists(a, oracle_samples[key]) is not None
            assert verdict.accept == oracle
    report(
        6, "300 gamma2/gamma3/gamma1 instances match hom at Sample(|A|+2)", t0, 300
    )


def test_criterion_7_sampler_bounds():
    t0 = time.time()
    for name in PRESETS:
        t = preset(name)
        for n in range(1, 5):
            smp = sample(t, n)
            if t.kind == "direct":
                assert smp.structure.size == n
            else:
                d = t.dimension
                assert smp.structure.size <= (d * n) ** d
    report(7, "direct size = n, interpretation size <= (dn)^d, n=1..4", t0, 60)


def test_criterion_8_fixpoint_determinism(ac_pairs):
    t0 = time.time()
    for a, b in ac_pairs:
        accept_w, h_w = ac(a, b)
        accept_r, h_r = ac_roundrobin(a, b)
        assert accept_w == accept_r
        assert h_w == h_r
    report(8, "worklist == round-robin on all 500 pairs (bit-exact)", t0, 300)


def test_criterion_9_alternating_walk_lemma():
    t0 = time.time()
    rng = random.Random(9090)
    for _ in range(200):
        b = min_closed_structure(rng)
        for n in (2, 3):
            assert has_ts_polymorphism(b, n) is not None
            report_n = check_aclwalk_lemma(b, n)
            assert not report_n.violations
    report(9, "zero violations over 200 structures at arities 2 and 3", t0, 300)

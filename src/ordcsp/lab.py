"""Verification lab: finite-structure equivalences, alternating walks,
and growth of distinguishable n-subsets.

``check_set_hom_equiv`` computes two facts independently for a small
structure B -- whether the subset structure of B maps back into B, and
whether B has a totally symmetric polymorphism of arity (max arity) * |B|
-- and reports whether they agree. They provably always do, so a
``consistent = False`` report is a bug detector, not a data state.

``check_aclwalk_lemma`` exercises a second finite consequence of total
symmetry: when R and S are preserved by a totally symmetric operation of
arity n and some alternating closed walk on (R, S) has length exactly 2n,
then R and the converse of S must intersect. One layered search per
start finds both that walk and the shortest one (``find_alternating_walk``).

``orbit_count`` counts, for a template, the isomorphism classes of
induced substructures on n distinct elements. For the built-in templates
qlt, ord3, gamma1 and gamma2 every isomorphism between finite induced
substructures extends to a symmetry of the whole template, so the class
count equals the number of n-subset orbits. The count is reported as
exact when the template's JSON, with the preset's name put in, equals
that preset's stored JSON (``template.PRESETS``): as printed formulas
parse back to themselves, this is equality up to the name, and no
template is built for it. Otherwise it is a lower bound. Classes are
enumerated by levelwise extension from the empty configuration, keeping
one configuration per class. A kept configuration has the values 0..V-1
and grows at each placement of a new point: each joint order type of
its d coordinates and those values, which ``_placements`` lists once,
for each V once per call. The grown configuration moves each old value
to its new rank and inserts the new point. The domain and equality
formulas read only order types, so they are tested on these ranks: the
domain formula on the new point, the equality formula on each old point
followed by it. Of the grown configurations, in sorted order, one with
the raw structure (pair codes in its own point order, the other
relations' tables) of an earlier one is in its class and is not
canonicalized. A grown structure is never built as relation tables: one
generated builder per template's binary formulas, cached on the first of
them (``formula.compile_pair_codes``), gives each ordered pair of points
one int code with a bit per binary relation, and only relations of other
arities go through ``formula.compile_table``.
``canonical_form`` refines colours on those codes to a stable partition
and minimizes over the orderings the partition leaves.
This visits a number of configurations proportional to the number of
classes rather than the number of n-subsets of a sample, which is what
makes counts like n = 5 over a 100-element sample feasible.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass, field
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import attrgetter

from .errors import CapExceeded
from .formula import compile_formula, compile_pair_codes, compile_table
from .polymorphism import (
    BinaryOpTable,
    find_semilattice,
    has_ts_polymorphism,
)
from .powerset import power_structure
from .sampler import _check_equality, _power_exceeds
from .solver import hom_exists
from .structures import FiniteStructure
from .template import INTERPRETATION, PRESETS, Template

EXACT = "exact"
LOWER_BOUND = "lower_bound"
EXACT_PRESETS = frozenset({"qlt", "ord3", "gamma1", "gamma2"})

EQUIV_SIZE_CAP = 3
MAX_ORBIT_N = 7
DEFAULT_ORBIT_BUDGET = 10**7
# Largest n for check_aclwalk_lemma, which walks 2n layers from each start
# element (n = 10^6 took 1.9 s per start on a 2-core Xeon VM).
MAX_WALK_HALF_LENGTH = 10**5


# ---------------------------------------------------------------------------
# Subset-structure equivalence


@dataclass
class EquivReport:
    set_hom: bool
    ts_at_km: bool
    ts_arity: int
    semilattice: BinaryOpTable | None
    consistent: bool


def check_set_hom_equiv(b: FiniteStructure) -> EquivReport:
    """Compare hom(subset structure -> B) with a totally symmetric
    polymorphism search at arity (max arity) * |B|, both exhaustive."""
    if b.size > EQUIV_SIZE_CAP:
        raise CapExceeded(
            f"equivalence check cap: size {b.size} > {EQUIV_SIZE_CAP}"
        )
    arity = max(1, b.max_arity() * b.size)
    set_hom = hom_exists(power_structure(b), b) is not None
    ts = has_ts_polymorphism(b, arity) is not None
    semilattice = find_semilattice(b)
    return EquivReport(set_hom, ts, arity, semilattice, set_hom == ts)


# ---------------------------------------------------------------------------
# Alternating closed walks


@dataclass
class Walk:
    """A closed walk x_0, ..., x_{2n} = x_0 stepping through R at even
    positions and S at odd positions."""

    elements: tuple[int, ...]
    half_length: int = field(init=False)

    def __post_init__(self):
        self.half_length = (len(self.elements) - 1) // 2


def _successors(tuples):
    succ: dict[int, list[int]] = {}
    for a, b in sorted(tuples):
        succ.setdefault(a, []).append(b)
    return succ


def find_alternating_walk(r_tuples, s_tuples, max_half_length: int):
    """Shortest alternating closed walk of length <= 2 * max_half_length,
    or None. Ties break toward the smallest starting element."""
    walks = _walks(_successors(r_tuples), _successors(s_tuples), max_half_length, False)
    return min(walks, key=attrgetter("half_length"), default=None)


def _walks(r_succ, s_succ, n, exact):
    """The ``_closed_walk`` of 2n steps from each element that has an
    R-successor, in ascending order, where there is one."""
    for x0 in sorted(r_succ):
        walk = _closed_walk(x0, r_succ, s_succ, 2 * n, exact)
        if walk is not None:
            yield walk


def _closed_walk(x0, r_succ, s_succ, steps, exact):
    """A closed walk from x0 of exactly ``steps`` steps if ``exact``, else
    the shortest of at most ``steps`` steps; None if there is none.

    Layer i maps each element reached in i steps to the first element of
    layer i - 1 that reached it. The shortest search drops an element
    already reached at an earlier step of the same parity, which makes it
    a breadth-first search over (element, parity) states.
    """
    layers = [{x0: None}]
    reached = (set(), set())  # by parity, for the shortest search
    for step in range(1, steps + 1):
        succ = r_succ if step % 2 else s_succ
        layer = {}
        for u in layers[-1]:
            for v in succ.get(u, ()):
                if v not in layer:
                    layer[v] = u
        if not exact:
            seen = reached[step % 2]
            layer = {v: u for v, u in layer.items() if v not in seen}
            seen.update(layer)
        if not layer:
            return None
        layers.append(layer)
        if step % 2 == 0 and x0 in layer and (step == steps or not exact):
            break
    else:
        return None
    elements = [x0]
    for layer in reversed(layers[1:]):
        elements.append(layer[elements[-1]])
    elements.reverse()
    return Walk(tuple(elements))


@dataclass
class PairCheck:
    r_name: str
    s_name: str
    exact_walk: Walk | None
    shortest_walk: Walk | None
    intersection_nonempty: bool
    violation: bool

    def to_json_dict(self) -> dict:
        data = asdict(self)
        return {"r": data.pop("r_name"), "s": data.pop("s_name"), **data}


@dataclass
class WalkLemmaReport:
    arity: int
    pairs: list[PairCheck] = field(default_factory=list)

    @property
    def violations(self):
        return [p for p in self.pairs if p.violation]

    def to_json_dict(self) -> dict:
        return {
            "arity": self.arity,
            "pairs": [p.to_json_dict() for p in self.pairs],
            "violations": len(self.violations),
        }


def check_aclwalk_lemma(b: FiniteStructure, n: int) -> WalkLemmaReport:
    """For every ordered pair (R, S) of binary relations of ``b``: if an
    alternating closed walk of length exactly 2n exists, R and the
    converse of S must intersect. Requires a verified totally symmetric
    polymorphism of arity n; shorter walks are reported informationally.
    """
    if n > MAX_WALK_HALF_LENGTH:
        raise CapExceeded(f"walk lemma cap: arity {n} > {MAX_WALK_HALF_LENGTH}")
    if has_ts_polymorphism(b, n) is None:
        raise ValueError(
            f"precondition unmet: no totally symmetric polymorphism of "
            f"arity {n}"
        )
    rels = b.relations
    succ = {name: _successors(rels[name]) for name, k in b.signature.symbols if k == 2}
    report = WalkLemmaReport(n)
    for r_name, r_succ in succ.items():
        for s_name, s_succ in succ.items():
            exact = next(_walks(r_succ, s_succ, n, True), None)
            walks = _walks(r_succ, s_succ, n, False)
            shortest = min(walks, key=attrgetter("half_length"), default=None)
            intersects = any((y, x) in rels[s_name] for x, y in rels[r_name])
            report.pairs.append(
                PairCheck(
                    r_name,
                    s_name,
                    exact,
                    shortest,
                    intersects,
                    exact is not None and not intersects,
                )
            )
    return report


# ---------------------------------------------------------------------------
# Canonical forms of small structures


def canonical_form(k: int, relation_tuples):
    """Canonical key of a structure on k points given as a list of
    (arity, tuple set): two structures with the same list of arities get
    the same key iff they are isomorphic.

    Each ordered pair (i, j) gets one int code with a bit per binary
    relation holding on it; the diagonal code (i, i) also gets a bit per
    other relation holding on (i,) * arity. Colours start as the ranks of
    each point's diagonal code and, for each relation of arity above 2,
    how often the point occurs at each position of its tuples. They are
    refined until the partition is stable (colour refinement, as in
    McKay & Piperno, "Practical graph isomorphism II", 2014): each round
    renumbers them by the sorted order of the signatures (colour, sorted
    (colour_j, code_ij, code_ji)), so colours are invariant under
    isomorphism. The key is the least, over orderings
    that list the colour classes in colour order, of the code matrix read
    in that order plus the position-mapped sorted tuples of the relations
    of arity above 2 (unary ones are all in the diagonal bits).
    """
    binary = [tuples for arity, tuples in relation_tuples if arity == 2]
    codes = [0] * (k * k)
    for bit, tuples in enumerate(binary):
        for i, j in tuples:
            codes[i * k + j] |= 1 << bit
    others = [(arity, t) for arity, t in relation_tuples if arity != 2]
    return _canonical_key(k, codes, others, len(binary))


def _canonical_key(k, codes, others, shift):
    """``canonical_form``'s key from the flat k * k pair codes of the
    binary relations and the (arity, tuple set) list of the others, whose
    diagonal bits start at bit ``shift``. Sets those bits in ``codes``."""
    if k == 0:
        return ()
    points = range(k)
    wide = []
    for bit, (arity, tuples) in enumerate(others, shift):
        for i in points:
            if (i,) * arity in tuples:
                codes[i * (k + 1)] |= 1 << bit
        if arity > 2:
            wide.append((arity, tuples))
    rows = [codes[i * k : i * k + k] for i in points]
    columns = [codes[i::k] for i in points]
    start = [(rows[i][i],) for i in points]
    for arity, tuples in wide:
        occurs = [[0] * arity for _ in points]
        for t in tuples:
            for pos, x in enumerate(t):
                occurs[x][pos] += 1
        for i in points:
            start[i] += tuple(occurs[i])
    rank = {s: r for r, s in enumerate(sorted(set(start)))}
    colour = [rank[s] for s in start]
    count = len(rank)
    while count < k:
        # j = i adds (colour_i, code_ii, code_ii), itself an invariant.
        signature = [
            (colour[i], tuple(sorted(zip(colour, rows[i], columns[i]))))
            for i in points
        ]
        rank = {s: r for r, s in enumerate(sorted(set(signature)))}
        colour = [rank[s] for s in signature]
        if len(rank) == count:
            break
        count = len(rank)

    cells: dict = {}
    for i in sorted(points, key=colour.__getitem__):
        cells.setdefault(colour[i], []).append(i)
    best = None
    for parts in product(*map(permutations, cells.values())):
        order = [i for part in parts for i in part]
        key = (tuple([rows[i][j] for i in order for j in order]),)
        if best is not None and key[0] > best[0]:
            continue
        if wide:
            position = [0] * k
            for pos, i in enumerate(order):
                position[i] = pos
            key += tuple(
                tuple(sorted(tuple(position[x] for x in t) for t in tuples))
                for _, tuples in wide
            )
        if best is None or key < best:
            best = key
    return best


def _canonical_all_perms(k: int, relation_tuples):
    """Independent reference canonicalizer: plain minimum over all k!
    orderings (used by the subset-enumeration oracle)."""
    best = None
    for perm in permutations(range(k)):
        encoding = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in tuples))
            for _, tuples in relation_tuples
        )
        if best is None or encoding < best:
            best = encoding
    return best


def subset_class_count(
    structure: FiniteStructure, n: int, budget: int = DEFAULT_ORBIT_BUDGET
) -> int:
    """Brute-force count of induced-substructure classes over all
    n-subsets of a finite structure's domain."""
    from math import comb

    if comb(structure.size, n) > budget:
        raise CapExceeded(
            f"subset enumeration budget: C({structure.size}, {n}) > {budget}"
        )
    rels = [
        (arity, structure.relations[name])
        for name, arity in structure.signature.symbols
    ]
    index_tuples = {
        arity: list(product(range(n), repeat=arity))
        for arity in {a for a, _ in rels}
    }
    forms = set()
    for subset in combinations(range(structure.size), n):
        induced = [
            (
                arity,
                {
                    it
                    for it in index_tuples[arity]
                    if tuple(subset[i] for i in it) in tuples
                },
            )
            for arity, tuples in rels
        ]
        forms.add(_canonical_all_perms(n, induced))
    return len(forms)


# ---------------------------------------------------------------------------
# Orbit growth


@dataclass
class OrbitReport:
    n: int
    class_count: int
    exactness: str


def _placements(v: int, d: int):
    """Each joint order type of a new point's d coordinates and the values
    0..v-1 once, as (the new rank of each value, the point's new ranks).

    The coordinates take a weak order, whose b blocks go in ascending
    order to slots: slot 2g is the gap below value g (or above them all,
    for g = v) and slot 2x + 1 is value x. Blocks may share a gap but not
    a value, so the grid that puts value x at d + x * (d + 1) realises
    each placement.
    """
    out = []
    for blocks in product(range(d), repeat=d):
        b = max(blocks) + 1
        if len(set(blocks)) < b:
            continue
        for slots in combinations_with_replacement(range(2 * v + 1), b):
            if any(s == t and s % 2 for s, t in zip(slots, slots[1:])):
                continue
            # A block ranks above the values below its slot and the blocks
            # before it that lie in gaps.
            rank, gaps = [], 0
            for s in slots:
                rank.append(s // 2 + gaps)
                gaps += 1 - s % 2
            # Value x moves up by the blocks in gaps 0..x.
            old = [x + sum(s <= 2 * x and s % 2 == 0 for s in slots) for x in range(v)]
            out.append((old, tuple(rank[k] for k in blocks)))
    return out


def orbit_count(
    t: Template, n: int, budget: int = DEFAULT_ORBIT_BUDGET
) -> OrbitReport:
    """Count isomorphism classes of induced substructures on n elements.

    Grows one representative configuration per class, level by level; see
    the module docstring for why this matches subset enumeration on the
    homogeneous built-ins and is a lower bound otherwise. Raises
    ``CapExceeded`` past ``MAX_ORBIT_N``, and when the d^d first-level
    patterns, a table's n^arity candidate tuples, the configurations grown
    or the (d + V(d + 1))^d points of the grid that realises the
    placements for V values exceed ``budget``; that grid bounds the
    placements, and is checked once per V. No giant power is computed for
    the comparison. Once the caps that enumerate nothing have passed, an
    interpretation's equality formula is checked as ``sample`` checks it,
    so candidates are compared with a symmetric one.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ORBIT_N:
        raise CapExceeded(f"orbit counting cap: n {n} > {MAX_ORBIT_N}")
    d = t.dimension
    if _power_exceeds(d, d, budget):
        raise CapExceeded(f"orbit counting budget: {d}^{d} patterns > {budget}")
    # A configuration has at most n points, so n^arity bounds every table.
    for rel in t.relations:
        if _power_exceeds(n, rel.arity, budget):
            raise CapExceeded(
                f"orbit counting budget: {n}^{rel.arity} table candidates "
                f"> {budget}"
            )
    if t.kind == INTERPRETATION:
        _check_equality(t)
    dom = compile_formula(t.domain_formula)
    eqf = compile_formula(t.equality_formula)
    codes = compile_pair_codes([r.formula for r in t.relations if r.arity == 2], d)
    tables = [
        (rel.arity, compile_table(rel.formula, rel.arity, d))
        for rel in t.relations
        if rel.arity != 2
    ]
    shift = len(t.relations) - len(tables)

    work = 0
    reps: dict = {(): ()}
    placements: dict = {}
    for _level in range(n):
        candidates = set()
        for config in reps.values():
            # A kept configuration is rank-normalised, with values 0..V-1.
            v = max(map(max, config), default=-1) + 1
            if v not in placements:
                fine = d + v * (d + 1)  # the grid that realises them all
                if _power_exceeds(fine, d, budget):
                    raise CapExceeded(
                        f"orbit counting budget: {fine}^{d} points > {budget}"
                    )
                placements[v] = [pl for pl in _placements(v, d) if dom(pl[1])]
            for old, new in placements[v]:
                # An increasing remap keeps it sorted; stop at a point equal to new.
                grown = []
                for q in (tuple(map(old.__getitem__, p)) for p in config):
                    if eqf(q + new):
                        break
                    grown.append(q)
                else:
                    insort(grown, new)
                    candidates.add(tuple(grown))
        work += len(candidates)
        if work > budget:
            raise CapExceeded(
                f"orbit counting budget: {work} configurations > {budget}"
            )
        # A candidate with the raw structure of an earlier one is in that
        # one's class, which already keeps the earlier or a lesser one.
        reps, raw_seen = {}, set()
        for config in sorted(candidates):
            pair_codes = codes(config)
            r = list(enumerate(config))
            others = [(a, b(r)) for a, b in tables]
            raw = (tuple(pair_codes), *[tuples for _, tuples in others])
            if raw in raw_seen:
                continue
            raw_seen.add(raw)
            key = _canonical_key(len(config), pair_codes, others, shift)
            reps.setdefault(key, config)

    data = t.to_json_dict()
    exact = any({**data, "name": p} == PRESETS[p] for p in EXACT_PRESETS)
    return OrbitReport(n, len(reps), EXACT if exact else LOWER_BOUND)

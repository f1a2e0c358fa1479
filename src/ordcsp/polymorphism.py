"""Searching for well-behaved operations that preserve a structure.

Two searches live here:

* ``has_ts_polymorphism(B, n)`` looks for an n-ary totally symmetric
  polymorphism. Such an operation factors through the set of its
  arguments, so it is stored as a ``SubsetFunctionTable`` mapping each
  non-empty subset of size <= n to a domain element.
* ``find_semilattice(B)`` looks for a binary operation table that is
  idempotent, commutative, associative, and preserves every relation.

The n-th power of a relation with r tuples has r^n tuples, so the TS
constraint set is generated up to column sets: an n-tuple of relation
tuples only constrains the table through the k-tuple of value sets seen
in each column, one int formed once per set of at most n distinct tuples
by a subset-sum. The TS search assigns the subsets met as columns in a
loop over an explicit stack and checks each constraint when its last
subset is assigned: a binary one on masks of allowed values ANDed from
support rows, as in ``solver``, any other by tuple membership.

The semilattice search fills a symmetric table cell by cell the same
way. Each unordered pair of distinct tuples of a relation is filed under
the last cell its image reads and checked when that cell is written
(forward checking, as in Haralick & Elliott, "Increasing tree search
efficiency for constraint satisfaction problems", 1980). Associativity
is checked on the triples through the written cell, and a cell takes
only the values that every relation column holding both its points
allows. A pair (t, t) maps to t on the pinned diagonal, so the first full
table is returned as it stands.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product, repeat
from operator import and_, or_

from .errors import CapExceeded
from .solver import _supports
from .structures import FiniteStructure, _mask

DEFAULT_CONSTRAINT_BUDGET = 10**6
SEMILATTICE_CAP = 6
# Entries of a TS table, the non-empty subsets of size <= n; 562,625 of
# them (150 elements, n = 3) took 2.75 s and 157 MB on a 2-core Xeon VM.
TS_TABLE_CAP = 10**5


@dataclass
class BinaryOpTable:
    """A total binary operation on {0..size-1} as a size x size table."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def apply(self, a: int, b: int) -> int:
        return self.table[a][b]

    def to_json_dict(self) -> dict:
        return {"size": self.size, "table": [list(row) for row in self.table]}


@dataclass
class SubsetFunctionTable:
    """A choice function on non-empty subsets of size <= arity.

    Induces the totally symmetric function
    (x_1, ..., x_arity) -> entries[{x_1, ..., x_arity}].
    """

    arity: int
    entries: dict[frozenset[int], int]

    def to_json_dict(self) -> dict:
        items = sorted(self.entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        return {
            "arity": self.arity,
            "entries": [
                {"subset": sorted(s), "value": v} for s, v in items
            ],
        }


def column_signatures(tuples, m: int, n: int, budget: int, used: int):
    """All k-tuples of column value sets realizable by picking <= n tuples.

    A signature is one int, column i's value set at bits [i*m, (i+1)*m).
    ``layers[j]`` holds the unions of j + 1 distinct tuples taken so far;
    each tuple, in ascending packed order (early unions hold few bits), is
    ORed into every lower layer, top first, so each set is formed once.
    Returns (k lazy iterators of column value masks or [], used plus their
    number); raises CapExceeded once one layer, or all, pass the budget.
    """
    if not tuples:
        return [], used
    k = len(next(iter(tuples)))
    packed = sorted(sum(1 << (i * m + x) for i, x in enumerate(t)) for t in tuples)
    # A least cover takes <= bits - k + 1 tuples: each after the first adds a bit.
    layers = [set() for _ in range(min(n, reduce(or_, packed).bit_count() - k + 1))]
    for p in packed:
        for j in range(len(layers) - 1, 0, -1):
            layers[j].update(map(p.__or__, layers[j - 1]))
            if used + len(layers[j]) > budget:
                raise CapExceeded(f"TS constraint budget {budget} exceeded")
        layers[0].add(p)
    signatures = reduce(set.__ior__, reversed(layers))  # into the top layer
    used += len(signatures)
    if used > budget:
        raise CapExceeded(f"TS constraint budget {budget} exceeded")
    shifted = [map(i.__rrshift__, signatures) for i in range(m, k * m, m)]
    masked = [map(((1 << m) - 1).__and__, c) for c in [signatures, *shifted[:-1]]]
    return masked + shifted[-1:], used  # the last column needs no mask


def _all_subsets(m: int, n: int):
    for size in range(1, min(m, n) + 1):
        for combo in combinations(range(m), size):
            yield frozenset(combo)


# Keys of TS tables by (|B|, min(|B|, n)), in _all_subsets order, so that
# tables of one pair share them. At most TS_TABLE_CAP keys in all, least
# recently used pair dropped first: at that bound 22-26 MB of subsets of up
# to four members, 72 MB of larger ones (CPython 3.11, 216/728-byte sets).
_SUBSET_KEYS: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}


def has_ts_polymorphism(
    b: FiniteStructure, n: int, budget: int = DEFAULT_CONSTRAINT_BUDGET
):
    """Search for an n-ary totally symmetric polymorphism of ``b``.

    Returns a SubsetFunctionTable or None. The variables are the subsets
    met as columns, assigned in (size, members) order by a backtracking
    loop on an explicit stack; singletons try their own element first, so
    idempotent witnesses come out when they exist. A constraint is checked
    once its last variable is assigned: a binary one through that
    variable's mask of allowed values, built on first entry from a diagonal
    mask and the rows ``fwd``/``bwd`` at its partners' values and kept for
    backtracking; any other by tuple membership. Unconstrained entries
    default to the subset's minimum. Tables of one (|B|, n) share keys;
    over ``TS_TABLE_CAP`` entries raise ``CapExceeded`` before any is built.
    """
    if n < 1:
        raise ValueError("arity must be positive")
    m = b.size
    entries, count = 0, 1
    for k in range(1, min(m, n) + 1):
        count = count * (m - k + 1) // k  # C(m, k)
        entries += count
        if entries > TS_TABLE_CAP:
            raise CapExceeded(f"TS table cap: over {TS_TABLE_CAP} subsets")
    pair = m, min(m, n)
    subsets = _SUBSET_KEYS.pop(pair, None) or tuple(_all_subsets(m, n))
    _SUBSET_KEYS[pair] = subsets  # the most recently used pair comes last
    while sum(map(len, _SUBSET_KEYS.values())) > TS_TABLE_CAP:
        del _SUBSET_KEYS[next(iter(_SUBSET_KEYS))]
    if n == 1:
        # The identity is always a unary polymorphism.
        return SubsetFunctionTable(1, dict(zip(subsets, range(m))))

    relations, used = [], 0
    for name, _ in b.signature.symbols:
        tuples = b.relations[name]
        columns, used = column_signatures(tuples, m, n, budget, used)
        relations.append((tuples, columns))
    # A key (size <= n) is met as a column iff it lies in a relation column.
    spans = {_mask(set(c)) for tuples, _ in relations for c in zip(*tuples)}
    masks = list(map(_mask, subsets))
    variables = [s for s in masks if any(s & c == s for c in spans)]
    position = {s: i for i, s in enumerate(variables)}.__getitem__
    # Per variable: binary constraints as a diagonal mask and (row, partners)
    diagonal = [(1 << m) - 1] * len(variables)
    pairs, wide = [[] for _ in variables], [[] for _ in variables]
    for tuples, columns in relations:
        at = defaultdict(list)
        if len(columns) == 2:
            loops = _mask(a for a, c in tuples if a == c)
            for a, c in zip(*map(map, repeat(position), columns)):
                if a < c:
                    at[c, 0].append(a)  # (value[a], x) in R: x in fwd[value[a]]
                elif a > c:
                    at[a, 1].append(c)
                else:
                    diagonal[a] &= loops
            rows = _supports(tuples, m)
            for (i, side), partners in at.items():
                pairs[i].append((rows[side].__getitem__, partners))
            continue
        for sig in zip(*map(map, repeat(position), columns)):
            at[max(sig)].append(sig)
        for i, sigs in at.items():  # the others as (membership, columns)
            wide[i].append((tuples.__contains__, list(zip(*sigs))))
    own = [[x, *range(x), *range(x + 1, m)] for x in range(m)]
    candidates = [
        range(m) if s & (s - 1) else own[s.bit_length() - 1] for s in variables
    ]

    value = [0] * len(variables)  # assigned element per variable
    get = value.__getitem__
    allowed = diagonal[:]
    tried = [0] * len(variables)  # candidates of variable i tried so far
    i = 0
    while 0 <= i < len(variables):
        if not tried[i]:
            allowed[i] = diagonal[i]
            for row, partners in pairs[i]:
                allowed[i] = reduce(and_, map(row, map(get, partners)), allowed[i])
        for k in range(tried[i], m):
            value[i] = candidates[i][k]
            if allowed[i] >> value[i] & 1 and all(
                all(map(holds, zip(*map(map, repeat(get), idx))))
                for holds, idx in wide[i]
            ):
                tried[i] = k + 1
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
    if i < 0:
        return None
    got = dict(zip(variables, value))
    return SubsetFunctionTable(
        n, {s: got[x] if x in got else min(s) for x, s in zip(masks, subsets)}
    )


def is_polymorphism(op, b: FiniteStructure) -> bool:
    """Check whether an operation table preserves every relation of ``b``.

    Accepts a BinaryOpTable (checked over all ordered pairs of relation
    tuples) or a SubsetFunctionTable (the induced totally symmetric
    function checked at the table's declared arity, via column-set
    signatures).
    """
    if isinstance(op, BinaryOpTable):
        if op.size != b.size:
            raise ValueError(
                f"operation on {op.size} elements, structure has {b.size}"
            )
        table = op.table
        for name, _ in b.signature.symbols:
            tuples = b.relations[name]
            for t1, t2 in product(tuples, repeat=2):
                if tuple([table[x][y] for x, y in zip(t1, t2)]) not in tuples:
                    return False
        return True
    if isinstance(op, SubsetFunctionTable):
        needed = set(_all_subsets(b.size, op.arity))
        missing = needed - set(op.entries)
        if missing:
            raise ValueError(
                f"table is missing {len(missing)} subsets of size "
                f"<= {op.arity}"
            )
        by_mask = {_mask(s): v for s, v in op.entries.items()}
        for name, _ in b.signature.symbols:
            tuples = b.relations[name]
            columns, _ = column_signatures(
                tuples, b.size, op.arity, DEFAULT_CONSTRAINT_BUDGET, 0
            )
            for sig in zip(*columns):
                if tuple(by_mask[s] for s in sig) not in tuples:
                    return False
        return True
    raise TypeError(f"expected an operation table, got {type(op)!r}")


def _associative_at(t, x, y) -> bool:
    """False if (ab)c and a(bc) are both filled in and differ for a triple
    whose product ab or (ab)c reads the cell (x, y) or (y, x) just written.

    Called with every earlier cell passing. In a symmetric table the
    triple (c, b, a) states the same equation as (a, b, c), and has ab or
    (ab)c on the cell where (a, b, c) has bc or a(bc) there. So these
    cover every triple that reads the cell, the only ones that can have
    become decided and wrong.
    """
    rng = range(len(t))
    v = t[x][y]
    for a, b in ((x, y), (y, x)):
        ra = t[a]
        for c in rng:
            bc, vc = t[b][c], t[v][c]  # (ab)c = vc against a(bc)
            if bc is not None and vc is not None and ra[bc] not in (None, vc):
                return False
    for p in rng:
        rp = t[p]
        for q in rng:
            w = rp[q]
            if w == x:
                z = y
            elif w == y:
                z = x
            else:
                continue
            qz = t[q][z]  # (pq)z = wz = v against p(qz)
            if qz is not None and rp[qz] not in (None, v):
                return False
    return True


def find_semilattice(b: FiniteStructure):
    """Exhaustive search for a semilattice polymorphism of ``b``.

    A backtracking loop fills the cells above the diagonal of a symmetric
    table, diagonal pinned, in lexicographic order with values ascending,
    writing each to ``t[x][y]`` and ``t[y][x]``. After each write,
    associativity is checked on the triples through the written cell, and
    so is every unordered pair of distinct tuples of a relation whose
    image reads that cell last in that order: the image, ``t[a][c]`` at
    each position, must be in the relation. The table is symmetric and
    idempotent, so these pairs cover all of them, and a full table is a
    polymorphism with no further check. Each cell takes only the values
    that every relation column holding both its points allows, as some
    image reads it there. The result is the first such table in that
    order as a BinaryOpTable, or None. More than
    ``DEFAULT_CONSTRAINT_BUDGET`` pairs, counted before any is filed,
    raise ``CapExceeded``.
    """
    m = b.size
    if m > SEMILATTICE_CAP:
        raise CapExceeded(
            f"semilattice search cap: size {m} > {SEMILATTICE_CAP}"
        )
    relations = [b.relations[name] for name, _ in b.signature.symbols]
    pairs = sum(len(ts) * (len(ts) - 1) // 2 for ts in relations)
    if pairs > DEFAULT_CONSTRAINT_BUDGET:
        raise CapExceeded(
            f"semilattice pair budget: {pairs} tuple pairs > "
            f"{DEFAULT_CONSTRAINT_BUDGET}"
        )
    cells = list(combinations(range(m), 2))
    index = {cell: i for i, cell in enumerate(cells)}
    index.update(((x, x), -1) for x in range(m))  # the diagonal is pinned
    # Position values (a, c) read cell (min, max). Filing images of these
    # shared pairs keeps them small and merges the equal ones: 1,414
    # 5-tuples give 239,988 images, where raw zips took 509 MB.
    cell_of = {(c, a): (a, c) for a, c in index}
    cell_of.update(zip(index, index))
    allowed = [set(range(m)) for _ in cells]
    # checks[i]: (image cells, relation) for the pairs whose last cell is i.
    checks = [[] for _ in cells]
    for ts in relations:
        for column in map(set, zip(*ts)):
            for cell in combinations(sorted(column), 2):
                allowed[index[cell]] &= column
        seen = set()
        for t1, t2 in combinations(ts, 2):
            image = tuple(map(cell_of.__getitem__, zip(t1, t2)))
            if image not in seen:
                seen.add(image)
                checks[max(map(index.__getitem__, image))].append((image, ts))
    values = list(map(sorted, allowed))
    t = [[x if x == y else None for y in range(m)] for x in range(m)]
    tried = [0] * len(cells)  # values of cell i tried so far
    i = 0
    while 0 <= i < len(cells):
        x, y = cells[i]
        for k in range(tried[i], len(values[i])):
            t[x][y] = t[y][x] = values[i][k]
            if all(
                tuple([t[a][c] for a, c in image]) in ts
                for image, ts in checks[i]
            ) and _associative_at(t, x, y):
                tried[i] = k + 1
                i += 1
                break
        else:
            t[x][y] = t[y][x] = None
            tried[i] = 0
            i -= 1
    if i < 0:
        return None
    return BinaryOpTable(m, tuple(map(tuple, t)))

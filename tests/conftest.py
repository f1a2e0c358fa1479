"""Shared builders and independent oracles for the test suite."""

import hashlib
import operator
from functools import lru_cache
from itertools import combinations, product

from ordcsp import FiniteStructure, Instance, Signature
from ordcsp.lab import Walk, _canonical_all_perms
from ordcsp.polymorphism import (
    BinaryOpTable,
    SubsetFunctionTable,
    is_polymorphism,
)


def is_idempotent(op):
    return all(op.table[x][x] == x for x in range(op.size))


def is_commutative(op):
    return all(
        op.table[x][y] == op.table[y][x]
        for x in range(op.size)
        for y in range(op.size)
    )


def is_associative(op):
    t, m = op.table, range(op.size)
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in m for y in m for z in m)


def valid_walk(walk, r_tuples, s_tuples):
    """A closed walk of odd length at least 3, its steps alternately in R
    (from position 0) and S."""
    e = walk.elements
    if len(e) < 3 or len(e) % 2 == 0 or e[0] != e[-1]:
        return False
    return all(
        (e[i], e[i + 1]) in (r_tuples if i % 2 == 0 else s_tuples)
        for i in range(len(e) - 1)
    )


def min_fold_table(op, arity):
    """Fold a binary operation over each subset (any order; for a
    semilattice the result is order-independent)."""
    entries = {}
    for size in range(1, arity + 1):
        for combo in combinations(range(op.size), size):
            acc = combo[0]
            for x in combo[1:]:
                acc = op.apply(acc, x)
            entries[frozenset(combo)] = acc
    return SubsetFunctionTable(arity, entries)


def digest_histories(histories):
    """A short sha256 of ``ac_roundrobin`` histories: each snapshot written
    as its variables' sorted values, in name order."""
    text = repr(
        [[sorted((v, sorted(s)) for v, s in snap.items()) for snap in history]
         for history in histories]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def complete_graph(n):
    return FiniteStructure(
        Signature((("E", 2),)),
        n,
        {"E": frozenset((i, j) for i in range(n) for j in range(n) if i != j)},
    )


def binary_structure(size, tuples, name="E"):
    return FiniteStructure(
        Signature(((name, 2),)), size, {name: frozenset(tuples)}
    )


def random_binary_structure(rng, max_size=4, min_size=1):
    m = rng.randint(min_size, max_size)
    density = rng.random()
    tuples = frozenset(
        (i, j) for i in range(m) for j in range(m) if rng.random() < density
    )
    return binary_structure(m, tuples)


def wide_binary_structures(rng):
    """Four binary structures of 65 to 80 elements, wider than a machine
    word, with 2% to 50% of all pairs."""
    out = []
    for density in (0.02, 0.05, 0.2, 0.5):
        m = rng.randint(65, 80)
        pairs = [(i, j) for i in range(m) for j in range(m)]
        out.append(binary_structure(m, rng.sample(pairs, round(density * m * m))))
    return out


def random_instance(rng, symbols, max_vars=6, max_constraints=8):
    k = rng.randint(1, max_vars)
    variables = tuple(f"v{i}" for i in range(k))
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        name, arity = symbols[rng.randrange(len(symbols))]
        constraints.append(
            (name, tuple(rng.choice(variables) for _ in range(arity)))
        )
    return Instance(variables, tuple(constraints))


def min_closed_structure(rng, max_size=3, max_relations=2):
    """Random binary relations closed under componentwise min, so min is a
    polymorphism and totally symmetric polymorphisms of all arities exist."""
    m = rng.randint(2, max_size)
    n_rel = rng.randint(1, max_relations)
    relations = {}
    symbols = []
    for r in range(n_rel):
        name = f"R{r}"
        symbols.append((name, 2))
        tuples = {
            (i, j)
            for i in range(m)
            for j in range(m)
            if rng.random() < rng.random()
        }
        while True:
            extra = {
                (min(a1, a2), min(b1, b2))
                for (a1, b1) in tuples
                for (a2, b2) in tuples
            } - tuples
            if not extra:
                break
            tuples |= extra
        relations[name] = frozenset(tuples)
    return FiniteStructure(Signature(tuple(symbols)), m, relations)


@lru_cache(maxsize=None)
def weak_orders(k):
    """All surjective rank patterns on k items (total preorders)."""
    out = []
    for ranks in product(range(k), repeat=k):
        if set(ranks) == set(range(max(ranks) + 1)):
            out.append(ranks)
    return tuple(out)


def satisfiable_by_weak_order(template, instance):
    """Direct-template satisfiability oracle: try every weak order of the
    variables and evaluate the defining formulas on the ranks."""
    k = len(instance.variables)
    if k == 0:
        return True
    index = {v: i for i, v in enumerate(instance.variables)}
    formulas = {rel.name: rel.formula for rel in template.relations}
    for ranks in weak_orders(k):
        if all(
            holds(formulas[rel], [ranks[index[v]] for v in args])
            for rel, args in instance.constraints
        ):
            return True
    return False


def all_binary_structures(size):
    """Every structure with one binary relation on a fixed domain size."""
    pairs = [(i, j) for i in range(size) for j in range(size)]
    for bits in range(2 ** len(pairs)):
        tuples = frozenset(
            pairs[i] for i in range(len(pairs)) if bits >> i & 1
        )
        yield binary_structure(size, tuples)


_REFERENCE_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "eq": operator.eq,
    "ne": operator.ne,
    "gt": operator.gt,
    "ge": operator.ge,
}


def holds(f, point):
    """Reference evaluator: walk the formula AST, reading nodes by class
    name and fields, never through ``compile_formula``. It recurses once
    per connective, so chains of ``MAX_DEPTH`` fit the recursion limit."""
    kind = type(f).__name__
    if kind == "Const":
        return f.value
    if kind == "Atom":
        return _REFERENCE_OPS[f.op](point[f.left], point[f.right])
    if kind == "Not":
        return not holds(f.child, point)
    if kind in ("And", "Or"):
        decisive = kind == "Or"
        for child in f.children:
            if holds(child, point) == decisive:
                return decisive
        return not decisive
    raise TypeError(f"not a formula node: {f!r}")


def reference_orbit_count(t, n):
    """``orbit_count``'s levelwise growth with tables read tuple by tuple
    through ``holds`` and classes told apart by ``_canonical_all_perms``:
    keep the least configuration of each class, spread its values d + 1
    apart and add one point anywhere on that grid."""
    d = t.dimension

    def rank(config):
        values = sorted({x for point in config for x in point})
        to = {v: i for i, v in enumerate(values)}
        return tuple(sorted(tuple(to[x] for x in p) for p in config))

    reps = {(): ()}
    for _ in range(n):
        grown = set()
        for config in reps.values():
            values = sorted({x for point in config for x in point})
            spread = {v: d + i * (d + 1) for i, v in enumerate(values)}
            config = [tuple(spread[x] for x in point) for point in config]
            for w in product(range(d + len(values) * (d + 1)), repeat=d):
                if holds(t.domain_formula, w) and not any(
                    holds(t.equality_formula, p + w)
                    or holds(t.equality_formula, w + p)
                    for p in config
                ):
                    grown.add(rank(config + [w]))
        reps = {}
        for config in sorted(grown):
            k = len(config)
            tables = [
                (
                    rel.arity,
                    {
                        ix
                        for ix in product(range(k), repeat=rel.arity)
                        if holds(rel.formula, sum((config[i] for i in ix), ()))
                    },
                )
                for rel in t.relations
            ]
            reps.setdefault(_canonical_all_perms(k, tables), config)
    return len(reps)


def covering_tuple(tuples, subset_tuple) -> bool:
    """Membership rule for the subset structure: each coordinate of each
    subset must be covered by a relation tuple staying inside the subsets."""
    k = len(subset_tuple)
    covered = [set() for _ in range(k)]
    for t in tuples:
        if all(t[i] in subset_tuple[i] for i in range(k)):
            for i in range(k):
                covered[i].add(t[i])
    return all(covered[i] == set(subset_tuple[i]) for i in range(k))


def reference_power_relations(b):
    """The relations of ``power_structure(b)`` by testing every tuple of
    non-empty subsets (numbered by ascending bitmask) with
    ``covering_tuple``."""
    subsets = [
        frozenset(x for x in range(b.size) if mask >> x & 1)
        for mask in range(1, 1 << b.size)
    ]
    return {
        name: frozenset(
            combo
            for combo in product(range(len(subsets)), repeat=arity)
            if covering_tuple(b.relations[name], [subsets[i] for i in combo])
        )
        for name, arity in b.signature.symbols
    }


def reference_signatures(tuples, n):
    """Column-set signatures of every choice of at most n tuples, as
    k-tuples of frozensets, by breadth-first extension."""
    signatures = {tuple(frozenset((x,)) for x in t) for t in tuples}
    frontier = signatures
    for _ in range(n - 1):
        frontier = {
            tuple(col | {x} for col, x in zip(sig, t))
            for sig in frontier
            for t in tuples
        } - signatures
        signatures |= frontier
    return signatures


def reference_ts_entries(b, n):
    """The first TS table of arity n in the search order the package
    promises, or None: subsets met as columns are assigned in (size,
    members) order, singletons try their own element first, and each
    constraint is checked once all of its subsets are assigned. Entries
    no constraint reaches default to the subset's minimum."""
    m = b.size
    subsets = [
        frozenset(c)
        for size in range(1, min(m, n) + 1)
        for c in combinations(range(m), size)
    ]
    if n == 1:
        return {s: min(s) for s in subsets}
    constraints = [
        (sig, tuples)
        for tuples in b.relations.values()
        for sig in reference_signatures(tuples, n)
    ]
    variables = sorted(
        {s for sig, _ in constraints for s in sig},
        key=lambda s: (len(s), sorted(s)),
    )
    assignment = {}

    def search(i):
        if i == len(variables):
            return True
        s = variables[i]
        first = [min(s)] if len(s) == 1 else []
        for value in first + [v for v in range(m) if v not in first]:
            assignment[s] = value
            if all(
                tuple(assignment[c] for c in sig) in tuples
                for sig, tuples in constraints
                if s in sig and all(c in assignment for c in sig)
            ) and search(i + 1):
                return True
        del assignment[s]
        return False

    if not search(0):
        return None
    return {s: assignment.get(s, min(s)) for s in subsets}


def reference_semilattice(b):
    """The first semilattice polymorphism of ``b`` in the order
    ``find_semilattice`` promises, or None: the cells above the diagonal
    take their values in ``product(range(m), repeat=len(cells))`` order,
    cells in lexicographic order, and the first symmetric idempotent table
    that is associative and preserves every relation is returned."""
    m = b.size
    cells = [(i, j) for i in range(m) for j in range(i + 1, m)]
    r = range(m)
    for values in product(r, repeat=len(cells)):
        t = [[i] * m for i in r]
        for (i, j), v in zip(cells, values):
            t[i][j] = t[j][i] = v
        associative = all(
            t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r
        )
        if associative and all(
            tuple(t[x][y] for x, y in zip(t1, t2)) in tuples
            for tuples in b.relations.values()
            for t1, t2 in product(tuples, repeat=2)
        ):
            return BinaryOpTable(m, tuple(map(tuple, t)))
    return None


def _associative_so_far(t) -> bool:
    """False if (xy)z and x(yz) are both filled in and differ somewhere."""
    rng = range(len(t))
    for x in rng:
        for y in rng:
            xy = t[x][y]
            if xy is None:
                continue
            for z in rng:
                yz = t[y][z]
                if yz is None:
                    continue
                left, right = t[xy][z], t[x][yz]
                if left is not None and right is not None and left != right:
                    return False
    return True


def enumerated_semilattice(b):
    """``reference_semilattice`` by backtracking: the cells above the
    diagonal are filled in the same order, values ascending, with the
    whole partial table checked for associativity after each write and
    ``is_polymorphism`` run on each completed table. No preservation check
    prunes the search, so it still runs at 5 and 6 elements, where the
    reference's full product does not."""
    m = b.size
    cells = [(x, y) for x in range(m) for y in range(x + 1, m)]
    t = [[x if x == y else None for y in range(m)] for x in range(m)]
    tried = [0] * len(cells)  # values of cell i tried so far
    i = 0
    while i >= 0:
        if i == len(cells):
            op = BinaryOpTable(m, tuple(map(tuple, t)))
            if is_polymorphism(op, b):
                return op
            i -= 1
            continue
        x, y = cells[i]
        for v in range(tried[i], m):
            t[x][y] = t[y][x] = v
            if _associative_so_far(t):
                tried[i] = v + 1
                i += 1
                break
        else:
            t[x][y] = t[y][x] = None
            tried[i] = 0
            i -= 1
    return None


def reference_hom(a, b):
    """Recursive homomorphism search from an Instance or a structure into
    ``b`` with the package's promised choices: forward checking to a
    fixpoint after each assignment (a repeated variable takes one value
    per tuple), the unassigned variable with fewest values next (ties by
    declaration order), values ascending. Domains are copied at every
    node. Returns the mapping in assignment order, or None."""
    if isinstance(a, Instance):
        variables = list(a.variables)
        constraints = [(b.relations[rel], args) for rel, args in a.constraints]
    else:
        variables = list(range(a.size))
        constraints = [
            (b.relations[rel], t)
            for rel, tuples in a.relations.items()
            for t in tuples
        ]

    def propagate(domains):
        changed = True
        while changed:
            changed = False
            for tuples, args in constraints:
                kept = [
                    t
                    for t in tuples
                    if all(x in domains[v] for v, x in zip(args, t))
                    and all(
                        x == y
                        for v, x in zip(args, t)
                        for w, y in zip(args, t)
                        if v == w
                    )
                ]
                if not kept:
                    return False
                for pos, v in enumerate(args):
                    values = {t[pos] for t in kept}
                    if values != domains[v]:
                        domains[v] = values
                        changed = True
        return True

    def search(domains, mapping):
        if len(mapping) == len(variables):
            return mapping
        var = min(
            (v for v in variables if v not in mapping),
            key=lambda v: (len(domains[v]), variables.index(v)),
        )
        for value in sorted(domains[var]):
            trial = {v: set(d) for v, d in domains.items()}
            trial[var] = {value}
            if propagate(trial):
                found = search(trial, {**mapping, var: value})
                if found is not None:
                    return found
        return None

    domains = {v: set(range(b.size)) for v in variables}
    if not variables:
        return {}
    if not propagate(domains):
        return None
    return search(domains, {})


def _successors(tuples):
    succ: dict[int, list[int]] = {}
    for a, b in sorted(tuples):
        succ.setdefault(a, []).append(b)
    return succ


def reference_alternating_walk(r_tuples, s_tuples, max_half_length: int):
    """The shortest alternating closed walk as ``find_alternating_walk``
    promises it: a breadth-first search over (element, parity) states from
    each element of R or S, ties toward the smallest start."""
    r_succ = _successors(r_tuples)
    s_succ = _successors(s_tuples)
    domain = sorted(
        {x for t in r_tuples for x in t} | {x for t in s_tuples for x in t}
    )
    best = None
    for x0 in domain:
        walk = _bfs_closed_walk(x0, r_succ, s_succ, max_half_length)
        if walk is not None and (
            best is None or len(walk.elements) < len(best.elements)
        ):
            best = walk
    return best


def reference_exact_walk(size, r_tuples, s_tuples, half_length):
    """The exact walk ``check_aclwalk_lemma`` reports: from the first start
    in range(size) that has a closed walk of length 2 * half_length."""
    r_succ = _successors(r_tuples)
    s_succ = _successors(s_tuples)
    for x0 in range(size):
        walk = _exact_closed_walk(x0, r_succ, s_succ, half_length)
        if walk is not None:
            return walk
    return None


def _bfs_closed_walk(x0, r_succ, s_succ, max_half_length):
    start = (x0, 0)
    parents = {start: None}
    frontier = [start]
    depth = 0
    while frontier and depth < 2 * max_half_length:
        depth += 1
        nxt = []
        for state in frontier:
            u, parity = state
            succ = r_succ if parity == 0 else s_succ
            for v in succ.get(u, ()):
                cand = (v, 1 - parity)
                if cand == start:
                    elements = [x0]
                    cur = state
                    while cur is not None:
                        elements.append(cur[0])
                        cur = parents[cur]
                    elements.reverse()
                    return Walk(tuple(elements))
                if cand not in parents:
                    parents[cand] = state
                    nxt.append(cand)
        frontier = nxt
    return None


def _exact_closed_walk(x0, r_succ, s_succ, half_length):
    """A closed walk from x0 of length exactly 2 * half_length, or None."""
    layers = [{x0: None}]
    for step in range(2 * half_length):
        succ = r_succ if step % 2 == 0 else s_succ
        nxt = {}
        for u in layers[-1]:
            for v in succ.get(u, ()):
                if v not in nxt:
                    nxt[v] = u
        if not nxt:
            return None
        layers.append(nxt)
    if x0 not in layers[-1]:
        return None
    elements = [x0]
    cur = x0
    for step in range(2 * half_length, 0, -1):
        cur = layers[step][cur]
        elements.append(cur)
    elements.reverse()
    return Walk(tuple(elements))

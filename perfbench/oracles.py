"""Expected outputs from code other than the code under test.

Every operation's output goes through ``Oracle.check``, which returns None
when the output is right and a one-line reason when it is not. The sources:

* qlt: an instance is satisfiable iff its ``Lt`` graph is acyclic;
* ord3: min-peeling (put every variable that is not the first argument of
  a live constraint at the bottom, drop the constraints that satisfies,
  repeat), exact because min is a polymorphism;
* planted instances must be accepted; returned witnesses are checked
  tuple by tuple against the relations' meaning;
* interpretations: ``ac_roundrobin`` on the sample gives verdict and
  domains;
* ``orbit_count``: counts known in closed form (qlt, ord3: 1; gamma2,
  gamma3: 2^(n-1)) or by enumerating pairs of weak orders (gamma1);
* subset structure: recomputed here from bitmasks; hom mappings checked
  tuple by tuple; hom(subsets -> B) must agree with the TS search at
  arity (max arity)*|B| on the same structure, and with what is known:
  min-closed structures and qlt/ord3 samples have both, K3 and K4 neither;
* TS tables checked on every column signature, semilattice tables on
  their axioms and every pair of tuples, walks step by step.
"""

from __future__ import annotations

from itertools import combinations, product

DIRECT_MEANING = {
    "Lt": lambda x, y: x < y,
    "T": lambda x, y, z: x > y or x > z,
}


def qlt_satisfiable(spec) -> bool:
    succ = {v: set() for v in spec.variables}
    indegree = {v: 0 for v in spec.variables}
    for _, (x, y) in spec.constraints:
        if x == y:
            return False
        if y not in succ[x]:
            succ[x].add(y)
            indegree[y] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen == len(spec.variables)


def ord3_satisfiable(spec) -> bool:
    live = [args for _, args in spec.constraints]
    remaining = set(spec.variables)
    while remaining:
        bottom = remaining - {x for x, _, _ in live}
        if not bottom:
            return False
        remaining -= bottom
        live = [(x, y, z) for x, y, z in live if y not in bottom and z not in bottom]
    return True


DIRECT_ORACLE = {"qlt": qlt_satisfiable, "ord3": ord3_satisfiable}


def weak_orders(k):
    """Surjective rank vectors on k items."""
    return [
        r for r in product(range(k), repeat=k) if set(r) == set(range(max(r) + 1))
    ]


def gamma1_classes(n) -> int:
    """n-sets of points of Q^2 up to order-automorphisms of each coordinate:
    pairs of weak orders with distinct points, modulo relabelling."""
    orders = weak_orders(n)
    forms = set()
    for xs in orders:
        for ys in orders:
            points = set(zip(xs, ys))
            if len(points) == n:
                forms.add(tuple(sorted(points)))
    return len(forms)


def _bits(values) -> int:
    out = 0
    for x in values:
        out |= 1 << x
    return out


def power_relations(b) -> dict:
    """Subset structure of ``b``: element i is the subset with bitmask i+1."""
    masks = range(1, 1 << b.size)
    out = {}
    for name, arity in b.signature.symbols:
        tuples = list(b.relations[name])
        members = set()
        for combo in product(masks, repeat=arity):
            covered = [0] * arity
            for t in tuples:
                if all(combo[i] >> t[i] & 1 for i in range(arity)):
                    for i in range(arity):
                        covered[i] |= 1 << t[i]
            if list(combo) == covered:
                members.add(tuple(c - 1 for c in combo))
        out[name] = frozenset(members)
    return out


def column_signatures(tuples, arity: int) -> set:
    """Column-set tuples (as bitmasks) of every choice of 1..arity tuples."""
    tuples = list(tuples)
    frontier = {tuple(1 << x for x in t) for t in tuples}
    seen = set(frontier)
    for _ in range(arity - 1):
        grown = set()
        for sig in frontier:
            for t in tuples:
                ext = tuple(s | 1 << x for s, x in zip(sig, t))
                if ext not in seen:
                    seen.add(ext)
                    grown.add(ext)
        if not grown:
            break
        frontier = grown
    return seen


def semilattice_problem(t, b) -> str | None:
    """What is wrong with the operation table ``t`` (rows) as a
    semilattice polymorphism of ``b``, or None."""
    m = b.size
    r = range(m)
    if len(t) != m or any(len(row) != m for row in t):
        return "has the wrong shape"
    if any(t[x][x] != x for x in r):
        return "is not idempotent"
    if any(t[x][y] != t[y][x] for x in r for y in r):
        return "is not commutative"
    if any(t[t[x][y]][z] != t[x][t[y][z]] for x in r for y in r for z in r):
        return "is not associative"
    for name, tuples in b.relations.items():
        for t1 in tuples:
            for t2 in tuples:
                if tuple(t[x][y] for x, y in zip(t1, t2)) not in tuples:
                    return f"does not preserve {name}"
    return None


def semilattice_exists(b) -> bool:
    """Brute force over all commutative idempotent tables (small b only)."""
    m = b.size
    cells = list(combinations(range(m), 2))
    for values in product(range(m), repeat=len(cells)):
        t = [[x if x == y else None for y in range(m)] for x in range(m)]
        for (x, y), v in zip(cells, values):
            t[x][y] = t[y][x] = v
        if semilattice_problem(t, b) is None:
            return True
    return False


def closed_walk_exists(r_tuples, s_tuples, size, half_length) -> bool:
    for x0 in range(size):
        reach = {x0}
        for step in range(2 * half_length):
            rel = r_tuples if step % 2 == 0 else s_tuples
            reach = {y for x, y in rel if x in reach}
        if x0 in reach:
            return True
    return False


def walk_problem(walk, r_tuples, s_tuples, max_half) -> str | None:
    e = walk.elements
    if len(e) < 3 or len(e) % 2 == 0 or e[0] != e[-1]:
        return f"walk {e} is not closed with even length"
    if (len(e) - 1) // 2 > max_half:
        return f"walk {e} is longer than 2*{max_half}"
    for i in range(len(e) - 1):
        rel = r_tuples if i % 2 == 0 else s_tuples
        if (e[i], e[i + 1]) not in rel:
            return f"walk {e} leaves its relation at step {i}"
    return None


class Oracle:
    """Checks outputs; caches expected values that do not depend on the
    operation's output (samples, subset structures, signatures)."""

    def __init__(self, ordcsp):
        self.ordcsp = ordcsp
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check_all(self, done) -> list:
        """One reason or None per (op, output) pair. Outputs that are
        exceptions are not passed in."""
        return [self.check(op, out) for op, out in done]

    def check(self, op, out) -> str | None:
        return getattr(self, "_check_" + op.kind)(op, out)

    def _check_solve(self, op, v):
        spec = op.spec
        t, instance = op.args["template"], op.args["instance"]
        if spec.planted and not v.accept:
            return "planted instance rejected"
        if t.kind == "direct":
            if v.accept != DIRECT_ORACLE[spec.template](spec):
                return f"verdict {v.accept} disagrees with the {spec.template} oracle"
            if v.sample_size != spec.n:
                return f"sample size {v.sample_size} != {spec.n}"
            if not v.accept:
                return None
            w = v.witness
            if w is None or set(w) != set(spec.variables):
                return "accept without a full witness"
            for x, value in w.items():
                if value not in v.domains[x]:
                    return f"witness {x}={value} outside its domain"
            for rel, args in spec.constraints:
                if not DIRECT_MEANING[rel](*(w[x] for x in args)):
                    return f"witness violates {rel}{args}"
            return None
        b = self._memo(
            ("sample", spec.template, spec.n),
            lambda: self.ordcsp.sample(t, spec.n).structure,
        )
        accept, h = self._memo(
            ("roundrobin", id(instance)),
            lambda: self.ordcsp.ac_roundrobin(instance, b),
        )
        if v.accept != accept:
            return f"verdict {v.accept} disagrees with ac_roundrobin"
        if v.sample_size != b.size:
            return f"sample size {v.sample_size} != {b.size}"
        if accept and v.domains != {x: sorted(h[x]) for x in instance.variables}:
            return "domains differ from the ac_roundrobin fixpoint"
        return None

    def _check_orbit(self, op, report):
        name, n = op.spec
        if name in ("qlt", "ord3"):
            expected = 1
        elif name in ("gamma2", "gamma3"):
            expected = 2 ** (n - 1)
        else:
            expected = self._memo(("gamma1", n), lambda: gamma1_classes(n))
        if report.n != n or report.class_count != expected:
            return f"class count {report.class_count} != {expected}"
        return None

    def _check_structure(self, op, out):
        p, mapping, table, lattice = out
        b = op.args["structure"]
        known = op.spec.known
        # hom(P(B) -> B) exists iff B has a TS polymorphism at (max arity)*|B|.
        if (mapping is None) != (table is None):
            return f"hom found={mapping is not None}, TS found={table is not None}"
        if known is not None and (mapping is not None) != known:
            return f"hom and TS found={mapping is not None}, expected {known}"
        return (
            self._power_problem(b, p, mapping)
            or self._ts_problem(b, op.arity, table)
            or self._semilattice_problem(b, lattice, known, mapping is not None)
        )

    def _check_ts(self, op, table):
        if (table is not None) != op.spec.known:
            return f"TS found={table is not None}, expected {op.spec.known}"
        return self._ts_problem(op.args["structure"], op.arity, table)

    def _power_problem(self, b, p, mapping):
        if p.size != (1 << b.size) - 1:
            return f"subset structure has {p.size} elements"
        key = ("power", _structure_key(b))
        if p.relations != self._memo(key, lambda: power_relations(b)):
            return "subset structure relations differ from the recomputation"
        if mapping is None:
            return None
        if set(mapping) != set(range(p.size)) or not all(
            0 <= x < b.size for x in mapping.values()
        ):
            return "mapping is not total on the subset structure"
        for name, tuples in p.relations.items():
            target = b.relations[name]
            for t in tuples:
                if tuple(mapping[x] for x in t) not in target:
                    return f"mapping sends {name}{t} outside {name}"
        return None

    def _ts_problem(self, b, arity, table):
        if table is None:
            return None
        if table.arity != arity:
            return f"table arity {table.arity} != {arity}"
        sigs = self._memo(
            ("sigs", _structure_key(b), arity),
            lambda: {
                name: column_signatures(tuples, arity)
                for name, tuples in b.relations.items()
            },
        )
        entries = {_bits(s): v for s, v in table.entries.items()}
        for name, tuples in b.relations.items():
            for sig in sigs[name]:
                image = tuple(entries.get(s) for s in sig)
                if image not in tuples:
                    return f"TS table sends a {name} signature to {image}"
        return None

    def _semilattice_problem(self, b, lattice, known, set_hom):
        if lattice is not None:
            problem = semilattice_problem(lattice.table, b)
            return f"semilattice table {problem}" if problem else None
        if known:
            return "no semilattice found, but min is one"
        # A semilattice gives TS polymorphisms of every arity, so without
        # hom(P(B) -> B) there is none; otherwise search by brute force.
        if known is False or not set_hom:
            return None
        if self._memo(("semilattice", _structure_key(b)), lambda: semilattice_exists(b)):
            return "no semilattice found, brute force finds one"
        return None

    def _check_walk(self, op, report):
        b = op.args["structure"]
        n = op.arity
        binary = [
            (name, b.relations[name])
            for name, arity in b.signature.symbols
            if arity == 2
        ]
        expected_pairs = [(r, s) for r, _ in binary for s, _ in binary]
        if report.arity != n or [(p.r_name, p.s_name) for p in report.pairs] != expected_pairs:
            return "report does not cover every ordered pair of binary relations"
        rel = dict(binary)
        for p in report.pairs:
            r, s = rel[p.r_name], rel[p.s_name]
            exact = closed_walk_exists(r, s, b.size, n)
            intersects = any((y, x) in s for x, y in r)
            if (p.exact_walk is not None) != exact:
                return f"{p.r_name},{p.s_name}: exact walk found={not exact}"
            if p.intersection_nonempty != intersects:
                return f"{p.r_name},{p.s_name}: intersection flag wrong"
            if p.violation != (exact and not intersects) or p.violation:
                return f"{p.r_name},{p.s_name}: lemma violated"
            for walk in (p.exact_walk, p.shortest_walk):
                if walk is not None:
                    problem = walk_problem(walk, r, s, n)
                    if problem:
                        return problem
            if p.exact_walk is not None and p.exact_walk.half_length != n:
                return f"{p.r_name},{p.s_name}: exact walk has the wrong length"
        return None


def _structure_key(b):
    return (b.size, tuple(sorted((n, tuple(sorted(t))) for n, t in b.relations.items())))

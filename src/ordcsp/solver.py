"""Arc-consistency propagation and the sampling solver.

``ac`` shrinks a per-variable candidate set (the domain map) to the
greatest fixpoint of the projection rule

    h(x_i) := { t[i] : t in R_B, t[j] in h(x_j) for all j }

over all constraints, starting from full domains, and accepts iff every
candidate set stays non-empty. Repeated variables in a constraint
constrain every one of their coordinates through the same set; the rule
does not force equal values across coordinates, which is exactly what
makes the procedure incomplete in general.

``propagate`` reaches that fixpoint on the state ``network`` builds;
``ac``, ``solve`` and ``hom.hom_exists`` share both. ``network`` asks a
relation source for each relation it needs, and the source picks support
bitsets or a table: ``structure_source`` reads a ``FiniteStructure``'s
tuples, and ``sampler.template_source`` builds rows and tables straight
from a template's formulas. A candidate set is an int mask, bit ``a``
set iff ``a`` is a candidate; ``propagate`` has two rules.

* A binary constraint ``R(x, y)`` revises on support bitsets (Lecoutre
  & Vion 2008): ``fwd[a]`` has bit ``b`` set iff ``(a, b)`` is in R, and
  ``bwd[b]`` bit ``a``. ``h[y] &= OR of fwd[a]`` over the bits ``a`` of
  ``h[x]``, then ``h[x] &= OR of bwd[b]`` over the bits ``b`` of the new
  ``h[y]``, each a C-level pass over rows with no scan of tuples and no
  live state to change. ``network`` tests once whether each list of rows
  is a chain, each row containing the next (``x < y``: ``fwd[a]`` is
  every value above ``a``) or each contained in the next (AC-5's
  monotone constraints; Van Hentenryck, Deville & Teng 1992). The OR
  over a chain is one row, that of the lowest or the highest bit.
  ``R(x, x)`` keeps ``m & OR fwd & OR bwd`` over the bits of
  ``m = h[x]``; the requeue rule below repeats that to the fixpoint the
  table rule reaches.
* A constraint given a table (arity other than 2, or a binary relation
  of a structure of more than ``BITSET_SIZE`` elements, whose bitsets
  would cost more words than its sparse tuples) revises by table
  reduction (Ullmann 2007). It keeps the live tuples whose values are
  all in their variables' value sets (each built again only when its
  mask changes) in C-level passes with no Python frame or allocation
  per tuple; each argument variable gets the mask of its positions'
  projections intersected.

Shrunk variables requeue their constraints, a revision's own only if it
shrank a variable the constraint repeats (that set is then narrower than
a projection, so live tuples may have died).

``propagate`` stops when a revision leaves its constraint no support (no
live tuple, or an empty mask under the bitset rule); ``ac`` resumes it
until the queue is empty, and returns sets. ``ac_roundrobin`` is the
reference: it sweeps the projection rule over every constraint in
declaration order until nothing changes. Both run to the fixpoint even
once a set is empty, and the fixpoint is unique, so they return
identical domain maps.

``solve`` ties the pieces together: list the sample's representatives
at the instance's variable count, propagate on them, and -- for direct
templates declaring a semilattice -- extract and verify a concrete
witness by folding min (or max) over each accepted candidate set. It
stops at the first wipe-out, since masks only shrink and a reject
reports no domains, and accepts only at a fixpoint where every mask is
non-empty (an empty sample has no value to revise away). It builds no
``FiniteStructure``: its relations come from
``sampler.template_source``, the builder ``sample`` reads too, and an
unused relation is not built. A binary relation gets rows at any number
of representatives, and a relation of another arity a table. Every
relation is checked against the sample's caps first, then
``NETWORK_CAP``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import compress
from operator import and_, eq, itemgetter, or_

from .errors import CapExceeded, VerificationFailed
from .formula import compile_formula
from .sampler import representatives, template_source
from .structures import FiniteStructure, Instance, _flags, _mask, _values
from .template import Template

# Full-domain values over all variables. qlt at n = 1000, the largest
# preset sample ``solve`` propagates on, takes 10^6; 10^7 are 1.25 MB of mask bits.
NETWORK_CAP = 10**7

# Elements a structure may have for its binary relations to revise on
# support bitsets. Each bitset then spans at most 4096 bits (137 int
# digits), and a relation's two lists at most 4 MB; a wider structure
# keeps tables, on which a sparse relation costs less.
BITSET_SIZE = 4096


def _projection_pass(live, args, h):
    """One sequential sweep of the projection rule over a constraint's
    coordinates. Returns the variables whose sets shrank. ``live``, the
    tuples not yet ruled out, is filtered in place on entry, and again only
    after narrowing a variable the constraint repeats: sets only shrink,
    and narrowing a variable it holds once to its live values kills none."""

    def keep():
        live[:] = [t for t in live if all(t[p] in h[v] for p, v in enumerate(args))]

    keep()
    changed = set()
    for i, var in enumerate(args):
        new = {t[i] for t in live}
        if new != h[var]:
            h[var] = new
            changed.add(var)
            if args.count(var) > 1:
                keep()
    return changed


def _supports(tuples, size):
    """Support bitsets ``(fwd, bwd)`` of a binary relation: bit ``b`` of
    ``fwd[a]`` and bit ``a`` of ``bwd[b]`` are set iff ``(a, b)`` is in it."""
    fwd, bwd = [0] * size, [0] * size
    for a, b in tuples:
        fwd[a] |= 1 << b
        bwd[b] |= 1 << a
    return fwd, bwd


def _union(rows, mask, chain=0):
    """The OR of ``rows[a]`` over the bits ``a`` of ``mask``. On a chain
    (``_chain``) that is one row: the row of the lowest bit when each row
    contains the next (``chain`` 1), of the highest when each is contained
    in the next (-1)."""
    if chain:
        return mask and rows[(mask & -mask if chain > 0 else mask).bit_length() - 1]
    return reduce(or_, compress(rows, _flags(mask)), 0)


def _chain(rows):
    """``_union``'s flag for ``rows``: 1 if each row contains the next, -1
    if each is contained in the next, 0 otherwise."""
    later = rows[1:]
    if all(map(eq, map(and_, rows, later), later)):
        return 1
    return -1 if all(map(eq, map(and_, rows, later), rows)) else 0


def network(variables, constraints, size, relation):
    """The state ``propagate`` works on: each variable's full mask
    ``(1 << size) - 1``, each constraint's argument tuple and live state,
    and the constraints on each variable. A constraint's live state is
    ``relation(rel)``, asked for once per relation name after the cap
    check: a set of tuples, or support bitsets ``(fwd, bwd)``, to which
    each list's ``_chain`` flag is appended, as the relation source
    chose. Raises ``CapExceeded`` when the domains would hold more than
    ``NETWORK_CAP`` values together. A ``range`` of variables is counted
    from its end, as ``len`` fails past sys.maxsize."""
    n = variables.stop if isinstance(variables, range) else len(variables)
    if n * size > NETWORK_CAP:
        raise CapExceeded(f"network cap: {n} variables x {size} values > {NETWORK_CAP}")
    h = dict.fromkeys(variables, (1 << size) - 1)
    args_of = [tuple(args) for _, args in constraints]
    built = {}
    for rel, _ in constraints:
        if rel not in built:
            state = relation(rel)
            if type(state) is tuple:
                state += tuple(map(_chain, state))
            built[rel] = state
    live = [built[rel] for rel, _ in constraints]
    by_var = {v: [] for v in variables}
    for ci, args in enumerate(args_of):
        for v in set(args):
            by_var[v].append(ci)
    return h, args_of, live, by_var


def structure_source(b: FiniteStructure):
    """``network``'s ``size, relation`` for the relations of ``b``: the
    support bitsets of a binary relation on at most ``BITSET_SIZE``
    elements, and the tuples of any other."""
    rels = b.relations

    def relation(name):
        if b.size <= BITSET_SIZE and b.signature.arity(name) == 2:
            return _supports(rels[name], b.size)
        return rels[name]

    return b.size, relation


def propagate(h, args_of, live, by_var, queue, trail, sets):
    """Arc consistency from the constraints in ``queue`` (a deque) to the
    fixpoint, by the module docstring's two rules on the masks in ``h``.
    Every narrowed mask and shrunk live list pushes ``(store, key, old)``
    onto ``trail``, so ``store[key] = old`` undoes it (``hom`` on
    backtracking); an unshrunk list is an equal copy and needs no undo.
    ``sets`` maps a variable to a mask and the membership test of its
    value set, as the table rule last built them; a caller keeps one dict
    per network, so a set is built again only for a changed mask. Returns
    True at the fixpoint, and False as soon as a revision leaves its
    constraint no support, which empties its variables' masks; the
    constraints still queued then stay in ``queue``."""
    queued = set(queue)
    while queue:
        ci = queue.popleft()
        queued.discard(ci)
        args = args_of[ci]
        old = live[ci]
        if type(old) is tuple:
            x, y = args
            fwd, bwd, fchain, bchain = old
            if x == y:
                kept = h[x] & _union(fwd, h[x], fchain) & _union(bwd, h[x], bchain)
                support = ((x, kept),)
            else:
                to = h[y] & _union(fwd, h[x], fchain)
                kept = h[x] & _union(bwd, to, bchain)
                support = ((x, kept), (y, to))
        else:
            gets = [itemgetter(i) for i in range(len(args))]
            for v in args:
                if sets.get(v, (None,))[0] != h[v]:
                    sets[v] = h[v], set(_values(h[v])).__contains__
            tests = [map(sets[v][1], map(g, old)) for v, g in zip(args, gets)]
            kept = live[ci] = list(compress(old, map(all, zip(*tests))))
            if len(kept) < len(old):
                trail.append((live, ci, old))
            support = {}
            for v, g in zip(args, gets):
                column = set(map(g, kept))
                support[v] = support[v] & column if v in support else column
            support = [
                (v, _mask(values))
                for v, values in support.items()
                if len(values) < h[v].bit_count()
            ]
        for v, values in support:
            if values != h[v]:
                trail.append((h, v, h[v]))
                h[v] = values
                repeated = args.count(v) > 1
                for cj in by_var[v]:
                    if cj not in queued and (cj != ci or repeated):
                        queue.append(cj)
                        queued.add(cj)
        if not kept:
            return False
    return True


def ac(instance: Instance, b: FiniteStructure):
    """Worklist arc-consistency with ``propagate``. Returns (accept,
    domain map)."""
    instance.check_against(b.signature)
    accept, h = _fixpoint(instance, structure_source(b))
    return accept, {v: set(_values(m)) for v, m in h.items()}


def _fixpoint(instance, source, resume=True):
    """(accept, domain map) of the instance on the network of ``source``.
    Without ``resume`` it rejects at the first wipe-out, and the domain
    map is not at the fixpoint."""
    h, args_of, live, by_var = network(
        instance.variables, instance.constraints, *source
    )
    # Resume, if asked, after each wipe-out; nothing is undone, so no trail.
    queue, sets = deque(range(len(args_of))), {}
    while queue:
        fixpoint = propagate(h, args_of, live, by_var, queue, deque(maxlen=0), sets)
        if not (fixpoint or resume):
            return False, h
    return all(h.values()), h


def ac_roundrobin(instance: Instance, b: FiniteStructure, history=None):
    """Reference scheduler: sweep all constraints in declaration order
    until nothing changes. Same fixpoint as ``ac``.

    ``history``, when a list, receives a snapshot of the domain map after
    every sweep (for monotonicity checks)."""
    instance.check_against(b.signature)
    constraints = [
        (sorted(b.relations[rel]), args) for rel, args in instance.constraints
    ]
    h = {v: set(range(b.size)) for v in instance.variables}
    if history is not None:
        history.append({v: frozenset(s) for v, s in h.items()})
    changed = True
    while changed:
        changed = False
        for live, args in constraints:
            if _projection_pass(live, args, h):
                changed = True
        if history is not None:
            history.append({v: frozenset(s) for v, s in h.items()})
    return all(h.values()), h


@dataclass(slots=True)
class Verdict:
    """Outcome of a solve run. ``domains`` (sorted candidate lists) is
    present iff accepting; ``witness`` additionally needs a direct
    template with a declared semilattice."""

    accept: bool
    sample_size: int
    domains: dict[str, list[int]] | None = None
    witness: dict[str, int] | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def verify_assignment(t: Template, instance: Instance, assignment) -> bool:
    """Check an assignment of integer points against every constraint's
    defining formula. Direct templates take one integer per variable."""
    for v in instance.variables:
        if v not in assignment:
            raise ValueError(f"assignment is missing variable {v!r}")
    d = t.dimension
    points = {}
    for v, val in assignment.items():
        point = (val,) if isinstance(val, int) else tuple(val)
        if len(point) != d:
            raise ValueError(
                f"variable {v!r}: point {point} has dimension "
                f"{len(point)}, template needs {d}"
            )
        points[v] = point
    for rel_name, args in instance.constraints:
        rel = t.relation(rel_name)
        flat = tuple(x for v in args for x in points[v])
        if not compile_formula(rel.formula)(flat):
            return False
    return True


def extract_witness(t: Template, instance: Instance, domains) -> dict:
    """Fold the declared semilattice operation over each accepted
    candidate set and verify the result. Never returns unverified."""
    if t.semilattice is None:
        raise ValueError(
            "witness extraction needs a direct template with a declared "
            "semilattice"
        )
    fold = min if t.semilattice == "min" else max
    witness = {}
    for v in instance.variables:
        if not domains.get(v):
            raise ValueError(f"variable {v!r} has an empty candidate set")
        witness[v] = fold(domains[v])
    if not verify_assignment(t, instance, witness):
        raise VerificationFailed(
            f"the declared {t.semilattice} fold does not satisfy the "
            f"instance; {t.semilattice} does not preserve the template's "
            f"relations"
        )
    return witness


def solve(t: Template, instance: Instance) -> Verdict:
    """Propagate on the representatives of the sample at the instance's
    variable count, and report.

    An instance with no variables is accepted immediately (sample_size 0).
    """
    instance.check_against(t.signature)
    n = len(instance.variables)
    if n == 0:
        verdict = Verdict(True, 0, {})
        if t.semilattice is not None:
            verdict.witness = {}
        return verdict
    tables = {}
    points = representatives(t, n, tables)
    accept, h = _fixpoint(instance, template_source(t, points, tables), False)
    if not accept:
        return Verdict(False, len(points))
    # Through a set, each list is allocated at its length, not grown.
    domains = {v: sorted(set(_values(h[v]))) for v in instance.variables}
    verdict = Verdict(True, len(points), domains)
    if t.semilattice is not None:
        verdict.witness = extract_witness(t, instance, domains)
    return verdict

"""Arc-consistency propagation and the sampling solver.

``ac`` shrinks a per-variable candidate set (the domain map) to the
greatest fixpoint of the projection rule

    h(x_i) := { t[i] : t in R_B, t[j] in h(x_j) for all j }

over all constraints, starting from full domains, and accepts iff every
candidate set stays non-empty. Repeated variables in a constraint
constrain every one of their coordinates through the same set; the rule
does not force equal values across coordinates, which is exactly what
makes the procedure incomplete in general.

``propagate`` reaches that fixpoint by table reduction (Ullmann 2007), on
the state ``network`` builds; ``ac`` and ``hom.hom_exists`` share both.
Each constraint keeps the tuples of its relation that every current
candidate set still supports. A revision filters that list and projects
it onto each position in C-level passes, with no Python frame and no
allocation per tuple; each argument variable gets its positions'
projections intersected. Shrunk variables requeue their constraints, a
revision's own only if it shrank a variable the constraint repeats (that
set is then narrower than a projection, so live tuples may have died).

``propagate`` stops when a live list empties; ``ac`` resumes it until
the queue is empty. ``ac_roundrobin`` is the reference: it sweeps the
projection rule over every constraint in declaration order until nothing
changes. Both run to the fixpoint even once a set is empty, and the
fixpoint is unique, so they return identical domain maps.

``solve`` ties the pieces together: sample the template at the instance's
variable count, run ac, and -- for direct templates declaring a
semilattice -- extract and verify a concrete witness by folding min (or
max) over each accepted candidate set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from itertools import compress
from operator import itemgetter

from .errors import CapExceeded, VerificationFailed
from .formula import compile_formula
from .sampler import Sample, sample
from .structures import FiniteStructure, Instance
from .template import Template

# Full-domain values over all variables. qlt at n = 1000, the largest
# preset sample ``solve`` builds, takes 10^6; 10^7 take about 0.7 GB.
NETWORK_CAP = 10**7


def _projection_pass(tuples, args, h):
    """One sequential sweep of the projection rule over a constraint's
    coordinates. Returns the variables whose sets shrank."""
    changed = set()
    for i, var in enumerate(args):
        new = set()
        for t in tuples:
            if all(t[p] in h[args[p]] for p in range(len(args))):
                new.add(t[i])
        if new != h[var]:
            h[var] = new
            changed.add(var)
    return changed


def network(variables, constraints, b: FiniteStructure):
    """The state ``propagate`` works on: full domains, each constraint's
    argument tuple and live tuples (its relation in ``b``), and the
    constraints on each variable. Raises ``CapExceeded`` when the domains
    would hold more than ``NETWORK_CAP`` values together. A ``range`` of
    variables is counted from its end, as ``len`` fails past sys.maxsize."""
    count = variables.stop if isinstance(variables, range) else len(variables)
    if count * b.size > NETWORK_CAP:
        raise CapExceeded(
            f"network cap: {count} variables x {b.size} values "
            f"> {NETWORK_CAP}"
        )
    h = {v: set(range(b.size)) for v in variables}
    args_of = [tuple(args) for _, args in constraints]
    live = [b.relations[rel] for rel, _ in constraints]
    by_var = {v: [] for v in variables}
    for ci, args in enumerate(args_of):
        for v in set(args):
            by_var[v].append(ci)
    return h, args_of, live, by_var


def propagate(h, args_of, live, by_var, queue, trail):
    """Table reduction from the constraints in ``queue`` (a deque) to the
    fixpoint. A revision streams each position's membership tests with
    ``map``, joins them with ``zip`` (which reuses its result tuple) and
    keeps the passing tuples with ``compress``. The streams walk one live
    list in lockstep, safely: an unmodified list or frozenset iterates in
    the same order each time. Every narrowed domain and shrunk live list
    pushes ``(store, key, old)`` onto ``trail``, so ``store[key] = old``
    undoes it (``hom`` on backtracking); an unshrunk list is an equal copy
    and needs no undo. Returns True at the fixpoint, and False as soon as
    a revision leaves its live list empty (so the domains of its
    variables); the constraints still queued then stay in ``queue``."""
    queued = set(queue)
    while queue:
        ci = queue.popleft()
        queued.discard(ci)
        args = args_of[ci]
        old = live[ci]
        gets = [itemgetter(i) for i in range(len(args))]
        tests = [map(h[v].__contains__, map(g, old)) for v, g in zip(args, gets)]
        kept = live[ci] = list(compress(old, map(all, zip(*tests))))
        if len(kept) < len(old):
            trail.append((live, ci, old))
        columns = [set(map(g, kept)) for g in gets]
        support = {}
        for v, column in zip(args, columns):
            support[v] = support[v] & column if v in support else column
        for v, values in support.items():
            if len(values) < len(h[v]):
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
    """Worklist arc-consistency by table reduction. Returns (accept,
    domain map)."""
    instance.check_against(b.signature)
    h, args_of, live, by_var = network(
        instance.variables, instance.constraints, b
    )
    # Resume after each emptied live list; nothing is undone, so no trail.
    queue = deque(range(len(args_of)))
    while queue:
        propagate(h, args_of, live, by_var, queue, deque(maxlen=0))
    accept = all(h[v] for v in instance.variables)
    return accept, h


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
        for tuples, args in constraints:
            if _projection_pass(tuples, args, h):
                changed = True
        if history is not None:
            history.append({v: frozenset(s) for v, s in h.items()})
    accept = all(h[v] for v in instance.variables)
    return accept, h


@dataclass
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
    """Sample at the instance's variable count, propagate, report.

    An instance with no variables is accepted immediately (sample_size 0).
    """
    instance.check_against(t.signature)
    n = len(instance.variables)
    if n == 0:
        verdict = Verdict(True, 0, {})
        if t.semilattice is not None:
            verdict.witness = {}
        return verdict
    smp: Sample = sample(t, n)
    accept, h = ac(instance, smp.structure)
    if not accept:
        return Verdict(False, smp.structure.size)
    domains = {v: sorted(h[v]) for v in instance.variables}
    verdict = Verdict(True, smp.structure.size, domains)
    if t.semilattice is not None:
        verdict.witness = extract_witness(t, instance, domains)
    return verdict


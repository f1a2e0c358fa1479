"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared machine the same Python code runs up to a third slower for
seconds at a time while other tenants load the cores. The benchmark times
``reference`` after every operation; dividing an operation's time by the
ratio of the nearby reference times to ``NOMINAL_S`` reports it at one
fixed machine speed. The loop does what the package's hot paths do most:
iterate tuples, test set membership, look tuples up in a dict.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About what ``reference`` takes between operations on the 2.1 GHz Xeon
# core (Python 3.11) this benchmark was tuned on, at quiet times.
NOMINAL_S = 0.0005
WINDOW = 3  # reference times on each side of an operation

_TUPLES = tuple((i % 7, (i * 3) % 11, (i * 5) % 13) for i in range(500))
_INDEX = {t: i % 5 for i, t in enumerate(_TUPLES)}
_DOMAINS = (frozenset(range(7)), frozenset(range(0, 11, 2)), frozenset(range(1, 13, 2)))


def reference() -> int:
    """Allocates no containers, so it never triggers the garbage collector
    and its time does not depend on the heap the operations left behind."""
    d0, d1, d2 = _DOMAINS
    hits = 0
    for _ in range(8):
        for t in _TUPLES:
            if t[0] in d0 and t[1] in d1 and t[2] in d2:
                hits += _INDEX[t]
            elif t[2] in d2:
                hits -= 1
    return hits


def reference_seconds() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def slowdowns(ref_seconds: list[float]) -> list[float]:
    """Per position, the median of the nearby reference times over
    NOMINAL_S: how much slower than nominal the machine ran there."""
    out = []
    for i in range(len(ref_seconds)):
        window = ref_seconds[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(statistics.median(window) / NOMINAL_S)
    return out

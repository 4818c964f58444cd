"""A fixed reference computation, timed next to every measurement.

On the host this benchmark was written on, the speed of a single-threaded
pass drifted by up to 1.7x over minutes, so runs made a minute apart
disagreed by more than any useful bound.  The same drift hits this
computation, which uses only the standard library and does the kind of work
the package does: it scales sparse ``Fraction`` rows, dedupes them through a
set of tuples and eliminates the integer rows fraction-free.  Dividing a measured
time by the reference time taken around it removes most of the host's drift;
``run.py`` reports times as ``time * REFERENCE_S / reference time``, seconds
on a host where the reference takes ``REFERENCE_S``.

The reference never imports ``postlie``, so a change to the package cannot
change it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

REFERENCE_S = 0.1

_COLS = 48
_rng = random.Random(0)
_ROWS = [
    [
        Fraction(_rng.randint(-3, 3), _rng.randint(1, 4)) if _rng.random() < 0.3 else Fraction(0)
        for _ in range(_COLS)
    ]
    for _ in range(400)
]


def _work() -> int:
    seen = set()
    rows = []
    for row in _ROWS:
        lead = next((x for x in row if x), None)
        if lead is None:
            continue
        scaled = tuple(x / lead for x in row)
        if scaled not in seen:
            seen.add(scaled)
            rows.append(scaled)
    ints = []
    for row in rows[:60]:
        lcm = 1
        for x in row:
            if x:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        ints.append([int(x.numerator * (lcm // x.denominator)) for x in row])
    rank = 0
    for col in range(_COLS):
        k = rank
        while k < len(ints) and ints[k][col] == 0:
            k += 1
        if k == len(ints):
            continue
        ints[rank], ints[k] = ints[k], ints[rank]
        prow = ints[rank]
        for i, row in enumerate(ints):
            a = row[col]
            if i != rank and a:
                new = [prow[col] * u - a * v for u, v in zip(row, prow)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                ints[i] = [x // g for x in new] if g > 1 else new
        rank += 1
        if rank == len(ints):
            break
    return rank


def measure() -> float:
    """Seconds one run of the reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start

"""A fixed probe that measures how fast the machine runs Python right now.

Shared hosts change speed by up to 1.5x for minutes at a time, which swamps
the differences the benchmark is meant to resolve.  Each child times this
probe twice right after its job; the run divides its times by the
median probe time and multiplies by REFERENCE_S, so they read as seconds on
a machine whose probe takes REFERENCE_S.  The probe imports nothing from
poplat, so no change to the program can move it.  Its work mimics the
program's, in about equal shares of time: sorting and indexing thousands of
tuples (carriers and covers), closing and intersecting 4000-bit masks
(closure and validation), and exact Fraction sums (series).  Its working
set is a few megabytes; a cache-sized probe tracked the program's slowdowns
only half as well.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.030  # the probe's median time on a 2-vCPU Xeon VM, Python 3.11


def _tuples() -> int:
    rows = [tuple((i * 7919 + k * 104729) % 9973 for k in range(8)) for i in range(4000)]
    rows.sort()
    index = {row: i for i, row in enumerate(rows)}
    return len(index)


def _bitmasks() -> int:
    n = 4000
    masks = [(1 << i) | (1 << (i * 37 % n)) for i in range(n)]
    for i in range(1, n):
        masks[i] |= masks[i - 1] if i % 3 else masks[i // 2]
    return sum(
        (masks[i] & masks[j]).bit_length()
        for i in range(0, n, 4)
        for j in range(i, n, 97)
    )


def _fractions() -> Fraction:
    total = Fraction(0)
    for _ in range(6):
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    return total


def probe() -> float:
    """Seconds this process takes for the fixed probe work."""
    start = time.perf_counter()
    _tuples()
    _bitmasks()
    _fractions()
    return time.perf_counter() - start

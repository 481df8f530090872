"""Centrally symmetric permutations of [2n]: the signed permutations of rank n.

An element of rank n is a permutation x of {1, ..., 2n} with
x[i] + x[2n+1-i] = 2n+1 at every position (1-based).  Its entries >= n+1
are its large entries: type B reads a type-A word off each maximal block of
consecutive large entries (`large_blocks`), and the small entries, in
position order, are the large ones reversed and complemented
(`complement_reverse`).
"""
from __future__ import annotations

import itertools
import math

from .lattice import last_size_cache
from .words import Word, check_permutation


def validate_signed(word) -> Word:
    """Check the central-symmetry identity; report the first offending index."""
    x = check_permutation(word)
    m = len(x)
    if m % 2 != 0:
        raise ValueError(f"even length required, got {m}")
    for i in range(m // 2):
        if x[i] + x[m - 1 - i] != m + 1:
            raise ValueError(
                f"symmetry violated at i={i + 1}: {x[i]}+{x[m - 1 - i]} != {m + 1}"
            )
    return x


def signed_words(n: int, uppers: list | None = None, ranks: list | None = None) -> list[Word]:
    """All rank-n elements in lexicographic order: at each position of the
    first half, every value whose complementary pair is still free, smallest
    first.  The tests cross-check this against filtering the symmetric group.

    Given lists `uppers` and `ranks`, also fill `ranks` with the ints
    0..2^n n!-1, one object per rank, and append to `uppers` each element's
    signed weak-order upper-cover ranks, drawn from `ranks`, by swapped
    position.  A first half x_0..x_{n-1} has rank sum c_k (n-1-k)! 2^(n-1-k),
    c_k the free values below x_k.  Swapping an ascent a = x_k < b = x_{k+1}
    gives c'_k = c_{k+1} + 1 + [2n+1-a < b] and c'_{k+1} = c_k - [2n+1-b < a];
    the central swap (x_{n-1} <= n) adds 1.
    """
    m = 2 * n
    word, free = [0] * m, [True] * (m + 1)
    weight = [math.factorial(n - 1 - k) << (n - 1 - k) for k in range(n)]
    out: list[Word] = []
    shifts: list[int] = []  # rank shifts of the ascents placed so far
    # one shared int per rank: an int per cover would fragment the heap
    if uppers is not None:
        ranks.extend(range(math.factorial(n) << n))

    def place(k: int, a: int, c: int) -> None:  # a = x_{k-1}, c = c_{k-1}
        if k == n:
            if uppers is not None:  # the central swap is last, when it is an ascent
                uppers.append([ranks[len(out) + s] for s in shifts + [1] * (0 < a <= n)])
            out.append(tuple(word))
            return
        below = 0
        for b in filter(free.__getitem__, range(1, m + 1)):
            free[b] = free[m + 1 - b] = False
            word[k], word[m - 1 - k] = b, m + 1 - b
            ascent = 0 < a < b and uppers is not None
            if ascent:
                shifts.append((below + 1 + (m + 1 - a < b) - c) * weight[k - 1]
                              + (c - (m + 1 - b < a) - below) * weight[k])
            place(k + 1, b, below)
            if ascent:
                shifts.pop()
            free[b] = free[m + 1 - b] = True
            below += 1

    place(0, 0, 0)
    # The recursive closure refers to itself, a cycle that would keep `out`,
    # and every element in it, until the next full collection.
    del place
    return out


@last_size_cache
def enumerate_signed(n: int) -> tuple[Word, ...]:
    """All rank-n elements in lexicographic order (see `signed_words`)."""
    return tuple(signed_words(n))


def complement_reverse(values: Word, two_n: int) -> Word:
    """The mirror image of a block: reversed, each v replaced by 2n+1-v."""
    return tuple(two_n + 1 - v for v in reversed(values))


def large_blocks(x: Word) -> list[Word]:
    """The maximal blocks of consecutive entries >= n+1 of a rank-n x, left
    to right."""
    floor = len(x) // 2 + 1
    return [tuple(block) for large, block in itertools.groupby(x, floor.__le__) if large]

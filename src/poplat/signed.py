"""Centrally symmetric permutations of [2n] and their run/block decompositions.

An element of rank n is a permutation x of {1, ..., 2n} with
x[i] + x[2n+1-i] = 2n+1 at every position (1-based); these model signed
permutations.  Decompositions:

* ascent decomposition: the maximal ascending runs, their lengths, and the
  run straddling the middle positions n, n+1 (empty when no run does);
* half decomposition: the subsequence of entries >= n+1, its maximal
  contiguous blocks, and each block's reversed complement.

The two decompositions are NamedTuple records, so each compares equal to the
plain tuple of its fields.  A block is a small immutable class instead,
because its length is the length of its values, not its field count.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .lattice import last_size_cache
from .words import Word, ascending_runs, check_permutation


def rank_of(x: Word) -> int:
    if len(x) % 2 != 0:
        raise ValueError(f"even length required, got {len(x)}")
    return len(x) // 2


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


def signed_words(n: int, uppers: list | None = None) -> list[Word]:
    """All rank-n elements in lexicographic order: at each position of the
    first half, every value whose complementary pair is still free, smallest
    first.  The tests cross-check this against filtering the symmetric group.

    Given a list `uppers`, also append each element's signed weak-order
    upper-cover ranks, by swapped position.  A first half x_0..x_{n-1} has
    rank sum c_k (n-1-k)! 2^(n-1-k), c_k the free values below x_k.  Swapping
    an ascent a = x_k < b = x_{k+1} gives c'_k = c_{k+1} + 1 + [2n+1-a < b]
    and c'_{k+1} = c_k - [2n+1-b < a]; the central swap (x_{n-1} <= n) adds 1.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    m = 2 * n
    word, free = [0] * m, [True] * (m + 1)
    weight = [math.factorial(n - 1 - k) << (n - 1 - k) for k in range(n)]
    out: list[Word] = []
    shifts: list[int] = []  # rank shifts of the ascents placed so far
    # one shared int per rank: an int per cover would fragment the heap
    ranks = list(range(math.factorial(n) << n)) if uppers is not None else None

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


class AscDecomposition(NamedTuple):
    runs: tuple[Word, ...]
    lengths: tuple[int, ...]
    mid: Word  # the run containing positions n and n+1, or ()

    def run(self, k: int) -> Word:
        """k >= 1 counts from the left, k <= -1 from the right."""
        if k == 0:
            raise ValueError("run index is 1-based (negative for right-indexing)")
        return self.runs[k - 1] if k > 0 else self.runs[k]


def ascent_decomposition(x: Word) -> AscDecomposition:
    runs = tuple(ascending_runs(x))
    n = rank_of(x)
    mid: Word = ()
    pos = 0
    for run in runs:
        start, end = pos + 1, pos + len(run)
        if start <= n and n + 1 <= end:
            mid = run
            break
        pos = end
    return AscDecomposition(runs, tuple(len(r) for r in runs), mid)


class HalfBlock:
    """A maximal block of entries >= n+1: immutable, hashable, equal by fields."""

    __slots__ = ("start", "values")
    start: int  # 1-based position of the block's first entry
    values: Word

    def __init__(self, start: int, values: Word) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"HalfBlock is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not HalfBlock:
            return NotImplemented
        return (self.start, self.values) == (other.start, other.values)

    def __hash__(self) -> int:
        return hash((self.start, self.values))

    def __repr__(self) -> str:
        return f"HalfBlock(start={self.start!r}, values={self.values!r})"

    def __len__(self) -> int:
        return len(self.values)


class HalfDecomposition(NamedTuple):
    half: Word  # all entries >= n+1 in position order
    blocks: tuple[HalfBlock, ...]
    complements: tuple[Word, ...]  # reversed, (2n+1)-complemented blocks


def complement_reverse(values: Word, two_n: int) -> Word:
    return tuple(two_n + 1 - v for v in reversed(values))


def half_decomposition(x: Word) -> HalfDecomposition:
    n = rank_of(x)
    blocks: list[HalfBlock] = []
    i = 0
    while i < len(x):
        if x[i] >= n + 1:
            j = i
            while j < len(x) and x[j] >= n + 1:
                j += 1
            blocks.append(HalfBlock(i + 1, tuple(x[i:j])))
            i = j
        else:
            i += 1
    half = tuple(v for v in x if v >= n + 1)
    comps = tuple(complement_reverse(b.values, 2 * n) for b in blocks)
    return HalfDecomposition(half, tuple(blocks), comps)

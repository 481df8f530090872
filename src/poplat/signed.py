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

import itertools
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


def mirror_complete(first_half: tuple[int, ...]) -> Word:
    """Extend a first half to the full centrally symmetric word."""
    n = len(first_half)
    return first_half + tuple(2 * n + 1 - v for v in reversed(first_half))


@last_size_cache
def enumerate_signed(n: int) -> tuple[Word, ...]:
    """All rank-n elements in lexicographic order.

    The first halves are generated directly, one value from each
    complementary pair in every order, to avoid the (2n)! blowup of
    filtering the symmetric group; the test suite cross-checks them against
    that filter.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    els = []
    for pairs in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((False, True), repeat=n):
            first = tuple(2 * n + 1 - v if neg else v for v, neg in zip(pairs, signs))
            els.append(mirror_complete(first))
    els.sort()
    return tuple(els)


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

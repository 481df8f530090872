"""Classical, vincular and size-bounded pattern containment by backtracking.

The program tests 312 and starred 312 with the O(m) gap scan of
`poplat.words`; this search is the tests' slow side of that comparison,
and their filter for the Tamari carriers.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from poplat.words import Word

LARGE = "large"  # constrained entry must be >= n+1, n = len(host)/2
SMALL = "small"  # constrained entry must be <= n


class _PatternFields(NamedTuple):
    pattern: Word
    adjacent: tuple[bool, ...] = ()
    bounds: tuple[tuple[int, str], ...] = ()


class PatternSpec(_PatternFields):
    """A classical pattern with optional vincular adjacencies and size bounds.

    `adjacent[i]` forces the host positions matched to pattern positions
    i+1 and i+2 (1-based) to be consecutive.  `bounds` maps a 1-based pattern
    position to LARGE or SMALL; these thresholds read n as half the host
    length, so a bounded search requires an even-length host.

    A spec is a tuple (pattern, adjacent, bounds) and compares equal to the
    plain tuple of its fields.  The constructor raises ValueError on an
    adjacency mask of the wrong length or a bad bound.
    """

    __slots__ = ()

    def __new__(cls, pattern: Word, adjacent: tuple[bool, ...] = (),
                bounds: tuple[tuple[int, str], ...] = ()) -> PatternSpec:
        if adjacent and len(adjacent) != len(pattern) - 1:
            raise ValueError("adjacency mask length must be pattern length - 1")
        for pos, kind in bounds:
            if not 1 <= pos <= len(pattern) or kind not in (LARGE, SMALL):
                raise ValueError(f"bad bound ({pos}, {kind})")
        return super().__new__(cls, pattern, adjacent, bounds)


P312 = PatternSpec((3, 1, 2))
P312_STAR = PatternSpec((3, 1, 2), bounds=((3, LARGE),))
P312_STAR_BIG = PatternSpec((3, 1, 2), bounds=((3, LARGE), (2, LARGE)))
P312_STAR_SMALL = PatternSpec((3, 1, 2), bounds=((3, LARGE), (2, SMALL)))
P213_STAR = PatternSpec((2, 1, 3), bounds=((1, SMALL),))
# 231 variant with its final entry small; see tests for where this is exercised.
P231_STAR = PatternSpec((2, 3, 1), bounds=((3, SMALL),))
VINCULAR_312 = PatternSpec((3, 1, 2), adjacent=(True, False))
VINCULAR_312_STAR = PatternSpec((3, 1, 2), adjacent=(True, False), bounds=((3, LARGE),))


def contains_pattern(host: Sequence[int], spec: PatternSpec) -> bool:
    """Search for a subsequence order-isomorphic to the pattern.

    Backtracks over host positions left to right; hosts in this project never
    exceed ~16 entries, so no cleverness is required.
    """
    pat = spec.pattern
    k = len(pat)
    if k == 0:
        return True
    m = len(host)
    if k > m:
        return False
    if spec.bounds and m % 2 != 0:
        raise ValueError("size-bounded patterns need an even-length host")
    half = m // 2
    bound_at = dict(spec.bounds)
    adjacent = spec.adjacent or (False,) * (k - 1)

    def admissible(value: int, t: int, chosen: list[int]) -> bool:
        kind = bound_at.get(t + 1)
        if kind == LARGE and value <= half:
            return False
        if kind == SMALL and value > half:
            return False
        return all(
            (value > prev) == (pat[t] > pat[i]) for i, prev in enumerate(chosen)
        )

    def extend(t: int, prev_pos: int, chosen: list[int]) -> bool:
        if t == k:
            return True
        if t > 0 and adjacent[t - 1]:
            candidates: Iterable[int] = (prev_pos + 1,) if prev_pos + 1 < m else ()
        else:
            candidates = range(prev_pos + 1, m - (k - t) + 1)
        for p in candidates:
            if admissible(host[p], t, chosen):
                chosen.append(host[p])
                if extend(t + 1, p, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, -1, [])

"""Words of distinct integers: run statistics, the 312 gap scan, binomials.

Words and permutations are plain tuples of ints.  Positions are 1-based in
every public signature, matching the usual one-line-notation conventions of
the surrounding modules.  The text format is comma-separated decimal entries,
e.g. "5,1,7,6,3,2,8,4".
"""
from __future__ import annotations

import math
from typing import Sequence

Word = tuple[int, ...]


def parse_word(text: str) -> Word:
    """Parse "5,1,7,6,3,2,8,4" into a tuple of ints."""
    text = text.strip()
    if not text:
        return ()
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed word {text!r}: {exc}") from None
    check_word(word)
    return word


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(v) for v in word)


def check_word(word: Sequence[int]) -> Word:
    """Validate distinct positive entries; return as a tuple."""
    word = tuple(word)
    if any(v <= 0 for v in word):
        raise ValueError(f"word entries must be positive: {word}")
    if len(set(word)) != len(word):
        raise ValueError(f"word entries must be distinct: {word}")
    return word


def is_permutation(word: Sequence[int]) -> bool:
    """True when the entry set is exactly {1, ..., len(word)}."""
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Sequence[int]) -> Word:
    word = tuple(word)
    if not is_permutation(word):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


def reduction(word: Sequence[int]) -> Word:
    """Replace each entry by its rank among the word's entries (smallest -> 1)."""
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def index_of(word: Word, value: int) -> int:
    """1-based position of `value` in `word`."""
    return word.index(value) + 1


def _runs(word: Sequence[int], cut_at_ascent: bool) -> list[Word]:
    """`word` cut between each adjacent pair whose `a < b` equals
    `cut_at_ascent`, left to right."""
    if not word:
        return []
    runs: list[Word] = []
    start = 0
    for i in range(1, len(word)):
        if (word[i - 1] < word[i]) == cut_at_ascent:
            runs.append(tuple(word[start:i]))
            start = i
    runs.append(tuple(word[start:]))
    return runs


def descending_runs(word: Sequence[int]) -> list[Word]:
    """Maximal strictly decreasing factors, left to right."""
    return _runs(word, True)


def ascending_runs(word: Sequence[int]) -> list[Word]:
    """Maximal strictly increasing factors, left to right."""
    return _runs(word, False)


def reverse_runs(word: Sequence[int]) -> Word:
    """Reverse every descending run in place (the one-shot pop-stack pass)."""
    out: list[int] = []
    for run in descending_runs(word):
        out.extend(reversed(run))
    return tuple(out)


def has_double_descent(word: Sequence[int]) -> bool:
    """True when three consecutive entries strictly decrease."""
    return any(word[i] > word[i + 1] > word[i + 2] for i in range(len(word) - 2))


# --- 312 gap scan ------------------------------------------------------------

# A 312-avoiding prefix is summarised by its gaps and its maximum.  A gap
# (a, c) is an entry a placed after a larger entry, with c the maximum before
# a: a later value v completes a 312 with v as its "2" exactly when a < v < c
# for some gap.  The scan keeps the union of the open intervals (a, c) as a
# bitmask (bit v set when v is refused) next to the maximum.  Containment is
# monotone in the prefix, so the scan stops at the first refused entry.


def scan_312_gaps(word: Sequence[int], floor: int | None = None) -> bool:
    """True when no entry v of `word` is the "2" of a 312.

    With `floor` set, only entries v >= floor are refused, which is the
    starred pattern when floor = n+1.  O(1) big-int operations per entry.
    """
    gaps = top = 0
    floor = floor or 0
    for v in word:
        if gaps >> v & 1 and v >= floor:
            return False
        if v < top:
            gaps |= (1 << top) - (2 << v)  # bits v+1 .. top-1
        else:
            top = v
    return True


def avoids_312(word: Sequence[int]) -> bool:
    """True when no entries c, a, b occur in that order with a < b < c."""
    return scan_312_gaps(word)


def avoids_312_star(word: Sequence[int]) -> bool:
    """True when no 312 occurrence has its "2" >= n+1, n = len(word)/2."""
    return scan_312_gaps(word, len(word) // 2 + 1)


# --- binomials -------------------------------------------------------------


def binomial(n: int, k: int, generalized: bool = False) -> int:
    """Binomial coefficient with exact integer arithmetic.

    Standard mode requires n >= 0 and returns 0 for k < 0 or k > n.  The
    generalized mode extends to negative upper index via the falling
    factorial, so e.g. binomial(-1, 0, generalized=True) == 1.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    if not generalized:
        raise ValueError(f"negative upper index {n} requires generalized=True")
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)

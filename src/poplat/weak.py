"""Weak order on permutations and on signed permutations.

Covers turn one adjacent ascent into a descent; in the signed case the move
at position i < n is paired with its mirror at 2n-i, and the central move at
position n stands alone.  The one-shot pop map reverses descending runs, its
dual reverses ascending runs.
"""
from __future__ import annotations

import itertools
import math

from .lattice import FiniteLattice, memoised_builder
from .signed import signed_words
from .words import Word, ascending_runs, reverse_runs


@memoised_builder
def weak_a_lattice(num_letters: int) -> FiniteLattice:
    """Weak order on the permutations of {1, ..., num_letters}.

    Lexicographic order lists the Lehmer codes c (c_i the later entries
    below p_i) in rank order, rank = sum c_i f_i with f_i = (k-1-i)!.
    Position i is an ascent iff c_i <= c_{i+1}; its swap gives
    c'_i = c_{i+1} + 1 and c'_{i+1} = c_i.
    """
    k = num_letters
    elements = tuple(itertools.permutations(range(1, k + 1)))
    f = [math.factorial(k - 1 - i) for i in range(k)]
    # one shared int per rank: an int per cover would fragment the heap
    ranks = list(range(len(elements)))
    uppers = [
        [ranks[r + f[i] + (c[i + 1] - c[i]) * (f[i] - f[i + 1])]
         for i in range(k - 1) if c[i] <= c[i + 1]]
        for r, c in enumerate(itertools.product(*[range(k - i) for i in range(k)]))
    ]
    return FiniteLattice.from_uppers(elements, uppers, ranks)


@memoised_builder
def weak_b_lattice(n: int) -> FiniteLattice:
    """Weak order on the rank-n signed permutations."""
    uppers: list[list[int]] = []
    ranks: list[int] = []
    elements = signed_words(n, uppers, ranks)
    return FiniteLattice.from_uppers(elements, uppers, ranks)


def pop_weak(x: Word) -> Word:
    """One-shot pop on the weak order: reverse every descending run."""
    return reverse_runs(x)


def pop_weak_up(x: Word) -> Word:
    """Dual one-shot pop on either weak order: reverse every ascending run.

    The join of x with its upper covers, read off the word without building
    the lattice.
    """
    return tuple(v for run in ascending_runs(x) for v in reversed(run))


def image_run_condition(x: Word) -> bool:
    """Each ascending run of x starts below where the next one ends.

    On S_n this is exactly the pop image: Asinowski, Banderier, Billey,
    Hackl and Linusson, "Pop-stack sorting and its image: permutations with
    overlapping runs", Acta Math. Univ. Comenianae 88 (2019).  On the signed
    weak order it is necessary, and the tests find it exact on B_1..B_6;
    sufficiency is not claimed.  The caller checks x.
    """
    runs = ascending_runs(x)
    return all(runs[k][0] < runs[k + 1][-1] for k in range(len(runs) - 1))


def image_census_by_first_entry(n: int) -> dict[int, int]:
    """Split the pop-image elements having n-1 upward covers by first entry.

    Brute force over the full signed weak order, counted in index space.
    """
    counts = {i: 0 for i in range(1, 2 * n + 1)}
    for z in weak_b_lattice(n).pop_image("down", n - 1):
        counts[z[0]] += 1
    return counts

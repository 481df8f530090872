"""Weak order on permutations and on signed permutations.

Covers turn one adjacent ascent into a descent; in the signed case the move
at position i < n is paired with its mirror at 2n-i, and the central move at
position n stands alone.  The one-shot pop map reverses descending runs, its
dual reverses ascending runs.
"""
from __future__ import annotations

import itertools

from .lattice import FiniteLattice, index_uppers, memoised_builder
from .signed import signed_words
from .words import Word, ascending_runs, reverse_runs


def _swap(word: Word, i: int) -> Word:
    w = list(word)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def weak_a_covers(p: Word) -> list[Word]:
    """Upper covers: swap one adjacent ascent."""
    return [_swap(p, i) for i in range(len(p) - 1) if p[i] < p[i + 1]]


@memoised_builder
def weak_a_lattice(num_letters: int) -> FiniteLattice:
    """Weak order on the permutations of {1, ..., num_letters}."""
    elements = tuple(itertools.permutations(range(1, num_letters + 1)))
    return FiniteLattice.from_uppers(elements, index_uppers(elements, weak_a_covers))


@memoised_builder
def weak_b_lattice(n: int) -> FiniteLattice:
    """Weak order on the rank-n signed permutations."""
    uppers: list[list[int]] = []
    elements = signed_words(n, uppers)
    return FiniteLattice.from_uppers(elements, uppers)


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

    Brute force over the full signed weak order.
    """
    lat = weak_b_lattice(n)
    counts = {i: 0 for i in range(1, 2 * n + 1)}
    for z in lat.pop_image("down"):
        if len(lat.upper_covers(z)) == n - 1:
            counts[z[0]] += 1
    return counts

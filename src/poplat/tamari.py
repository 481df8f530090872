"""Tamari lattices of both flavors: carriers, covers, projections, pop, preimages.

Each carrier element is the minimum of its class under a lattice congruence
of the weak order (Reading, "Cambrian lattices", Adv. Math. 2006): the
312-avoiding permutations in type A, and in type B the signed permutations
avoiding 312-with-large-middle-value (the "2"-valued entry at least n+1).
A congruence move swaps an adjacent descent (c, a) that has a witness b with
a < b < c: in type A any b after the pair; in type B a large b (b >= n+1) at
or after a's position, or a small one at or before it, and the move is made
together with its mirror.

The carrier is a sublattice, and the lower covers of y in it are the
projections of y's weak-order lower covers.  One block-swap rule reads them
off without rewriting.  Take a descent (c, a) at positions i, i+1 and the
floor f = n+1 in type B, f = 0 in type A, where every value counts as large:

* L is c alone if c < f, else the maximal run y[j..i] of entries >= c;
* R is a alone if a >= f, else the maximal run y[i+1..k] of entries <= a.

The lower cover swaps L and R.  Every step is a congruence move: after the
weak swap of (c, a), a moves left past the rest of L, each d there above
c >= f with the large witness c after the pair; then each further entry e
of R moves left past all of L, with e < a < d and the small witness a
before the pair.  In type B the mirror blocks are swapped too when i < n-1.
The center pair holds one entry <= n and one >= n+1, so blocks left of the
center end by position n-1 and never meet their mirrors.  That the result
is the class minimum is checked against rewriting in the tests.

Both carriers are the closure of the top word under these lower covers,
sorted: in a finite lattice every element lies on a chain of covers below
the top.

A projection to the carrier rewrites with the same floor: it makes the
leftmost congruence move, a descent (c, a) with a witness a < b < c at or
after a's position if b >= f, at or before it if b < f, until none applies.
With f = 0 every witness is large, so it must follow the pair, as in type A;
with f = n+1 each move is made together with its mirror.  Rewriting up to
the class maximum turns an ascent (a, c) into (c, a) on the same test.  The
tests check both against the class extremes inside the ambient weak order.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .lattice import FiniteLattice, last_size_cache, memoised_builder
from .signed import complement_reverse, large_blocks, validate_signed
from .weak import pop_weak_up
from .words import (
    Word,
    avoids_312,
    avoids_312_star,
    check_permutation,
    has_double_descent,
    index_of,
    reduction,
    reverse_runs,
)

# --- carriers ---------------------------------------------------------------


def _closure(m: int, floor: int) -> tuple[list[Word], Iterator[list[int]]]:
    """The closure of the top word (m, ..., 1) under `_block_swaps(., floor)`,
    sorted, and lazily, in that order, each element's lower covers as
    positions in it.  The search keeps its records in flat arrays: a small
    object per element left among the kept words would hold memory that the
    validation table cannot reuse."""
    from array import array  # loaded by Tamari builds only, not by every CLI call
    top = tuple(range(m, 0, -1))
    found = [top]
    position = {top: 0}
    covers, ends = array("l"), array("l", [0])
    for y in found:
        for w in _block_swaps(y, floor):
            i = position.get(w)
            if i is None:
                i = position[w] = len(found)
                found.append(w)
            covers.append(i)
        ends.append(len(covers))
    order = sorted(range(len(found)), key=found.__getitem__)
    rank = array("l", order)
    for r, k in enumerate(order):
        rank[k] = r
    lowers = ([rank[i] for i in covers[ends[k]:ends[k + 1]]] for k in order)
    return [found[k] for k in order], lowers


@last_size_cache
def tam_a_elements(n: int) -> tuple[Word, ...]:
    """312-avoiding permutations of {1, ..., n+1}, lexicographically sorted."""
    return tuple(_closure(n + 1, 0)[0])


@last_size_cache
def tam_b_elements(n: int) -> tuple[Word, ...]:
    """Signed permutations of rank n avoiding the starred 312 pattern,
    lexicographically sorted."""
    return tuple(_closure(2 * n, n + 1)[0])


# --- covers -------------------------------------------------------------------


def _block_swaps(y: Word, floor: int) -> list[Word]:
    """Lower covers of a carrier element y by the block-swap rule, one per
    descent (c, a), in the order of y's weak lower covers.

    Floor 0 is type A: every descent, no mirror.  Floor n+1 is type B: the
    descents at positions i < n, each swapped with its mirror unless i is
    the center n-1.
    """
    m = len(y)
    last = m // 2 if floor else m - 1
    out = []
    for i in range(last):
        c, a = y[i], y[i + 1]
        if c < a:
            continue
        j = i
        if c >= floor:
            while j and y[j - 1] > c:
                j -= 1
        k = i + 2
        if a < floor:
            while k < m and y[k] < a:
                k += 1
        swapped = y[i + 1 : k] + y[j : i + 1]
        if floor and i < last - 1:
            z = list(y)
            z[j:k] = swapped
            z[m - k : m - j] = [m + 1 - v for v in swapped[::-1]]
            out.append(tuple(z))
        else:
            out.append(y[:j] + swapped + y[k:])
    return out


def _quotient_lattice(elements: Sequence[Word],
                      lowers: Iterable[list[int]]) -> FiniteLattice:
    """Sublattice of the weak order on a carrier of congruence-class minima.

    `lowers` lists, element by element in carrier order, the carrier
    positions of its lower covers.  The upper-cover lists are filled in
    carrier order, from one int object per position, and handed with those
    ints to `FiniteLattice.from_uppers`, which consumes them and keeps the
    carrier order; `kahn_elements()`, the order `enumerate` prints, follows
    the order of the upper-cover lists.

    No list repeats an entry: two weak lower covers w1, w2 of a class minimum
    y project to distinct elements, since w1 = w2 modulo the congruence would
    give y = w1 v w2 = w1 modulo it, below y in y's own class.
    """
    ids = list(range(len(elements)))
    up_adj: list[list[int]] = [[] for _ in ids]
    for j, covers in zip(ids, lowers):
        for i in covers:
            up_adj[i].append(j)
    return FiniteLattice.from_uppers(elements, up_adj, ids)


@memoised_builder
def tam_a_lattice(n: int) -> FiniteLattice:
    return _quotient_lattice(*_closure(n + 1, 0))


@memoised_builder
def tam_b_lattice(n: int) -> FiniteLattice:
    return _quotient_lattice(*_closure(2 * n, n + 1))


# --- projections --------------------------------------------------------------


def _project(y: Sequence[int], floor: int, up: bool = False) -> Word:
    """Minimum of y's congruence class, or its maximum `up`, by leftmost-move
    rewriting on a copy of y.

    A descent (c, a) at i moves, or `up` an ascent (a, c), when a witness
    a < b < c sits after the pair if b >= floor, before it if b < floor;
    with floor > 0 the move is made together with its mirror at len(y) - 2 - i.
    Each move removes (adds) an inversion, so the loop terminates.  A move at
    i and its mirror only move values at positions >= min(i, mirror), so no
    pair left of min(i, mirror) - 1 becomes movable and the scan resumes
    there.  The inverse array `pos` is kept across the moves.
    """
    y = list(y)
    pos = [0] * (len(y) + 1)
    for t, v in enumerate(y):
        pos[v] = t
    last = len(y) - 1
    i = 0
    while i < last:
        c, a = (y[i + 1], y[i]) if up else (y[i], y[i + 1])
        movable = c > a and (
            any(pos[b] <= i + 1 for b in range(a + 1, min(c, floor)))
            or any(pos[b] >= i + 1 for b in range(max(a + 1, floor), c))
        )
        if not movable:
            i += 1
            continue
        mirror = last - 1 - i if floor else i
        for k in {i, mirror}:
            y[k], y[k + 1] = y[k + 1], y[k]
            pos[y[k]], pos[y[k + 1]] = k, k + 1
        i = max(min(i, mirror) - 1, 0)
    return tuple(y)


# --- pop --------------------------------------------------------------------


def _pop(x: Word, floor: int, up: bool) -> Word:
    """Pop on the carrier of `floor`: project the run reversal of x, or `up`
    project the ascending-run reversal of x's class maximum."""
    return _project(pop_weak_up(_project(x, floor, True)) if up else reverse_runs(x), floor)


def pop_tam_a(p: Word, up: bool = False) -> Word:
    """Pop on the type-A carrier, or with `up` the dual pop."""
    p = check_permutation(p)
    if not avoids_312(p):
        raise ValueError(f"{p} is not 312-avoiding")
    return _pop(p, 0, up)


def pop_tam_b(x: Word, up: bool = False) -> Word:
    x = validate_signed(x)
    if not avoids_312_star(x):
        raise ValueError(f"{x} is not in the type-B carrier")
    return _pop(x, len(x) // 2 + 1, up)


# --- image characterizations ---------------------------------------------------


def hong_image_predicate(p: Word) -> bool:
    """Type-A image test: 312-avoiding, ends with the maximum, no double descent."""
    if not p:
        return True
    return (
        p[-1] == len(p)
        and not has_double_descent(p)
        and avoids_312(p)
    )


def tam_b_image_predicate(x: Word) -> bool:
    """Type-B image test on x's own large-entry blocks.

    x is in the image iff its largest value sits in the right half and every
    block of entries >= n+1, reduced, passes the type-A image test.  The
    tests match this against brute-force image membership.
    """
    x = validate_signed(x)
    n = len(x) // 2
    if n == 0:
        return True
    if index_of(x, 2 * n) < n + 1:
        return False
    return all(
        hong_image_predicate(reduction(block)) for block in large_blocks(x)
    )


# --- preimage constructions ------------------------------------------------------


def _relabel(pattern: Word, values: list[int]) -> Word:
    """Arrange `values` in the relative order given by `pattern`."""
    ordered = sorted(values)
    return tuple(ordered[r - 1] for r in pattern)


def preimage_ending_in_one(x: Word) -> Word:
    """A pop preimage of a type-A image element whose last entry is 1.

    Split at the position k of 1: both sides are again image elements after
    reduction, and the assembled word (left+1) . (right+k) . 1, each side
    split the same way, pops back to x.  The postcondition is asserted.
    """
    x = check_permutation(x)
    if not hong_image_predicate(x):
        raise ValueError(f"{x} fails the type-A image test")
    y = _preimage_end_one(x)
    assert pop_tam_a(y) == x, (x, y)
    return y


def _preimage_end_one(x: Word) -> Word:
    """The word of `preimage_ending_in_one`, in linear time.

    A segment of x that takes the values from `least` up has the preimage
    (left)(right)`least`: left and right are the preimages of the segments
    before and after its least entry, left on the values just above `least`
    and right on those above left's.  The segments are the subtrees of x's
    min-rooted Cartesian tree: the word lists its nodes as a stack pass pops
    them, each as 1 + its segment's start + its ancestors to its right.
    """
    chain, spine = [0] * len(x), []
    for i in range(len(x) - 1, -1, -1):
        while spine and spine[-1] > x[i]:
            spine.pop()
        chain[i] = len(spine)
        spine.append(x[i])
    word, spine = [], []
    for i, v in enumerate((*x, 0)):  # the 0 pops every entry left
        while spine and x[spine[-1]] > v:
            k = spine.pop()
            word.append((spine[-1] + 2 if spine else 1) + chain[k])
        spine.append(i)
    return tuple(word)


def preimage_tam_b(x: Word) -> Word:
    """A pop preimage of a type-B image element, assembled blockwise.

    Each large-entry block of x is replaced by the end-in-one type-A preimage
    of its pattern, on the same values.  When x starts with a large entry the
    first two replacement blocks are glued into a single block first: popping
    splits that glued block back apart, which is how the image element comes
    to start with a large value (smallest witness: rank 2, image element 3142,
    whose only preimage 3412 has one block where 3142 has two).  The blocks
    are then interleaved with the reversed complements of the blocks taken in
    opposite order, and the postcondition pop(y) == x is asserted.
    """
    x = validate_signed(x)
    if not tam_b_image_predicate(x):
        raise ValueError(f"{x} fails the type-B image test")
    n = len(x) // 2
    new_blocks = [
        _relabel(_preimage_end_one(reduction(b)), list(b)) for b in large_blocks(x)
    ]
    if n and x[0] >= n + 1:
        # a first-entry-large image element always has at least two blocks:
        # with a single block the largest value would sit in the left half
        new_blocks[:2] = [new_blocks[0] + new_blocks[1]]
    parts: list[Word] = []
    count = len(new_blocks)
    for k in range(count):
        parts.append(new_blocks[k])
        parts.append(complement_reverse(new_blocks[count - 1 - k], 2 * n))
    y = validate_signed(tuple(itertools.chain.from_iterable(parts)))
    assert pop_tam_b(y) == x, (x, y)
    return y

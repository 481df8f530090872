"""Dyck paths and the order-ideal lattices they realize.

Paths are strings over 'r' (rise) and 'f' (fall), e.g. "rrfrff".  The
type-A ideal lattice on semi-length m orders paths by pointwise height;
covers flip one valley.  The type-B lattice consists of the paths of
semi-length 2n symmetric about their midpoint; covers flip the central
valley alone or a mirror pair of off-center valleys.  On both lattices the
pop map flips every peak of height at least 2 into a valley at once, and
the dual pop map flips every valley at once.
"""
from __future__ import annotations

import math

from .lattice import FiniteLattice, QPoly, index_uppers, last_size_cache, memoised_builder

RISE = "r"
FALL = "f"


def check_path(path: str) -> str:
    h = 0
    for step in path:
        if step == RISE:
            h += 1
        elif step == FALL:
            h -= 1
        else:
            raise ValueError(f"bad step {step!r} in {path!r}")
        if h < 0:
            raise ValueError(f"path dips below the axis: {path!r}")
    if h != 0:
        raise ValueError(f"path does not return to the axis: {path!r}")
    return path


def semi_length(path: str) -> int:
    return len(path) // 2


def heights(path: str) -> list[int]:
    """Profile h_0..h_{2m}; h_i is the height after i steps."""
    h = [0]
    for step in path:
        h.append(h[-1] + (1 if step == RISE else -1))
    return h


def is_symmetric(path: str) -> bool:
    """Mirror symmetry about the midpoint: step i complements step 2m+1-i."""
    m2 = len(path)
    return all(
        (path[i] == RISE) == (path[m2 - 1 - i] == FALL) for i in range(m2 // 2)
    )


def valleys(path: str) -> list[int]:
    """x-coordinates preceded by a fall and followed by a rise."""
    out = []
    i = path.find(FALL + RISE)
    while i >= 0:
        out.append(i + 1)
        i = path.find(FALL + RISE, i + 2)
    return out


def peaks(path: str) -> list[int]:
    """x-coordinates preceded by a rise and followed by a fall."""
    return [
        i + 1
        for i in range(len(path) - 1)
        if path[i] == RISE and path[i + 1] == FALL
    ]


def flippable_peaks(path: str) -> list[int]:
    """Peaks whose apex height is at least 2, hence flippable into valleys."""
    h = heights(path)
    return [x for x in peaks(path) if h[x] >= 2]


def flip_valleys_up(path: str) -> str:
    """Turn every valley into a peak simultaneously (the dual pop map).

    Valleys never overlap, so this is one left-to-right replacement.
    """
    return path.replace(FALL + RISE, RISE + FALL)


def flip_peaks_down(path: str) -> str:
    """Turn every peak of height at least 2 into a valley simultaneously
    (the pop map on both ideal lattices).

    Peaks never overlap, so each swap reads the original path.
    """
    steps = list(path)
    for x in flippable_peaks(path):
        steps[x - 1 : x + 1] = FALL, RISE
    return "".join(steps)


def _flip_valley(path: str, x: int) -> str:
    return path[: x - 1] + RISE + FALL + path[x + 1 :]


def _prefixes(length: int, closed: bool, finish=str, uppers: list | None = None) -> list[str]:
    """Step sequences of the given length that never dip below the axis, in
    lexicographic order ('f' < 'r'); closed ones end on the axis.  Each is
    passed through `finish` as it is made.

    Given a list `uppers` (closed paths only), the recursion also appends to
    it, for every path, the ranks of its valley flips, left to right: a rise
    after a fall at x, at height h, is a valley whose flip adds
    `_flip_shifts(length // 2)[x][h]` to the path's own rank.
    """
    if length < 0:
        raise ValueError(f"negative length {length}")
    out: list[str] = []
    ranked = uppers is not None
    shift = _flip_shifts(length // 2) if ranked else None
    flips: list[int] = []

    def extend(prefix: list[str], h: int, left: int, valley: bool) -> None:
        # `valley`: the recursion ranks flips and the last step was a fall.
        if left == 0:
            if ranked:
                rank = len(out)
                uppers.append([rank + s for s in flips])
            out.append(finish("".join(prefix)))
            return
        if h > 0:
            prefix.append(FALL)
            extend(prefix, h - 1, left - 1, ranked)
            prefix.pop()
        if h < left or not closed:
            if valley:
                flips.append(shift[len(prefix)][h])
            prefix.append(RISE)
            extend(prefix, h + 1, left - 1, False)
            prefix.pop()
            if valley:
                flips.pop()

    extend([], 0, length, False)
    # The recursive closure refers to itself, a cycle that would keep `out`,
    # and every element in it, until the next full collection.
    del extend
    return out


@last_size_cache
def all_paths(m: int) -> tuple[str, ...]:
    """Every path of semi-length m, lexicographically sorted ('f' < 'r')."""
    return tuple(_prefixes(2 * m, closed=True))


_MIRROR = str.maketrans(RISE + FALL, FALL + RISE)


@last_size_cache
def symmetric_paths(n: int) -> tuple[str, ...]:
    """Paths of semi-length 2n symmetric about the midpoint, sorted.

    Each is a first half of 2n steps followed by its reversed complement;
    distinct first halves of one length keep their order when extended.
    """
    return tuple(_prefixes(2 * n, False, lambda p: p + p[::-1].translate(_MIRROR)))


def _finishes(k: int, h: int) -> int:
    """Ways to go k steps from height h down to the axis without dipping
    below it: C(k, r) - C(k, r-1) with r = (k-h)/2 rises (ballot formula)."""
    r, odd = divmod(k - h, 2)
    if r < 0 or odd:
        return 0
    return math.comb(k, r) - (math.comb(k, r - 1) if r else 0)


def _flip_shifts(m: int) -> list[list[int]]:
    """shift[x][v]: how far flipping a valley at x of height v moves a path of
    semi-length m in the lexicographic order of `all_paths(m)`.

    The flip turns P f r S into P r f S.  The paths from the first (included)
    to the second (excluded) are P f r T with T >= S and P r f T with T < S.
    Both prefixes end at height v+1 after x+1 steps, so together they count
    the ways to finish from there.
    """
    return [[_finishes(2 * m - x - 1, v + 1) for v in range(m + 1)] for x in range(2 * m)]


@memoised_builder
def j_a_lattice(m: int, validate: bool = True) -> FiniteLattice:
    """Ideal lattice on all paths of semi-length m; covers flip one valley."""
    uppers: list[list[int]] = []
    elements = _prefixes(2 * m, True, uppers=uppers)
    return FiniteLattice.from_uppers(elements, uppers, validate)


def _flip_orbit(path: str, x: int) -> str:
    """Flip the valley at x and, when off-center, its mirror valley."""
    m2 = len(path)
    out = _flip_valley(path, x)
    if x != m2 // 2:
        out = _flip_valley(out, m2 - x)
    return out


@memoised_builder
def j_b_lattice(n: int, validate: bool = True) -> FiniteLattice:
    """Ideal lattice on symmetric paths of semi-length 2n.

    Covers flip the central valley alone or a mirror pair of valleys, so the
    result stays symmetric; meets and joins agree with the ambient type-A
    lattice, which the tests check.
    """
    elements = symmetric_paths(n)
    return FiniteLattice.from_uppers(
        elements, index_uppers(elements, _j_b_upper_covers), validate
    )


def _j_b_upper_covers(path: str) -> list[str]:
    """Flip each valley orbit whose left valley is at most the midpoint."""
    mid = len(path) // 2
    return [_flip_orbit(path, x) for x in valleys(path) if x <= mid]


# --- image characterization and direct statistics -----------------------------


def image_predicate_a(path: str) -> bool:
    """Membership test for the upward pop image: no 'ffrr' factor and no
    interior return to the axis."""
    check_path(path)
    return "ffrr" not in path and all(v > 0 for v in heights(path)[1:-1])


def image_predicate_b(path: str) -> bool:
    """Type-B variant of the same test, on a symmetric path."""
    if not is_symmetric(check_path(path)):
        raise ValueError(f"not symmetric: {path!r}")
    return image_predicate_a(path)


def lower_cover_count_a(path: str) -> int:
    """Lower covers without building the lattice: flippable peaks."""
    return len(flippable_peaks(path))


def lower_cover_count_b(path: str) -> int:
    """Flippable peak orbits with x-coordinate at most the midpoint."""
    mid = semi_length(path)
    return sum(1 for x in flippable_peaks(path) if x <= mid)


def _up_census(paths: tuple[str, ...], lower_cover_count) -> QPoly:
    """q-census of the upward pop image of `paths`, O(#paths)."""
    coeffs: dict[int, int] = {}
    for z in {flip_valleys_up(p) for p in paths}:
        d = lower_cover_count(z)
        coeffs[d] = coeffs.get(d, 0) + 1
    return QPoly(coeffs)


def pop_up_polynomial_a(m: int) -> QPoly:
    """q-census of the upward pop image over semi-length m."""
    return _up_census(all_paths(m), lower_cover_count_a)


def pop_up_polynomial_b(n: int) -> QPoly:
    """q-census of the upward pop image over the symmetric paths of rank n."""
    return _up_census(symmetric_paths(n), lower_cover_count_b)

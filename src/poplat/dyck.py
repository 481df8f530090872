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

from .lattice import FiniteLattice, QPoly, last_size_cache, memoised_builder

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


def _steps(k: int, h: int, room: int, closed: bool) -> list[tuple[str, int]]:
    """The k-step sequences from height h that never dip below the axis,
    in lexicographic order, with their end heights; closed ones can still
    reach the axis `room` steps after their start."""
    level = [("", h)]
    for left in range(room, room - k, -1):
        grown = []
        for seq, g in level:
            if g:
                grown.append((seq + FALL, g - 1))
            if g < left or not closed:
                grown.append((seq + RISE, g + 1))
        level = grown
    return level


def _valley_shifts(steps: str, x0: int, h0: int, shift: list[list[int]]) -> list[int]:
    """`shift[x][v]` of each valley of `steps`, which start at x0, height h0:
    after i of them the height is h0 + i - 2 * (falls among the i)."""
    out = []
    i = steps.find(FALL + RISE) + 1
    while i:
        out.append(shift[x0 + i][h0 + i - 2 * steps.count(FALL, 0, i)])
        i = steps.find(FALL + RISE, i + 1) + 1
    return out


_MIRROR = str.maketrans(RISE + FALL, FALL + RISE)


def _mirror(steps: str) -> str:
    """The reversed complement: the second half of a symmetric path."""
    return steps[::-1].translate(_MIRROR)


def _halves(length: int, closed: bool) -> tuple[int, list, dict]:
    """(a, heads, tails) of the join that `_prefixes` describes: the heads of
    a steps, as (steps, end height), and per end height h the steps of the
    tails from h, each list in lexicographic order.  Closed heads and tails
    mirror each other, so a = length // 2 balances them; open tails end
    anywhere, so a is the counted split with the fewest heads and tails in
    all (24 310 and 16 684 at length 28; 3 432 and 107 048 at the middle)."""
    if closed:
        a = length // 2
    else:  # heads of k steps, plus tails from each of their end heights
        a = min(range(length + 1), key=lambda k: _open_finishes(k, 0) + sum(
            _open_finishes(length - k, h) for h in range(k % 2, k + 1, 2)))
    heads = _steps(a, 0, length, closed)
    ends = {h for _, h in heads}
    return a, heads, {h: [t for t, _ in _steps(length - a, h, length - a, closed)] for h in ends}


def _tail_shifts(closed: bool, a: int, h: int, tails: list[str], shift) -> tuple[list, list]:
    """The valley shifts of each of `tails`, which start at a, height h:
    without and with the junction valley at a.  An open tail is scanned with
    the rise that starts its mirror, which finds the central valley."""
    plain = [_valley_shifts(t if closed else t + RISE, a, h, shift) for t in tails]
    return plain, [[shift[a][h]] + s if t.startswith(RISE) else s for t, s in zip(tails, plain)]


def _prefixes(
    length: int, closed: bool, uppers: list | None = None, ranks: list | None = None
) -> list[str]:
    """Closed: the paths of `length` steps.  Open: the symmetric paths of
    2 * `length` steps, each a first half that never dips below the axis
    followed by its mirror.  Both in lexicographic order ('f' < 'r').

    Each path (first half) joins a head of a steps (see `_halves`) to a tail
    from the head's end height h.  All heads have one length, so the heads
    in order, each followed by its tails in order, list the paths in order;
    mirroring keeps it.  Given lists `uppers` and `ranks`, `ranks` is filled
    with one int object per path rank, and each path's valley-flip ranks,
    drawn from it, are appended to `uppers`, left to right: a flip at x,
    height v, adds `shift[x][v]` to the path's rank.  The valleys are the
    head's, the junction at a (height h) when the head ends in 'f' and the
    tail starts with 'r', then the tail's, so each head's and tail's shifts
    are found once.  A first half that ends in 'f' also has the central
    valley, at `length`.
    """
    a, heads, tails = _halves(length, closed)
    if uppers is not None:
        shift = _flip_shifts(a) if closed else _open_shifts(length)
        tail_shifts = {h: _tail_shifts(closed, a, h, group, shift) for h, group in tails.items()}
        # one shared int per rank: an int per cover would fragment the heap
        ranks.extend(range(sum(len(tails[h]) for _, h in heads)))
        rank = 0
        for head, h in heads:
            hs = _valley_shifts(head, 0, 0, shift)
            for ts in tail_shifts[h][head.endswith(FALL)]:
                uppers.append([ranks[rank + s] for s in hs + ts])
                rank += 1
    if closed:
        return [head + tail for head, h in heads for tail in tails[h]]
    middles = {h: [t + _mirror(t) for t in group] for h, group in tails.items()}
    del tails  # freed before the paths are joined, which sets the peak
    return [
        head + middle + end
        for head, h in heads
        for end in [_mirror(head)]
        for middle in middles[h]
    ]


@last_size_cache
def all_paths(m: int) -> tuple[str, ...]:
    """Every path of semi-length m, lexicographically sorted ('f' < 'r')."""
    return tuple(_prefixes(2 * m, closed=True))


@last_size_cache
def symmetric_paths(n: int) -> tuple[str, ...]:
    """Paths of semi-length 2n symmetric about the midpoint, sorted."""
    return tuple(_prefixes(2 * n, False))


def _finishes(k: int, h: int) -> int:
    """Ways to go k steps from height h down to the axis without dipping
    below it: C(k, r) - C(k, r-1) with r = (k-h)/2 rises (ballot formula)."""
    r, odd = divmod(k - h, 2)
    if r < 0 or odd:
        return 0
    return math.comb(k, r) - (math.comb(k, r - 1) if r else 0)


def _open_finishes(k: int, h: int) -> int:
    """Ways to go k steps from height h, ending anywhere, without dipping
    below the axis: C(k, r) - C(k, r - h - 1) with r falls (reflection),
    summed over r <= R = (h + k) // 2, telescopes to C(k, R - h) + ... + C(k, R)."""
    top = (h + k) // 2
    return sum(math.comb(k, r) for r in range(max(0, top - h), top + 1))


def _flip_shifts(m: int) -> list[list[int]]:
    """shift[x][v]: how far flipping a valley at x of height v moves a path of
    semi-length m in the lexicographic order of `all_paths(m)`.

    The flip turns P f r S into P r f S.  The paths from the first (included)
    to the second (excluded) are P f r T with T >= S and P r f T with T < S.
    Both prefixes end at height v+1 after x+1 steps, so together they count
    the ways to finish from there.
    """
    return [[_finishes(2 * m - x - 1, v + 1) for v in range(m + 1)] for x in range(2 * m)]


def _open_shifts(length: int) -> list[list[int]]:
    """shift[x][v] as in `_flip_shifts`, for the first halves of `length`
    steps of `symmetric_paths`: an off-center valley flips with its mirror,
    so the first half changes as a path does but finishes anywhere; the
    central valley, at x = length, turns the last fall into a rise: 1."""
    return [
        [_open_finishes(length - x - 1, v + 1) for v in range(length + 1)]
        for x in range(length)
    ] + [[1] * (length + 1)]


@memoised_builder
def j_a_lattice(m: int) -> FiniteLattice:
    """Ideal lattice on all paths of semi-length m; covers flip one valley."""
    uppers: list[list[int]] = []
    ranks: list[int] = []
    elements = _prefixes(2 * m, True, uppers, ranks)
    return FiniteLattice.from_uppers(elements, uppers, ranks)


@memoised_builder
def j_b_lattice(n: int) -> FiniteLattice:
    """Ideal lattice on symmetric paths of semi-length 2n.

    Covers flip the central valley alone or a mirror pair of valleys, so the
    result stays symmetric; meets and joins agree with the ambient type-A
    lattice, which the tests check.  A symmetric path's rank is its first
    half's, so the covers are ranked from the first halves.
    """
    uppers: list[list[int]] = []
    ranks: list[int] = []
    elements = _prefixes(2 * n, False, uppers, ranks)
    return FiniteLattice.from_uppers(elements, uppers, ranks)


# --- image characterization and direct statistics -----------------------------


def image_predicate_a(path: str) -> bool:
    """Membership test for the upward pop image: no 'ffrr' factor and no
    interior return to the axis."""
    return "ffrr" not in path and all(v > 0 for v in heights(path)[1:-1])


def _up_census(length: int, closed: bool) -> QPoly:
    """q-census of the upward pop image of the paths `_prefixes(length,
    closed)` lists, streamed from its join without holding a path.

    The pop flips every valley at once, and a flip's shift depends only on
    its valley's position and height, which the other flips leave alone: the
    image's rank is the path's plus all its valleys' shifts.  Each image rank
    is marked in one byte per path; the first mark spells the image out and
    counts its lower covers: its flippable peaks, on j-b those up to the
    midpoint.  The pop raises each valley point by 2 and no other point, so
    an image meets the axis only at its ends; a peak of height 1 needs the
    axis on both sides, so only the image "rf" has one, and the others' peaks
    are all flippable.  On j-b the count reads the image's first `length` + 1
    steps, which the flips spell from the first half and its mirror's first
    two steps.
    """
    a, heads, tails = _halves(length, closed)
    shift = _flip_shifts(a) if closed else _open_shifts(length)
    stop = length if closed else length + 1
    # per end height, each tail's place among its tails plus its valleys'
    # shifts, without and with the junction valley
    offsets = {
        h: [[i + sum(s) for i, s in enumerate(part)]
            for part in _tail_shifts(closed, a, h, group, shift)]
        for h, group in tails.items()
    }
    seen = bytearray(sum(len(tails[h]) for _, h in heads))
    coeffs: dict[int, int] = {}
    valley, peak, rank = FALL + RISE, RISE + FALL, 0
    for head, h in heads:
        group = tails[h]
        start = rank + sum(_valley_shifts(head, 0, 0, shift))
        for tail, offset in zip(group, offsets[h][head.endswith(FALL)]):
            if not seen[start + offset]:
                seen[start + offset] = 1
                path = head + tail
                if not closed:
                    path += _mirror(path[-2:])
                image = path.replace(valley, peak)
                d = image.count(peak, 0, stop) - (image == peak)
                coeffs[d] = coeffs.get(d, 0) + 1
        rank += len(group)
    return QPoly(coeffs)


def pop_up_polynomial_a(m: int) -> QPoly:
    """q-census of the upward pop image over semi-length m, one byte per path."""
    return _up_census(2 * m, True)


def pop_up_polynomial_b(n: int) -> QPoly:
    """q-census of the upward pop image over the symmetric paths of rank n,
    streamed from their first halves, whose ranks are the paths' ranks."""
    return _up_census(2 * n, False)

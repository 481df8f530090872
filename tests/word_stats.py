"""Statistics and covers of words and paths that only the tests read.

The program reads cover counts off its lattices and the census shortcuts;
these plain counts are the tests' independent side of those comparisons.
The cover functions spell every cover out, or find every valley by a string
scan, apart from the builders, which read cover ranks off their enumerators;
the tests hold the builders to them.  `recursive_prefixes` enumerates the
Dyck carriers one recursive call per step, apart from the program's join of
two half-tables, and `image_set_census` pops every path and keeps the set of
images, apart from the program's census streamed from that join.
"""
from poplat.dyck import FALL, RISE, _flip_shifts, flip_valleys_up, peaks, semi_length
from poplat.lattice import QPoly
from poplat.words import ascending_runs


def descent_count(word):
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def weak_a_lower_covers(word):
    """Weak-order lower covers: swap one adjacent descent."""
    out = []
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            w = list(word)
            w[i], w[i + 1] = w[i + 1], w[i]
            out.append(tuple(w))
    return out


def _swap(word, i):
    w = list(word)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _weak_b_swaps(x, descents):
    """Swap each ascent (or descent) at positions <= n, mirrored when off-center."""
    n = len(x) // 2
    out = []
    for i in range(n):
        if (x[i] > x[i + 1]) == descents:
            y = _swap(x, i)
            if i < n - 1:
                y = _swap(y, 2 * n - 2 - i)
            out.append(y)
    return out


def weak_b_covers(x):
    """Upper covers in the signed weak order (mirrored double swaps)."""
    return _weak_b_swaps(x, descents=False)


def weak_b_lower_covers(x):
    """Lower covers in the signed weak order (mirrored double swaps)."""
    return _weak_b_swaps(x, descents=True)


def j_a_uppers(paths, m):
    """Upper covers of every path, as ranks in `paths` = `all_paths(m)`.

    A valley at x has height x - 2 * (falls before x), and its flip's rank
    is the path's own rank plus `_flip_shifts(m)[x][height]`.  Valleys are
    found left to right by a string scan.
    """
    shift = _flip_shifts(m)
    valley = FALL + RISE
    up_adj = []
    for rank, path in enumerate(paths):
        ups = []
        x = path.find(valley) + 1
        while x:
            ups.append(rank + shift[x][x - 2 * path.count(FALL, 0, x)])
            x = path.find(valley, x + 1) + 1
        up_adj.append(ups)
    return up_adj


def recursive_prefixes(length, closed, finish=str):
    """Step sequences of the given length that never dip below the axis, in
    lexicographic order ('f' < 'r'); closed ones end on the axis.  Each is
    passed through `finish` as it is made."""
    out = []

    def extend(prefix, h, left):
        if left == 0:
            out.append(finish("".join(prefix)))
            return
        if h > 0:
            prefix.append(FALL)
            extend(prefix, h - 1, left - 1)
            prefix.pop()
        if h < left or not closed:
            prefix.append(RISE)
            extend(prefix, h + 1, left - 1)
            prefix.pop()

    extend([], 0, length)
    return out


def recursive_symmetric_paths(n):
    """Paths of semi-length 2n symmetric about the midpoint: each first half
    of 2n steps followed by its reversed complement."""
    mirror = str.maketrans(RISE + FALL, FALL + RISE)
    return recursive_prefixes(2 * n, False, lambda p: p + p[::-1].translate(mirror))


def image_set_census(paths, lower_cover_count):
    """q-census of the upward pop image of `paths`: the set of the images,
    each counted by `lower_cover_count`."""
    coeffs = {}
    for z in {flip_valleys_up(p) for p in paths}:
        d = lower_cover_count(z)
        coeffs[d] = coeffs.get(d, 0) + 1
    return QPoly(coeffs)


def valleys(path):
    """x-coordinates preceded by a fall and followed by a rise."""
    return [i + 1 for i in range(len(path) - 1) if path[i] == FALL and path[i + 1] == RISE]


def flip_valley(path, x):
    return path[: x - 1] + RISE + FALL + path[x + 1 :]


def flip_orbit(path, x):
    """Flip the valley at x and, when off-center, its mirror valley."""
    m2 = len(path)
    out = flip_valley(path, x)
    if x != m2 // 2:
        out = flip_valley(out, m2 - x)
    return out


def j_b_upper_covers(path):
    """Flip each valley orbit whose left valley is at most the midpoint."""
    mid = len(path) // 2
    return [flip_orbit(path, x) for x in valleys(path) if x <= mid]


def bounded_ascent_count(word, bound):
    """Number of ascent positions i <= bound (1-based)."""
    if not 1 <= bound <= len(word) - 1:
        raise ValueError(f"bound {bound} out of range for length {len(word)}")
    return sum(1 for i in range(bound) if word[i] < word[i + 1])


def mid_run(x):
    """The ascending run of a rank-n x that holds positions n and n+1
    (1-based), or () when no run holds both."""
    n, start = len(x) // 2, 0
    for run in ascending_runs(x):
        if start < n < start + len(run):
            return run
        start += len(run)
    return ()


def peak_count(path):
    return len(peaks(path))


def flippable_peak_count(path, stop):
    """Peaks of height at least 2 with x-coordinate below `stop`.  Peaks
    never overlap, and the steps between two of them move the height by
    2 * (rises) - (steps); a peak is flippable when the height before its
    rise is at least 1."""
    h = count = 0
    for steps in path[:stop].split(RISE + FALL)[:-1]:
        h += 2 * steps.count(RISE) - len(steps)
        count += h > 0
    return count


def lower_cover_count_a(path):
    """Lower covers in j-a: flippable peaks."""
    return flippable_peak_count(path, len(path))


def lower_cover_count_b(path):
    """Lower covers in j-b: flippable peak orbits with x-coordinate at most
    the midpoint."""
    return flippable_peak_count(path, semi_length(path) + 1)


def half_peak_count(path):
    """Peaks with x-coordinate at most the midpoint (the symmetric statistic)."""
    mid = semi_length(path)
    return sum(1 for x in peaks(path) if x <= mid)

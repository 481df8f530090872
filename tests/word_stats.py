"""Statistics and covers of words and paths that only the tests read.

The program reads cover counts off its lattices and the census shortcuts;
these plain counts are the tests' independent side of those comparisons.
"""
from poplat.dyck import peaks, semi_length


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


def bounded_ascent_count(word, bound):
    """Number of ascent positions i <= bound (1-based)."""
    if not 1 <= bound <= len(word) - 1:
        raise ValueError(f"bound {bound} out of range for length {len(word)}")
    return sum(1 for i in range(bound) if word[i] < word[i + 1])


def peak_count(path):
    return len(peaks(path))


def half_peak_count(path):
    """Peaks with x-coordinate at most the midpoint (the symmetric statistic)."""
    mid = semi_length(path)
    return sum(1 for x in peaks(path) if x <= mid)

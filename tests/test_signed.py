import itertools

import pytest

from poplat.errors import GuardError
from poplat.families import FAMILIES
from poplat.signed import (
    complement_reverse,
    enumerate_signed,
    large_blocks,
    validate_signed,
)
from poplat.tamari import tam_b_elements
from poplat.words import ascending_runs, index_of, reverse_runs
from congruence import large_half
from word_stats import bounded_ascent_count, mid_run


def test_validate_examples():
    assert validate_signed((6, 5, 7, 1, 8, 2, 4, 3)) == (6, 5, 7, 1, 8, 2, 4, 3)
    with pytest.raises(ValueError, match="i=1"):
        validate_signed((2, 1, 3, 4))
    assert validate_signed((1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        validate_signed((1, 2, 3))  # odd length


def test_enumerate_small():
    assert enumerate_signed(1) == ((1, 2), (2, 1))
    assert enumerate_signed(2) == (
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (2, 1, 4, 3),
        (2, 4, 1, 3),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
        (4, 2, 3, 1),
        (4, 3, 2, 1),
    )
    assert len(enumerate_signed(3)) == 48


def is_signed(word) -> bool:
    m = len(word)
    return all(word[i] + word[m - 1 - i] == m + 1 for i in range(m // 2))


def test_enumerate_direct_matches_filter():
    # oracle: filter S_{2n} in lexicographic order, every rank through 4
    for n in range(5):
        filtered = tuple(
            p
            for p in itertools.permutations(range(1, 2 * n + 1))
            if is_signed(p)
        )
        assert enumerate_signed(n) == filtered


def test_enumerate_counts_and_guard():
    import math

    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_signed(n)) == 2**n * math.factorial(n)
    # the signed ranks a caller may ask for are bounded by the registry's
    # memory budget: weak-b 7 is the first rank refused
    FAMILIES["weak-b"].admit(6)
    with pytest.raises(GuardError):
        FAMILIES["weak-b"].admit(7)


def test_ascent_decomposition_examples():
    # the ascending runs, and the paper's mid(x): the run holding positions
    # n and n+1, or () when they lie in two runs
    x = (6, 8, 2, 4, 5, 7, 1, 3)
    assert ascending_runs(x) == [(6, 8), (2, 4, 5, 7), (1, 3)]
    assert mid_run(x) == (2, 4, 5, 7)
    assert mid_run((6, 8, 2, 5, 4, 7, 1, 3)) == ()
    assert mid_run((2, 1, 4, 3)) == (1, 4)

    ident = tuple(range(1, 9))
    assert ascending_runs(ident) == [ident] and mid_run(ident) == ident


def test_half_decomposition_examples():
    # the large entries (>= n+1) and their maximal blocks
    x = (6, 5, 7, 1, 8, 2, 4, 3)
    assert large_half(x) == (6, 5, 7, 8)
    assert large_blocks(x) == [(6, 5, 7), (8,)]

    assert large_half((2, 1, 4, 3)) == (4, 3)
    assert large_blocks((2, 1, 4, 3)) == [(4, 3)]

    assert large_blocks((1, 3, 2, 4)) == [(3,), (4,)]
    assert large_blocks(()) == []


def test_half_blocks_flanked_by_small_entries():
    n = 3
    for x in enumerate_signed(n):
        for b in large_blocks(x):
            start = x.index(b[0])
            end = start + len(b)
            assert x[start:end] == b
            if start > 0:
                assert x[start - 1] <= n
            if end < 2 * n:
                assert x[end] <= n


def test_reconstruction_and_mirror_identity():
    for n in (1, 2, 3, 4):
        for x in enumerate_signed(n):
            blocks = large_blocks(x)
            rebuilt = [v if v <= n else None for v in x]
            for b in blocks:
                start = x.index(b[0])
                rebuilt[start : start + len(b)] = b
            assert tuple(rebuilt) == x
            assert tuple(itertools.chain.from_iterable(blocks)) == large_half(x)
            small_reversed = tuple(2 * n + 1 - v for v in reversed(x) if v <= n)
            assert small_reversed == large_half(x)
            mirrored = (complement_reverse(b, 2 * n) for b in reversed(blocks))
            assert tuple(itertools.chain.from_iterable(mirrored)) == tuple(
                v for v in x if v <= n
            )


def test_half_and_rev_commute_on_carrier():
    # entries >= n+1 keep their block structure under run reversal
    for n in (1, 2, 3, 4, 5):
        for x in tam_b_elements(n):
            assert large_half(reverse_runs(x)) == reverse_runs(large_half(x))


def test_half_blocks_increase_on_carrier():
    for n in (1, 2, 3, 4, 5):
        for x in tam_b_elements(n):
            blocks = large_blocks(x)
            for prev, cur in zip(blocks, blocks[1:]):
                assert min(cur) > max(prev)


def test_large_values_in_first_run_when_one_short_of_max():
    # if the upward cover count is n-1, any large value in the left half
    # must lie in the first ascending run
    for n in (1, 2, 3, 4):
        for x in enumerate_signed(n):
            if bounded_ascent_count(x, n) != n - 1:
                continue
            first = set(ascending_runs(x)[0])
            for j in range(n + 1, 2 * n + 1):
                if index_of(x, j) <= n:
                    assert j in first, (x, j)


def test_complement_reverse():
    assert complement_reverse((6, 5, 7), 8) == (2, 4, 3)
    assert complement_reverse((8,), 8) == (1,)
    assert complement_reverse((), 8) == ()

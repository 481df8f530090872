import itertools

import pytest

from poplat.errors import GuardError
from poplat.families import FAMILIES
from poplat.signed import (
    HalfBlock,
    ascent_decomposition,
    complement_reverse,
    enumerate_signed,
    half_decomposition,
    validate_signed,
)
from poplat.tamari import tam_b_elements
from poplat.words import index_of, reverse_runs
from word_stats import bounded_ascent_count


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
    d = ascent_decomposition((6, 8, 2, 4, 5, 7, 1, 3))
    assert d.runs == ((6, 8), (2, 4, 5, 7), (1, 3))
    assert d.lengths == (2, 4, 2)
    assert d.mid == (2, 4, 5, 7)
    assert d.run(1) == (6, 8) and d.run(-1) == (1, 3) and d.run(-2) == (2, 4, 5, 7)

    d2 = ascent_decomposition((6, 8, 2, 5, 4, 7, 1, 3))
    assert d2.mid == ()

    ident = tuple(range(1, 9))
    d3 = ascent_decomposition(ident)
    assert d3.runs == (ident,) and d3.mid == ident


def test_half_decomposition_examples():
    d = half_decomposition((6, 5, 7, 1, 8, 2, 4, 3))
    assert d.half == (6, 5, 7, 8)
    assert [(b.start, b.values) for b in d.blocks] == [(1, (6, 5, 7)), (5, (8,))]
    assert d.complements == ((2, 4, 3), (1,))
    assert [len(b) for b in d.blocks] == [3, 1]

    d2 = half_decomposition((2, 1, 4, 3))
    assert d2.half == (4, 3)
    assert [(b.start, b.values) for b in d2.blocks] == [(3, (4, 3))]

    d3 = half_decomposition((1, 3, 2, 4))
    assert [b.values for b in d3.blocks] == [(3,), (4,)]
    assert d3.complements == ((2,), (1,))


def test_half_blocks_flanked_by_small_entries():
    for x in enumerate_signed(3):
        d = half_decomposition(x)
        n = 3
        for b in d.blocks:
            lo, hi = b.start - 1, b.start + len(b)  # 1-based neighbours
            if lo >= 1:
                assert x[lo - 1] <= n
            if hi <= 2 * n:
                assert x[hi - 1] <= n


def test_reconstruction_and_mirror_identity():
    for n in (1, 2, 3, 4):
        for x in enumerate_signed(n):
            d = half_decomposition(x)
            rebuilt = list(x)
            for b in d.blocks:
                rebuilt[b.start - 1 : b.start - 1 + len(b)] = b.values
            assert tuple(rebuilt) == x
            small_reversed = tuple(2 * n + 1 - v for v in reversed(x) if v <= n)
            assert small_reversed == d.half


def test_half_and_rev_commute_on_carrier():
    # entries >= n+1 keep their block structure under run reversal
    for n in (1, 2, 3, 4, 5):
        for x in tam_b_elements(n):
            rx = reverse_runs(x)
            lhs = half_decomposition(rx).half
            rhs = reverse_runs(half_decomposition(x).half)
            assert lhs == rhs


def test_half_blocks_increase_on_carrier():
    for n in (1, 2, 3, 4, 5):
        for x in tam_b_elements(n):
            blocks = half_decomposition(x).blocks
            for prev, cur in zip(blocks, blocks[1:]):
                assert min(cur.values) > max(prev.values)


def test_large_values_in_first_run_when_one_short_of_max():
    # if the upward cover count is n-1, any large value in the left half
    # must lie in the first ascending run
    for n in (1, 2, 3, 4):
        for x in enumerate_signed(n):
            if bounded_ascent_count(x, n) != n - 1:
                continue
            first = set(ascent_decomposition(x).runs[0])
            for j in range(n + 1, 2 * n + 1):
                if index_of(x, j) <= n:
                    assert j in first, (x, j)


def test_complement_reverse():
    assert complement_reverse((6, 5, 7), 8) == (2, 4, 3)
    assert complement_reverse((8,), 8) == (1,)
    assert complement_reverse((), 8) == ()


def test_decomposition_records_are_immutable_and_equal_by_fields():
    d = half_decomposition((2, 1, 4, 3))
    assert d == ((4, 3), (HalfBlock(3, (4, 3)),), ((2, 1),))
    block = d.blocks[0]
    assert block == HalfBlock(3, (4, 3)) != HalfBlock(2, (4, 3))
    assert hash(block) == hash(HalfBlock(3, (4, 3)))
    assert repr(block) == "HalfBlock(start=3, values=(4, 3))"
    for change in (lambda: setattr(block, "start", 1), lambda: delattr(block, "values"),
                   lambda: setattr(d, "half", ())):
        with pytest.raises(AttributeError):
            change()
    assert ascent_decomposition((2, 1, 4, 3)) == (((2,), (1, 4), (3,)), (1, 2, 1), (1, 4))

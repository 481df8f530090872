import itertools

import pytest

from poplat.words import (
    binomial,
    descending_runs,
    format_word,
    has_double_descent,
    index_of,
    parse_word,
    reduction,
    reverse_runs,
)
from patterns import (
    LARGE,
    P213_STAR,
    P231_STAR,
    P312,
    P312_STAR,
    P312_STAR_BIG,
    P312_STAR_SMALL,
    SMALL,
    VINCULAR_312,
    VINCULAR_312_STAR,
    PatternSpec,
    contains_pattern,
)
from word_stats import bounded_ascent_count, descent_count


def test_reduction_examples():
    assert reduction((8, 5, 1, 2)) == (4, 3, 1, 2)
    assert reduction((1, 2, 3)) == (1, 2, 3)
    assert reduction((10, 5, 1, 2)) == (4, 3, 1, 2)


def test_reduction_rank_by_comparison_oracle():
    def oracle(w):
        return tuple(sum(1 for u in w if u <= v) for v in w)

    for w in [(8, 5, 1, 2), (10, 5, 1, 2), (3, 1, 4, 1 + 4, 9, 2, 6), (7,)]:
        assert reduction(w) == oracle(w)


def test_reduction_idempotent_exhaustive():
    # every reduced form is a permutation and reduces to itself
    for m in range(0, 9):
        for p in itertools.permutations(range(1, m + 1)):
            assert reduction(p) == p
    # words with shifted entries reduce to a fixed point in one step
    for m in range(1, 8):
        for p in itertools.permutations(range(2, 2 * m + 2, 2)):
            r = reduction(p)
            assert reduction(r) == r


def test_index_of():
    assert index_of((4, 3, 1, 2), 3) == 2
    assert index_of((1,), 1) == 1
    assert index_of((5, 1, 7, 6, 3, 2, 8, 4), 8) == 7
    with pytest.raises(ValueError):  # tuple.index's own refusal
        index_of((1, 2), 3)
    with pytest.raises(ValueError):
        index_of((), 1)


def test_descending_runs():
    assert descending_runs((5, 1, 7, 6, 3, 2, 8, 4)) == [
        (5, 1),
        (7, 6, 3, 2),
        (8, 4),
    ]
    assert descending_runs((1, 2, 3, 4)) == [(1,), (2,), (3,), (4,)]
    assert descending_runs((4, 3, 2, 1)) == [(4, 3, 2, 1)]
    assert descending_runs(()) == []


def test_reverse_runs():
    assert reverse_runs((5, 1, 7, 6, 3, 2, 8, 4)) == (1, 5, 2, 3, 6, 7, 4, 8)
    assert reverse_runs((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert reverse_runs((4, 3, 2, 1)) == (1, 2, 3, 4)


def test_reverse_runs_properties():
    for p in itertools.permutations(range(1, 7)):
        r = reverse_runs(p)
        assert sorted(r) == sorted(p)
        offset = 0
        for run in descending_runs(p):
            piece = r[offset : offset + len(run)]
            assert list(piece) == sorted(piece)
            offset += len(run)


def test_descent_and_ascent_counts():
    assert descent_count((5, 1, 7, 6, 3, 2, 8, 4)) == 5
    assert descent_count((1, 2, 3, 4, 5)) == 0
    assert bounded_ascent_count((3, 1, 4, 2), 2) == 1
    with pytest.raises(ValueError):
        bounded_ascent_count((1, 2), 3)


def test_pattern_examples():
    assert contains_pattern((5, 2, 1, 4, 3), VINCULAR_312)
    assert not contains_pattern((3, 1, 4, 2), P312_STAR)
    assert not contains_pattern((2, 3, 1, 4, 5), P312)
    assert contains_pattern((4, 2, 3, 1), P312_STAR)
    assert contains_pattern((5, 2, 1, 4, 3), P312)
    # 513 is a 312 occurrence of 52143 but not vincular (5 and 1 not adjacent
    # in the witness 5,1,3 they are adjacent; the vincular spec still holds)
    assert contains_pattern((5, 2, 4, 1, 3), P312)


def test_pattern_star_requires_even_host():
    with pytest.raises(ValueError):
        contains_pattern((3, 1, 2), P312_STAR)


def test_pattern_oracle_plain():
    """Backtracking agrees with the all-subsequences oracle."""
    patterns = [
        p
        for k in range(1, 5)
        for p in itertools.permutations(range(1, k + 1))
    ]

    def oracle(host, pat):
        k = len(pat)
        return any(
            reduction(sub) == pat
            for sub in itertools.combinations(host, k)
        )

    hosts = [
        p for m in range(1, 7) for p in itertools.permutations(range(1, m + 1))
    ]
    # include all of S_7 but only the length-4 patterns there, to keep runtime sane
    hosts7 = list(itertools.permutations(range(1, 8)))
    for host in hosts:
        for pat in patterns:
            spec = PatternSpec(pat)
            assert contains_pattern(host, spec) == oracle(host, pat), (host, pat)
    four_patterns = [p for p in patterns if len(p) == 4]
    for host in hosts7[:: 7]:
        for pat in four_patterns:
            assert contains_pattern(host, PatternSpec(pat)) == oracle(host, pat)


def test_vincular_oracle():
    """Adjacency-constrained search agrees with an index-based oracle."""

    def oracle(host, pat, adjacent):
        k = len(pat)
        for positions in itertools.combinations(range(len(host)), k):
            if reduction(tuple(host[i] for i in positions)) != pat:
                continue
            if all(
                not adj or positions[i + 1] == positions[i] + 1
                for i, adj in enumerate(adjacent)
            ):
                return True
        return False

    specs = [
        ((3, 1, 2), (True, False)),
        ((3, 1, 2), (False, True)),
        ((3, 2, 1), (True, True)),
        ((2, 1, 3), (True, False)),
    ]
    for host in itertools.permutations(range(1, 7)):
        for pat, adj in specs:
            spec = PatternSpec(pat, adjacent=adj)
            assert contains_pattern(host, spec) == oracle(host, pat, adj)


def test_big_or_small_equals_star():
    for m in (2, 4, 6, 8):
        for host in itertools.permutations(range(1, m + 1)):
            star = contains_pattern(host, P312_STAR)
            big = contains_pattern(host, P312_STAR_BIG)
            small = contains_pattern(host, P312_STAR_SMALL)
            assert star == (big or small)


def test_star_variants_definitions():
    # 213 with small first entry; 231 with small last entry
    assert contains_pattern((2, 1, 4, 3), P213_STAR)
    assert contains_pattern((3, 1, 4, 2), PatternSpec((2, 1, 3)))
    assert not contains_pattern((3, 1, 4, 2), P213_STAR)
    assert contains_pattern((2, 4, 1, 3), P231_STAR)
    assert contains_pattern((1, 2, 3, 5, 6, 4), PatternSpec((2, 3, 1)))
    assert not contains_pattern((1, 2, 3, 5, 6, 4), P231_STAR)


def test_vincular_star_pattern():
    # adjacent high pair with a later large middle value
    assert contains_pattern((2, 4, 1, 3), VINCULAR_312_STAR)
    assert not contains_pattern((3, 1, 4, 2), VINCULAR_312_STAR)
    # occurrences of this pattern are exactly what the type-B projection
    # removes together with their mirror images
    from reference import project_tam_b

    for host in [(2, 4, 1, 3), (3, 4, 1, 2), (4, 2, 3, 1)]:
        projected = project_tam_b(host)
        assert not contains_pattern(projected, VINCULAR_312_STAR)


def test_double_descent():
    assert has_double_descent((3, 2, 1))
    assert not has_double_descent((2, 1, 3))
    assert not has_double_descent((1, 3, 2, 4))


def test_binomial_against_factorial_oracle():
    import math

    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == math.factorial(n) // (
                math.factorial(k) * math.factorial(n - k)
            )
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-1, 0, generalized=True) == 1
    assert binomial(-2, 3, generalized=True) == -4
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_word_text_round_trip():
    assert parse_word("5,1,7,6,3,2,8,4") == (5, 1, 7, 6, 3, 2, 8, 4)
    assert format_word((5, 1, 7)) == "5,1,7"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("1,2,x")
    with pytest.raises(ValueError):
        parse_word("1,1")


def test_pattern_spec_checks_its_fields():
    assert P312_STAR == ((3, 1, 2), (), ((3, LARGE),))
    assert hash(P312_STAR) == hash(PatternSpec((3, 1, 2), bounds=((3, LARGE),)))
    with pytest.raises(AttributeError):
        P312_STAR.bounds = ()
    with pytest.raises(ValueError, match="adjacency mask"):
        PatternSpec((3, 1, 2), adjacent=(True,))
    for bound in ((4, LARGE), (0, SMALL), (1, "huge")):
        with pytest.raises(ValueError, match="bad bound"):
            PatternSpec((3, 1, 2), bounds=(bound,))

import itertools
import math
import os

import pytest

from poplat.families import FAMILIES
from poplat.formulas import census_prediction, weak_b_coefficient
from poplat.signed import enumerate_signed, signed_words, validate_signed
from poplat.weak import (
    image_census_by_first_entry,
    image_run_condition,
    pop_weak,
    pop_weak_up,
    weak_a_lattice,
    weak_b_lattice,
)
from reference import _weak_b_pairs, lower_covers, reference_build, upper_covers
from word_stats import (
    bounded_ascent_count,
    weak_a_lower_covers,
    weak_b_covers,
    weak_b_lower_covers,
)


def weak_b_upper_cover_count(x):
    """Cover count read off the word itself: ascents at positions <= n."""
    return bounded_ascent_count(x, len(x) // 2)


def staircase_image_element(n, j):
    """The explicit image element with first entry 1 indexed by 1 <= j <= n-1.

    Five pieces: a 1, then j consecutive high values, an identity stretch,
    the j low values mirroring the high ones, and the final 2n.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must satisfy 1 <= j <= n-1, got {j}")
    x = [0] * (2 * n)
    x[0] = 1
    for i in range(2, j + 2):
        x[i - 1] = 2 * n - j + i - 2
    for i in range(j + 2, 2 * n - j):
        x[i - 1] = i
    for i in range(2 * n - j, 2 * n):
        x[i - 1] = j + i - 2 * n + 2
    x[2 * n - 1] = 2 * n
    return validate_signed(tuple(x))


def test_pop_direct_examples():
    assert pop_weak((5, 1, 7, 6, 3, 2, 8, 4)) == (1, 5, 2, 3, 6, 7, 4, 8)
    assert pop_weak((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert pop_weak((3, 4, 1, 2)) == (3, 1, 4, 2)
    assert pop_weak_up((3, 4, 1, 2)) == (4, 3, 2, 1)
    assert pop_weak_up((1, 3, 2, 4)) == (3, 1, 4, 2)


def test_lower_covers_read_off_word():
    for m in (1, 2, 3, 4, 5):
        lat = weak_a_lattice(m)
        for p in lat.elements:
            assert sorted(weak_a_lower_covers(p)) == sorted(lower_covers(lat, p))
    for n in (0, 1, 2, 3, 4):
        lat = weak_b_lattice(n)
        for x in lat.elements:
            assert sorted(weak_b_lower_covers(x)) == sorted(lower_covers(lat, x))


def test_ranked_signed_words_match_the_tuple_swap_reference():
    """The enumerator's cover ranks equal the ranks of the spelled-out
    mirrored swaps, list by list and in the same order, at every admitted
    rank; its words are 2^n n! distinct signed permutations in lex order."""
    for n in range(7):
        uppers, ranks = [], []
        words = signed_words(n, uppers, ranks)
        assert words == sorted(set(map(validate_signed, words)))
        assert len(words) == 2**n * math.factorial(n)
        assert tuple(words) == enumerate_signed(n)
        index = {x: i for i, x in enumerate(words)}
        assert uppers == [[index[y] for y in weak_b_covers(x)] for x in words], n
        assert ranks == list(range(len(words)))
        assert all(ranks[j] is j for ups in uppers for j in ups)


def test_weak_a_cover_counts_are_ascents():
    lat = weak_a_lattice(5)
    for p in lat.elements:
        ascents = sum(1 for i in range(4) if p[i] < p[i + 1])
        assert len(upper_covers(lat, p)) == ascents
    assert lat.bottom == (1, 2, 3, 4, 5)
    assert lat.top == (5, 4, 3, 2, 1)


def test_weak_b_cover_counts_read_off_word():
    for n in (1, 2, 3, 4):
        lat = weak_b_lattice(n)
        for x in lat.elements:
            assert len(upper_covers(lat, x)) == weak_b_upper_cover_count(x)


def test_weak_b_is_sublattice_of_ambient_weak_order():
    for n in (2, 3):
        big = weak_a_lattice(2 * n)
        small = weak_b_lattice(n)
        for x, y in itertools.combinations(small.elements, 2):
            assert small.meet(x, y) == big.meet(x, y)
            assert small.join(x, y) == big.join(x, y)


def test_image_run_condition_examples():
    assert image_run_condition((1, 5, 2, 3, 6, 7, 4, 8))
    # runs 56|34|12: the first run starts above where the next one ends
    assert not image_run_condition((5, 6, 3, 4, 1, 2))
    assert image_run_condition(tuple(range(1, 9)))


def test_run_condition_is_exactly_the_weak_a_image():
    predicate = FAMILIES["weak-a"].predicate
    sizes = []
    for m in range(1, 8):
        lat = weak_a_lattice(m)
        image = lat.pop_image("down")
        assert all(predicate(p) == (p in image) for p in lat.elements), m
        sizes.append(len(image))
    assert sizes == [1, 1, 3, 11, 49, 263, 1653]


def test_each_weak_family_checks_its_own_input():
    assert FAMILIES["weak-a"].predicate((2, 1, 3))
    with pytest.raises(ValueError):
        FAMILIES["weak-a"].predicate((2, 2, 3))
    with pytest.raises(ValueError):
        FAMILIES["weak-b"].predicate((2, 3, 1, 4))  # not centrally symmetric


def run_condition_image_size(n):
    """Check the run condition against image membership on every element of
    the signed weak order B_n, both ways; return the image's size."""
    lat = weak_b_lattice(n, validate=False)
    image = lat.pop_image("down")
    for z in lat.elements:
        assert image_run_condition(z) == (z in image), z
    return len(image)


def test_image_run_condition_is_necessary():
    # and sufficient on B_1..B_5, as data: no proof of sufficiency for every n
    # is quoted, so the weak-b family keeps `predicate_necessary_only`
    assert FAMILIES["weak-b"].predicate_necessary_only
    assert [run_condition_image_size(n) for n in range(1, 6)] == [1, 5, 27, 191, 1719]


@pytest.mark.skipif(not os.environ.get("POPLAT_OPT_IN"), reason="set POPLAT_OPT_IN=1")
def test_image_run_condition_is_exact_on_b6():
    assert run_condition_image_size(6) == 18585


def test_padding_preserves_image_membership():
    # x = 1.(y+1).2n is in the rank-n image whenever y is in the rank-(n-1) image
    for n in (2, 3, 4):
        inner = weak_b_lattice(n - 1).pop_image("down")
        outer = weak_b_lattice(n).pop_image("down")
        for y in inner:
            x = (1,) + tuple(v + 1 for v in y) + (2 * n,)
            assert x in outer, x


def test_staircase_image_elements():
    assert staircase_image_element(3, 1) == (1, 5, 3, 4, 2, 6)
    assert staircase_image_element(2, 1) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        staircase_image_element(3, 3)
    for n in (2, 3, 4):
        image = weak_b_lattice(n).pop_image("down")
        for j in range(1, n):
            x = staircase_image_element(n, j)
            assert x in image, (n, j)
            assert weak_b_upper_cover_count(x) == n - 1


def test_first_entry_one_classification():
    # image elements with first entry 1 and n-1 upward covers are either
    # padded lower-rank image elements or staircase elements
    for n in (2, 3, 4):
        lat = weak_b_lattice(n)
        image = lat.pop_image("down")
        inner_image = weak_b_lattice(n - 1).pop_image("down")
        staircases = {staircase_image_element(n, j) for j in range(1, n)}
        for x in image:
            if x[0] != 1 or weak_b_upper_cover_count(x) != n - 1:
                continue
            y = tuple(v - 1 for v in x[1:-1])
            assert y in inner_image or x in staircases, x


def test_census_against_prediction():
    assert image_census_by_first_entry(1) == {1: 0, 2: 0}
    for n in (2, 3, 4):
        counted = image_census_by_first_entry(n)
        assert counted == census_prediction(n), n
        assert sum(counted.values()) == weak_b_coefficient(n)
    assert census_prediction(2) == {1: 1, 2: 2, 3: 1, 4: 0}


def test_census_counts_in_index_space_like_the_key_space_oracle():
    """The census reads the image's covers by index, so it never builds the
    key index, and it counts what the key-pair reference counts."""
    for n in range(1, 6):
        weak_b_lattice.cache_clear()
        counted = image_census_by_first_entry(n)
        assert weak_b_lattice(n)._index is None
        ref = reference_build(*_weak_b_pairs(n))
        expected = {i: 0 for i in range(1, 2 * n + 1)}
        for z in ref.pop_image("down"):
            if len(ref.upper_covers(z)) == n - 1:
                expected[z[0]] += 1
        assert counted == expected, n


def test_top_coefficient_matches_formula():
    for n in (1, 2, 3, 4):
        poly = weak_b_lattice(n).pop_polynomial("down")
        assert poly[n - 1] == weak_b_coefficient(n)
    assert [weak_b_coefficient(n) for n in (1, 2, 3, 4)] == [0, 4, 20, 72]


def test_duality_on_weak_lattices():
    for m in (2, 3, 4, 5):
        lat = weak_a_lattice(m)
        assert lat.pop_polynomial("down") == lat.pop_polynomial("up")
    for n in (1, 2, 3, 4):
        lat = weak_b_lattice(n)
        assert lat.pop_polynomial("down") == lat.pop_polynomial("up")


def test_weak_a_top_coefficient_known_values():
    # the classical count for one-short-of-max cover counts: 2^m - 2m
    for m in (3, 4, 5):
        poly = weak_a_lattice(m).pop_polynomial("down")
        assert poly[m - 2] == 2**m - 2 * m

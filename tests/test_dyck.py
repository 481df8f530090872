import math

import pytest

from poplat.dyck import (
    _prefixes,
    all_paths,
    check_path,
    flip_peaks_down,
    flip_valleys_up,
    flippable_peaks,
    heights,
    image_predicate_a,
    is_symmetric,
    j_a_lattice,
    j_b_lattice,
    peaks,
    pop_up_polynomial_a,
    pop_up_polynomial_b,
    symmetric_paths,
)
from poplat.errors import GuardError
from poplat.families import FAMILIES
from poplat.lattice import QPoly, index_uppers
from reference import lower_covers, pop_down, pop_up, reference_build
from word_stats import (
    half_peak_count,
    image_set_census,
    j_a_uppers,
    j_b_upper_covers,
    lower_cover_count_a,
    lower_cover_count_b,
    peak_count,
    recursive_prefixes,
    recursive_symmetric_paths,
    valleys,
)


def elevate(path):
    """Wrap in a rise and a fall; inverse of `strip_elevation`."""
    return "r" + path + "f"


def strip_elevation(path):
    """Remove the first rise and last fall of an axis-avoiding path."""
    if not path or path[0] != "r" or path[-1] != "f":
        raise ValueError(f"cannot strip {path!r}")
    return path[1:-1]


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def test_check_path():
    check_path("rrfrff")
    with pytest.raises(ValueError):
        check_path("rfr")
    with pytest.raises(ValueError):
        check_path("frrf")
    with pytest.raises(ValueError):
        check_path("rxrf")


def test_heights_valleys_peaks():
    assert heights("rfrf") == [0, 1, 0, 1, 0]
    assert valleys("rfrf") == [2]
    assert peaks("rfrf") == [1, 3]
    assert valleys("rrff") == []
    assert peaks("rrff") == [2]
    assert flippable_peaks("rrff") == [2]
    assert flippable_peaks("rfrf") == []


def test_flip_valleys_up_examples():
    assert flip_valleys_up("rfrf") == "rrff"
    assert flip_valleys_up("rfrfrf") == "rrfrff"
    assert flip_valleys_up("rrrfff") == "rrrfff"


def test_all_paths_counts():
    for m in range(8):
        assert len(all_paths(m)) == catalan(m)
        assert list(all_paths(m)) == sorted(all_paths(m))


def test_joined_paths_match_the_recursive_reference():
    """The join of two half-tables lists the recursion's paths, in its order."""
    for m in range(11):
        assert list(all_paths(m)) == recursive_prefixes(2 * m, True), m
    for n in range(7):
        assert list(symmetric_paths(n)) == recursive_symmetric_paths(n), n


def test_symmetric_paths():
    for n in range(1, 6):
        paths = symmetric_paths(n)
        assert len(paths) == math.comb(2 * n, n)
        assert all(is_symmetric(p) for p in paths)
        assert all(len(p) == 4 * n for p in paths)
        assert list(paths) == sorted(paths)
    assert symmetric_paths(1) == ("rfrf", "rrff")


def test_j_a_lattice_small():
    lat2 = j_a_lattice(2)
    assert len(lat2) == 2
    assert lat2.elements == ("rfrf", "rrff")
    lat3 = j_a_lattice(3)
    assert len(lat3) == 5
    assert lat3.elements[0] == "rfrfrf" and lat3.elements[-1] == "rrrfff"
    assert lat3.pop_image("up") == {"rrrfff", "rrfrff"}
    assert pop_up(lat3, "rfrfrf") == "rrfrff"
    assert len(j_a_lattice(1)) == 1
    with pytest.raises(GuardError):
        FAMILIES["j-a"].admit(11)


def test_ranked_paths_match_the_string_scan_reference():
    """The enumerator's valley-flip ranks equal the find/count scan's, list
    by list and in the same order, at every admitted semi-length."""
    for m in range(11):
        uppers, ranks = [], []
        paths = _prefixes(2 * m, True, uppers, ranks)
        assert tuple(paths) == all_paths(m)
        assert uppers == j_a_uppers(all_paths(m), m), m
        assert ranks == list(range(len(paths)))
        assert all(ranks[j] is j for ups in uppers for j in ups)


def test_j_b_ranks_match_the_spelled_out_covers():
    """The first halves' valley-flip ranks equal the ranks of the flipped
    orbits, spelled out and looked up, list by list and in the same order."""
    for n in range(7):
        uppers, ranks = [], []
        paths = _prefixes(2 * n, False, uppers, ranks)
        assert tuple(paths) == symmetric_paths(n)
        assert uppers == index_uppers(paths, j_b_upper_covers), n
        assert ranks == list(range(len(paths)))
        assert all(ranks[j] is j for ups in uppers for j in ups)


def test_j_b_lattice_small():
    lat1 = j_b_lattice(1)
    assert len(lat1) == 2
    assert lat1.cover_pairs() == [("rfrf", "rrff")]
    lat2 = j_b_lattice(2)
    assert len(lat2) == 6
    assert lat2.pop_image("up") == {"rrrrffff", "rrrfrfff", "rrfrfrff"}
    assert lat2.pop_polynomial("down") == QPoly({2: 1, 1: 2})
    assert lat2.pop_polynomial("up") == QPoly({2: 1, 1: 2})
    with pytest.raises(GuardError):
        FAMILIES["j-b"].admit(10)


def test_j_b_is_sublattice_of_j_a():
    """What `j_b_lattice` claims: its meets and joins are j-a's, on the
    reference lattices of both cover relations."""
    for n in (1, 2, 3):
        big, small = (reference_build(lat.elements, lat.cover_pairs())
                      for lat in (j_a_lattice(2 * n), j_b_lattice(n)))
        els = small.elements
        for x in els:
            for y in els:
                assert small.meet(x, y) == big.meet(x, y)
                assert small.join(x, y) == big.join(x, y)


def test_pop_up_direct_equals_lattice():
    for m in range(1, 9):
        lat = j_a_lattice(m)
        for p in lat.elements:
            assert pop_up(lat, p) == flip_valleys_up(p)
    for n in range(1, 5):
        lat = j_b_lattice(n)
        for p in lat.elements:
            assert pop_up(lat, p) == flip_valleys_up(p)


def test_pop_down_direct_equals_lattice():
    for m in range(0, 9):
        lat = j_a_lattice(m)
        for p in lat.elements:
            assert pop_down(lat, p) == flip_peaks_down(p), p
    for n in range(1, 6):
        lat = j_b_lattice(n)
        for p in lat.elements:
            assert pop_down(lat, p) == flip_peaks_down(p), p
    assert flip_peaks_down("rfrrfrff") == "rfrfrfrf"  # the height-1 peak stays


def test_pop_up_preserves_symmetry():
    for n in range(1, 6):
        for p in symmetric_paths(n):
            assert is_symmetric(flip_valleys_up(p))


def test_image_predicate_examples():
    assert image_predicate_a("rrff")
    assert not image_predicate_a("rfrf")
    assert not image_predicate_a("rrffrrff")
    # j-b tests its symmetric paths with the same predicate; the registry
    # refuses a path that is not symmetric before any test
    assert FAMILIES["j-b"].predicate is image_predicate_a
    assert image_predicate_a("rrfrfrff")
    assert not image_predicate_a("rrffrrff")  # symmetric but contains ffrr
    with pytest.raises(ValueError, match=r"^not symmetric: 'rrffrfrf'$"):
        FAMILIES["j-b"].parse("rrffrfrf")  # valid path, not symmetric


def test_image_predicates_match_brute_force():
    for m in range(1, 10):
        image = {flip_valleys_up(p) for p in all_paths(m)}
        for p in all_paths(m):
            assert image_predicate_a(p) == (p in image), (m, p)
    for n in range(1, 6):
        image = {flip_valleys_up(p) for p in symmetric_paths(n)}
        for p in symmetric_paths(n):
            assert image_predicate_a(p) == (p in image), (n, p)


def test_statistics_examples():
    lat = j_a_lattice(3)
    assert len(lower_covers(lat, "rrrfff")) == 1
    lat2 = j_a_lattice(2)
    assert len(lower_covers(lat2, "rfrf")) == 0
    assert peak_count("rfrf") == 2
    assert half_peak_count("rrfrfrff") == 2


def test_lower_cover_counts_match_lattice():
    for m in range(1, 9):
        lat = j_a_lattice(m)
        for p in lat.elements:
            assert len(lower_covers(lat, p)) == lower_cover_count_a(p)
    for n in range(1, 5):
        lat = j_b_lattice(n)
        for p in lat.elements:
            assert len(lower_covers(lat, p)) == lower_cover_count_b(p)


def test_lower_cover_counts_match_flippable_peaks():
    for m in range(11):
        for p in all_paths(m):
            assert lower_cover_count_a(p) == len(flippable_peaks(p)), p
            assert lower_cover_count_b(p) == sum(1 for x in flippable_peaks(p) if x <= m), p


def test_image_peaks_all_flippable():
    # the semi-length-1 image element "rf" has no interior, so its single
    # height-1 peak is the one place the peak-count reading of the lower-cover
    # statistic breaks; from semi-length 2 on, image elements stay strictly
    # above the axis and every peak is flippable
    assert lower_cover_count_a("rf") == 0 and peak_count("rf") == 1
    for m in range(2, 10):
        for p in all_paths(m):
            if image_predicate_a(p):
                assert lower_cover_count_a(p) == peak_count(p)


def test_image_statistic_is_half_peaks():
    for n in range(1, 6):
        for p in symmetric_paths(n):
            if image_predicate_a(p):
                assert lower_cover_count_b(p) == half_peak_count(p)


def test_elevation_bijection():
    for m in range(1, 10):
        image = [p for p in all_paths(m) if image_predicate_a(p)]
        stripped = {strip_elevation(p) for p in image}
        avoiders = {w for w in all_paths(m - 1) if "ffrr" not in w}
        assert stripped == avoiders
        for p in image:
            w = strip_elevation(p)
            assert elevate(w) == p
            if w:
                assert peak_count(w) == peak_count(p)
            else:
                assert peak_count(p) == 1


def test_direct_polynomials_match_lattice():
    for m in range(1, 9):
        assert pop_up_polynomial_a(m) == j_a_lattice(m).pop_polynomial("up")
    for n in range(1, 5):
        assert pop_up_polynomial_b(n) == j_b_lattice(n).pop_polynomial("up")


def test_streamed_censuses_match_the_set_based_oracle():
    """The census streamed from the join equals the set of popped paths at
    every size up to jay-a 10 (semi-length 12) and jay-b 8."""
    for m in range(13):
        assert pop_up_polynomial_a(m) == image_set_census(all_paths(m), lower_cover_count_a), m
    for n in range(9):
        assert pop_up_polynomial_b(n) == image_set_census(symmetric_paths(n), lower_cover_count_b), n


def test_duality_on_ideal_lattices():
    for m in range(1, 9):
        lat = j_a_lattice(m)
        assert lat.pop_polynomial("down") == lat.pop_polynomial("up")
    for n in range(1, 6):
        lat = j_b_lattice(n)
        assert lat.pop_polynomial("down") == lat.pop_polynomial("up")

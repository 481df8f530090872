import itertools
import math
from functools import lru_cache

import pytest

from poplat.errors import GuardError
from poplat.families import FAMILIES
from poplat.lattice import FiniteLattice
from poplat.signed import enumerate_signed
from poplat.tamari import (
    _preimage_end_one,
    _project,
    hong_image_predicate,
    pop_tam_a,
    pop_tam_b,
    preimage_ending_in_one,
    preimage_tam_b,
    tam_a_elements,
    tam_a_lattice,
    tam_b_elements,
    tam_b_image_predicate,
    tam_b_lattice,
)
from poplat.words import (
    avoids_312,
    avoids_312_star,
    index_of,
    reduction,
    reverse_runs,
)
from congruence import (
    adjacency_chain,
    large_half,
    movable_b,
    project_tam_a_by_classes,
    project_tam_b_by_classes,
    tam_a_adjacent,
    tam_b_adjacent,
    tam_b_image_predicate_as_printed,
)
from patterns import P312, P312_STAR, contains_pattern
from reference import (
    kahn_view,
    pop_up,
    preimage_end_one_by_segments,
    project_tam_a,
    project_tam_b,
    tam_a_lower_covers,
    tam_b_lower_covers,
    upper_covers,
)
from word_stats import (
    bounded_ascent_count,
    descent_count,
    weak_a_lower_covers,
    weak_b_lower_covers,
)

# --- reference oracles -------------------------------------------------------
# The filter-then-reduce construction: keep the pattern avoiders of the whole
# ambient weak order by backtracking search, then read the covers off
# inversion-set containment by transitive reduction.  Independent of the
# direct generators and of the congruence projections.


@lru_cache(maxsize=None)
def filtered_tam_a_elements(n):
    return tuple(
        p
        for p in itertools.permutations(range(1, n + 2))
        if not contains_pattern(p, P312)
    )


@lru_cache(maxsize=None)
def filtered_tam_b_elements(n):
    return tuple(
        x for x in enumerate_signed(n) if not contains_pattern(x, P312_STAR)
    )


def _inversion_mask(p):
    """Bitmask over value pairs (a, b), a < b, set when b precedes a."""
    pos = {v: i for i, v in enumerate(p)}
    m = len(p)
    out = 0
    bit = 0
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            if pos[b] < pos[a]:
                out |= 1 << bit
            bit += 1
    return out


def transitive_reduction_lattice(elements):
    """Sublattice of the weak order on a carrier, by transitive reduction."""
    masks = [_inversion_mask(p) for p in elements]
    order = sorted(range(len(elements)), key=lambda i: (bin(masks[i]).count("1"), elements[i]))
    n = len(elements)
    down = [0] * n
    for a_pos, i in enumerate(order):
        mask = 1 << a_pos
        mi = masks[i]
        for b_pos in range(a_pos):
            if masks[order[b_pos]] & ~mi == 0:
                mask |= 1 << b_pos
        down[a_pos] = mask
    covers = []
    for a_pos in range(n):
        strict = down[a_pos] ^ (1 << a_pos)
        shadow = 0
        rest = strict
        while rest:
            low = rest & -rest
            shadow |= down[low.bit_length() - 1] ^ low
            rest ^= low
        cover_mask = strict & ~shadow
        hi = elements[order[a_pos]]
        while cover_mask:
            low = cover_mask & -cover_mask
            covers.append((elements[order[low.bit_length() - 1]], hi))
            cover_mask ^= low
    return FiniteLattice.build(elements, covers, validate=False)


# The stack generator of the type-A carrier: the 312-avoiding permutations of
# {1, ..., n+1} are the outputs of a stack fed 1, 2, ..., n+1 in order (Knuth,
# TAOCP vol. 1, 2.2.1).  The next entry is either the top of the stack or some
# value j >= the next input, after pushing everything below j.  The top is
# smaller than every input left, so trying it first keeps lex order.


def stack_tam_a_elements(n):
    m = n + 1
    out = []
    word = []
    stack = []

    def grow(nxt):
        if len(word) == m:
            out.append(tuple(word))
            return
        if stack:
            top = stack.pop()
            word.append(top)
            grow(nxt)
            word.pop()
            stack.append(top)
        for j in range(nxt, m + 1):
            word.append(j)
            grow(j + 1)
            word.pop()
            stack.append(j)
        del stack[len(stack) - (m + 1 - nxt):]

    grow(1)
    return tuple(out)


# Two first-half generators of the type-B carrier, both in lexicographic
# order.  Each picks one value from each complementary pair for the first
# half; the second half is its complement-reverse.
#
# Tail-pruned: once k half entries h_1..h_k are fixed, the word's last k
# entries are known, and prefix . (2n+1-h_k, ..., 2n+1-h_1) is a subsequence
# of every completion.  Containment is monotone under subsequences, so a
# node is pruned as soon as that tail, scanned on from the prefix's gap
# state, completes a starred 312; at k = n the tail is the whole second half
# and the test is the membership test.


def bitmask_gap_scan(word, floor, state):
    """Scan `word` on from a prefix's (gaps, maximum) state, as
    `words.scan_312_gaps` scans from the empty one; None on a refused entry."""
    gaps, top = state
    for v in word:
        if gaps >> v & 1 and v >= floor:
            return None
        if v < top:
            gaps |= (1 << top) - (2 << v)  # bits v+1 .. top-1
        else:
            top = v
    return gaps, top


def gap_scan_tam_b_elements(n):
    floor = n + 1
    mirror = 2 * n + 1
    out = []
    half = []
    used = [False] * (mirror + 1)

    def grow(state, tail):
        if len(half) == n:
            out.append(tuple(half) + tail)
            return
        for v in range(1, mirror):
            if used[v]:
                continue
            nxt = bitmask_gap_scan((v,), floor, state)
            if nxt is None:
                continue
            longer = (mirror - v,) + tail
            if bitmask_gap_scan(longer, floor, nxt) is None:
                continue
            used[v] = used[mirror - v] = True
            half.append(v)
            grow(nxt, longer)
            half.pop()
            used[v] = used[mirror - v] = False

    grow((0, 0), ())
    return tuple(out)


# Mirror-checked: a gap test that keeps the gaps (a, c) as a tuple, and the
# forced mirror half checked only once the half is complete; no pruning on
# the tail and no bitmask state.


def tuple_gap_scan(word, floor, state):
    gaps, top = state
    for v in word:
        if v >= floor and any(a < v < c for a, c in gaps):
            return None
        if v < top:
            gaps += ((v, top),)
        else:
            top = v
    return gaps, top


@lru_cache(maxsize=None)
def mirror_checked_tam_b_elements(n):
    floor = n + 1
    out = []
    half = []

    def grow(state):
        if len(half) == n:
            mirror = tuple(2 * n + 1 - v for v in reversed(half))
            if tuple_gap_scan(mirror, floor, state) is not None:
                out.append(tuple(half) + mirror)
            return
        for v in range(1, 2 * n + 1):
            if v in half or 2 * n + 1 - v in half:
                continue
            nxt = tuple_gap_scan((v,), floor, state)
            if nxt is not None:
                half.append(v)
                grow(nxt)
                half.pop()

    grow(((), 0))
    return tuple(out)


# Restart-from-left rewriting: after every move, rebuild the positions and
# scan again from position 0 for the leftmost legal move.


def restart_project_tam_a(p):
    p = list(p)
    while True:
        for i in range(len(p) - 1):
            c, a = p[i], p[i + 1]
            if c > a and any(a < b < c for b in p[i + 2 :]):
                p[i], p[i + 1] = a, c
                break
        else:
            return tuple(p)


def restart_project_tam_b(x):
    x = list(x)
    last = len(x) - 1
    while True:
        for i in range(last):
            if movable_b(x, i):
                for k in {i, last - 1 - i}:
                    x[k], x[k + 1] = x[k + 1], x[k]
                break
        else:
            return tuple(x)


ORACLE_CASES = [
    pytest.param(tam_a_elements, tam_a_lattice, filtered_tam_a_elements, n, id=f"tam-a-{n}")
    for n in range(8)
] + [
    pytest.param(tam_b_elements, tam_b_lattice, filtered_tam_b_elements, n, id=f"tam-b-{n}")
    for n in range(7)
]


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def test_carrier_sizes():
    for n in range(8):
        assert len(tam_a_elements(n)) == catalan(n + 1)
    for n in range(8):
        assert len(tam_b_elements(n)) == math.comb(2 * n, n)


def test_closure_tam_b_carrier_matches_generators():
    # ORACLE_CASES hold both closures to the filter oracle up to tam-a 7 and
    # tam-b 6; that oracle takes about 36 s at tam-b 7, so it is opt-in there
    for n in range(10):
        assert tam_a_elements(n) == stack_tam_a_elements(n), n
    tam_a_elements.cache_clear()
    for n in range(8):
        closure = tam_b_elements(n)
        assert closure == gap_scan_tam_b_elements(n) == mirror_checked_tam_b_elements(n), n


@pytest.mark.opt_in
def test_closure_tam_b_carrier_matches_generators_at_the_budget():
    assert tam_b_elements(7) == filtered_tam_b_elements(7)
    for n in (8, 9):
        assert tam_b_elements(n) == gap_scan_tam_b_elements(n), n
    tam_b_elements.cache_clear()


@pytest.mark.parametrize(
    "n", [*range(8), *(pytest.param(n, marks=pytest.mark.opt_in) for n in (8, 9))]
)
def test_block_swap_covers_match_rewritten_weak_covers(n):
    for y in tam_b_elements(n):
        expected = [_project(w, n + 1) for w in weak_b_lower_covers(y)]
        assert tam_b_lower_covers(y) == expected, y
    tam_b_elements.cache_clear()


def test_direct_tam_a_covers_match_projected_weak_covers():
    for n in range(8):
        for y in tam_a_elements(n):
            expected = [project_tam_a(w) for w in weak_a_lower_covers(y)]
            assert tam_a_lower_covers(y) == expected, y


def test_indexed_projections_match_restart_from_left():
    for m in range(1, 8):
        for p in itertools.permutations(range(1, m + 1)):
            assert project_tam_a(p) == restart_project_tam_a(p), p
    for n in range(6):
        for x in enumerate_signed(n):
            assert project_tam_b(x) == restart_project_tam_b(x), x
    for n in range(7):
        for y in tam_b_elements(n):
            weak_covers = weak_b_lower_covers(y)
            expected = [restart_project_tam_b(w) for w in weak_covers]
            assert [project_tam_b(w) for w in weak_covers] == expected, y
            assert tam_b_lower_covers(y) == expected, y


@pytest.mark.parametrize("elements, lattice, oracle, n", ORACLE_CASES)
def test_direct_build_matches_filter_and_reduction_oracle(elements, lattice, oracle, n):
    carrier = elements(n)
    assert carrier == oracle(n)
    reference = transitive_reduction_lattice(carrier)
    built = lattice(n, validate=False)
    elements, _, uppers, _ = kahn_view(built)
    assert elements == reference.elements
    pairs = [(elements[i], elements[j]) for i, ups in enumerate(uppers) for j in ups]
    assert pairs == reference.cover_pairs()


def test_avoids_312_matches_backtracking_search():
    for m in range(1, 9):
        kept = set(filtered_tam_a_elements(m - 1))
        for p in itertools.permutations(range(1, m + 1)):
            assert avoids_312(p) == (p in kept), p
    for n in range(5):
        kept = set(filtered_tam_b_elements(n))
        for x in enumerate_signed(n):
            assert avoids_312_star(x) == (x in kept), x
    with pytest.raises(ValueError):
        avoids_312_star((3, 1, 2))


def test_carrier_guards():
    # the carriers take any size; the registry's memory budget refuses the
    # first Tamari lattice past it before any carrier is enumerated
    for name in ("tam-a", "tam-b"):
        FAMILIES[name].admit(9)
        with pytest.raises(GuardError):
            FAMILIES[name].admit(10)


def test_tam_b_carrier_n2():
    assert tam_b_elements(2) == (
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (2, 1, 4, 3),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
        (4, 3, 2, 1),
    )


def test_project_tam_a_examples():
    assert project_tam_a((3, 1, 4, 2)) == (1, 3, 4, 2)
    assert project_tam_a((1, 3, 2, 4)) == (1, 3, 2, 4)
    assert project_tam_a((3, 1, 2)) == (1, 3, 2)


def test_project_tam_a_matches_class_minimum():
    for n in (1, 2, 3, 4):
        oracle = project_tam_a_by_classes(n)
        for p, target in oracle.items():
            assert project_tam_a(p) == target


def test_project_tam_b_examples():
    # The chain printed alongside the worked example in the source text takes
    # one extra step, swapping the central (5,4) with no witness strictly
    # between 4 and 5; the congruence defined in the text cannot make that
    # move (both words avoid the starred pattern, so they are minima of two
    # different classes).  The class minimum is therefore 31254786.
    assert project_tam_b((3, 7, 1, 5, 4, 8, 2, 6)) == (3, 1, 2, 5, 4, 7, 8, 6)
    # the large-entry pattern identity the example actually demonstrates:
    assert reduction(large_half(project_tam_b((3, 7, 1, 5, 4, 8, 2, 6)))) == project_tam_a(
        reduction(large_half((3, 7, 1, 5, 4, 8, 2, 6)))
    )
    assert project_tam_b((1, 3, 2, 4)) == (1, 3, 2, 4)
    assert project_tam_b((2, 4, 1, 3)) == (2, 1, 4, 3)


def test_project_tam_b_matches_class_minimum():
    for n in (1, 2, 3, 4):
        oracle = project_tam_b_by_classes(n)
        for x, target in oracle.items():
            assert project_tam_b(x) == target


def test_upward_projections_match_class_maximum():
    # S_1..S_7 and B_0..B_5
    for n in range(7):
        for p, target in project_tam_a_by_classes(n, up=True).items():
            assert project_tam_a(p, up=True) == target, p
    for n in range(6):
        for x, target in project_tam_b_by_classes(n, up=True).items():
            assert project_tam_b(x, up=True) == target, x


def test_upper_cover_count_is_ascent_count():
    # in type B, the ascents at positions 1..n, the central one included
    for n in range(8):
        lat = tam_a_lattice(n)
        for y in lat.elements:
            assert len(upper_covers(lat, y)) == len(y) - 1 - descent_count(y), y
    for n in range(6):
        lat = tam_b_lattice(n)
        for y in lat.elements:
            assert len(upper_covers(lat, y)) == sum(y[i] < y[i + 1] for i in range(n)), y


@pytest.mark.opt_in
@pytest.mark.parametrize("name, n", [
    *(("tam-a", n) for n in (8, 9)), *(("tam-b", n) for n in (6, 7, 8, 9))])
def test_direct_pop_up_matches_the_lattice_up_to_the_budget(name, n):
    # past the sizes that test_families checks in Tier-1; the lattice's
    # pop_up is the oracle
    family = FAMILIES[name]
    lat = family.build(n)
    for x in lat.elements:
        assert family.pop_up(x) == pop_up(lat, x), x


def test_projection_outputs_avoid_patterns():
    for n in (1, 2, 3, 4):
        for x, target in project_tam_b_by_classes(n).items():
            assert target in set(tam_b_elements(n))


def test_pop_examples():
    assert pop_tam_a((4, 5, 3, 2, 7, 8, 6, 1)) == (2, 4, 3, 5, 1, 7, 6, 8)
    y = (7, 1, 10, 11, 9, 8, 5, 4, 2, 3, 12, 6)
    assert pop_tam_b(y) == (1, 7, 2, 4, 3, 5, 8, 10, 9, 11, 6, 12)
    ident = tuple(range(1, 5))
    assert pop_tam_b(ident) == ident
    with pytest.raises(ValueError):
        pop_tam_a((3, 1, 2))  # not 312-avoiding
    with pytest.raises(ValueError):
        pop_tam_b((2, 4, 1, 3))  # not in the carrier


def test_largest_value_sits_right_of_center_on_image():
    for n in (1, 2, 3, 4, 5):
        for x in tam_b_elements(n):
            assert index_of(pop_tam_b(x), 2 * n) >= n + 1


def test_block_pattern_commutes_with_projection():
    for n in (1, 2, 3, 4):
        for x in enumerate_signed(n):
            lhs = reduction(large_half(project_tam_b(x)))
            rhs = project_tam_a(reduction(large_half(x)))
            assert lhs == rhs, x


def test_entries_after_previous_of_last_are_larger():
    # for a carrier element y with last entry v >= 2, everything after the
    # position of v-1 in the run reversal exceeds v-1
    for n in (2, 3, 4, 5, 6):
        for y in tam_a_elements(n):
            v = y[-1]
            if v == 1:
                continue  # v-1 undefined as a positive comparison anchor
            x = reverse_runs(y)
            p = index_of(x, v - 1)
            assert all(x[j] > v - 1 for j in range(p, len(x)))


def test_large_to_small_boundary_is_left_max():
    for n in (1, 2, 3, 4):
        for y in tam_b_elements(n):
            for x in (reverse_runs(y), pop_tam_b(y)):
                for i in range(len(x) - 1):
                    if x[i] >= n + 1 and x[i + 1] <= n:
                        assert all(x[j] < x[i] for j in range(i)), (y, x)


def test_cover_count_descent_bridge():
    for n in (1, 2, 3, 4):
        lat = tam_b_lattice(n)
        for z in lat.elements:
            expected = n - (descent_count(z) + 1) // 2
            assert len(upper_covers(lat, z)) == expected
            # the left-half ascent formula holds in the sublattice as well
            assert len(upper_covers(lat, z)) == bounded_ascent_count(z, n)


def test_hong_predicate_examples():
    assert hong_image_predicate((2, 4, 3, 5, 1, 7, 6, 8))
    assert not hong_image_predicate((2, 1))
    assert hong_image_predicate(tuple(range(1, 7)))


def test_hong_predicate_matches_image():
    for n in (1, 2, 3, 4, 5, 6, 7):
        carrier = tam_a_elements(n)
        image = {pop_tam_a(p) for p in carrier}
        for p in carrier:
            assert hong_image_predicate(p) == (p in image), (n, p)


def test_tam_b_predicate_matches_image():
    for n in (1, 2, 3, 4, 5):
        carrier = tam_b_elements(n)
        image = {pop_tam_b(x) for x in carrier}
        for x in carrier:
            assert tam_b_image_predicate(x) == (x in image), (n, x)


def test_tam_b_predicate_n2_members():
    image_members = [(1, 2, 3, 4), (1, 3, 2, 4), (3, 1, 4, 2)]
    for x in image_members:
        assert tam_b_image_predicate(x)
    assert not tam_b_image_predicate((3, 4, 1, 2))
    assert not tam_b_image_predicate((4, 3, 2, 1))
    # 2143 satisfies the as-printed mixed reading but is not an image
    # element: no carrier element pops to it (its fiber upward is empty).
    assert not tam_b_image_predicate((2, 1, 4, 3))
    image = {pop_tam_b(x) for x in tam_b_elements(2)}
    assert (2, 1, 4, 3) not in image
    assert tam_b_image_predicate((2, 1, 4, 3)) == ((2, 1, 4, 3) in image)


def test_tam_b_predicate_as_printed_differs():
    # the literal statement evaluates the block condition on pop(x) and
    # wrongly admits 2143 at rank 2
    assert tam_b_image_predicate_as_printed((2, 1, 4, 3))
    mismatches = {
        x
        for x in tam_b_elements(2)
        if tam_b_image_predicate_as_printed(x) != tam_b_image_predicate(x)
    }
    assert mismatches == {(2, 1, 4, 3)}


def test_preimage_ending_in_one_examples():
    assert preimage_ending_in_one((2, 4, 3, 5, 1, 7, 6, 8)) == (4, 5, 3, 2, 7, 8, 6, 1)
    assert preimage_ending_in_one((1, 2)) == (2, 1)
    assert preimage_ending_in_one((1,)) == (1,)
    with pytest.raises(ValueError):
        preimage_ending_in_one((2, 1))


def test_preimage_ending_in_one_exhaustive():
    for n in (1, 2, 3, 4, 5, 6):
        for x in {pop_tam_a(p) for p in tam_a_elements(n)}:
            y = preimage_ending_in_one(x)
            assert y[-1] == 1
            assert pop_tam_a(y) == x


def test_preimage_tree_matches_the_segment_scan():
    """The Cartesian-tree construction writes the word that splitting each
    segment at its least entry writes, on every permutation of up to 8
    letters (a superset of the type-A image words)."""
    for m in range(9):
        for x in itertools.permutations(range(1, m + 1)):
            assert _preimage_end_one(x) == preimage_end_one_by_segments(x), x


def test_preimage_tam_b_examples():
    x = (1, 7, 2, 4, 3, 5, 8, 10, 9, 11, 6, 12)
    assert preimage_tam_b(x) == (7, 1, 10, 11, 9, 8, 5, 4, 2, 3, 12, 6)
    y = preimage_tam_b((1, 2, 3, 4))
    assert pop_tam_b(y) == (1, 2, 3, 4)
    y2 = preimage_tam_b((1, 3, 2, 4))
    assert pop_tam_b(y2) == (1, 3, 2, 4)
    fiber = {z for z in tam_b_elements(2) if pop_tam_b(z) == (1, 3, 2, 4)}
    assert y2 in fiber
    with pytest.raises(ValueError):
        preimage_tam_b((2, 1, 4, 3))


def test_preimage_tam_b_exhaustive():
    for n in (1, 2, 3, 4):
        for x in {pop_tam_b(z) for z in tam_b_elements(n)}:
            y = preimage_tam_b(x)
            assert pop_tam_b(y) == x


def test_adjacency_chain_worked_example():
    chain = adjacency_chain(
        (3, 1, 4, 2), (1, 3, 4, 2), (3, 7, 1, 4, 5, 8, 2, 6)
    )
    assert chain == [
        (3, 7, 1, 4, 5, 8, 2, 6),
        (3, 1, 7, 4, 5, 2, 8, 6),
        (3, 1, 4, 7, 2, 5, 8, 6),
        (3, 1, 4, 2, 7, 5, 8, 6),
        (3, 1, 2, 4, 5, 7, 8, 6),
    ]
    assert reduction(large_half(chain[-1])) == (1, 3, 4, 2)


def test_adjacency_chain_single_step():
    # high pair already adjacent: the chain is one move long
    chain = adjacency_chain((3, 1, 2), (1, 3, 2), (6, 4, 5, 2, 3, 1))
    assert chain == [(6, 4, 5, 2, 3, 1), (4, 6, 5, 2, 1, 3)]


def test_adjacency_chain_sweep_rank3():
    from itertools import permutations

    by_pattern = {}
    for z in enumerate_signed(3):
        by_pattern.setdefault(reduction(large_half(z)), []).append(z)
    for x in permutations((1, 2, 3)):
        for y in set(tam_a_adjacent(x)):
            for z in by_pattern[x]:
                chain = adjacency_chain(x, y, z)
                assert chain[0] == z
                for cur, nxt in zip(chain, chain[1:]):
                    assert nxt in tam_b_adjacent(cur), (cur, nxt)
                assert reduction(large_half(chain[-1])) == y


def test_adjacency_chain_precondition_errors():
    with pytest.raises(ValueError):
        adjacency_chain((1, 3, 2), (3, 1, 2), (6, 4, 5, 2, 3, 1))  # wrong direction
    with pytest.raises(ValueError):
        adjacency_chain((2, 1, 3), (1, 2, 3), (5, 4, 6, 1, 3, 2))  # no witness
    with pytest.raises(ValueError):
        adjacency_chain((3, 1, 2), (1, 3, 2), (1, 2, 3, 4, 5, 6))  # pattern mismatch

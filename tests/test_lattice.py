import gc
import itertools
import json
import weakref

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from poplat import dyck, signed, tamari
from poplat.dyck import j_a_lattice, j_b_lattice
from poplat.errors import GuardError, NotALatticeError
from poplat.families import FAMILIES
from poplat.lattice import FiniteLattice, QPoly, memoised_builder
from poplat.tamari import tam_a_lattice, tam_b_lattice
from poplat.weak import weak_a_lattice, weak_b_lattice
from congruence import tam_a_adjacent, tam_b_adjacent
from reference import (
    KEY_PAIRS,
    NonIntervalClassError,
    _weak_a_pairs,
    _weak_b_pairs,
    half_oracle,
    kahn_view,
    leq,
    lower_cover_table,
    lower_covers,
    pop_down,
    pop_up,
    reference_build,
    reference_order,
    upper_covers,
)


def cover_json(lat, serialize=str):
    """Elements and cover pairs as deterministic JSON."""
    payload = {
        "elements": [serialize(x) for x in lat.elements],
        "covers": [[serialize(a), serialize(b)] for a, b in lat.cover_pairs()],
    }
    return json.dumps(payload, sort_keys=True)


def chain(k):
    return FiniteLattice.build(range(k), [(i, i + 1) for i in range(k - 1)])


def pairwise_is_lattice(lat):
    """Reference oracle: a meet and a join for every one of the n^2/2 pairs.

    Works on its own forward-indexed downsets and upsets, rebuilt from the
    cover pairs, not on the kernel's tables.
    """
    ref = reference_build(lat.elements, lat.cover_pairs())
    n = len(ref.elements)
    down, up = ref.down, ref.up
    for i in range(n):
        di, ui = down[i], up[i]
        for j in range(i + 1, n):
            meet_mask = di & down[j]
            if not meet_mask or down[meet_mask.bit_length() - 1] != meet_mask:
                return False
            join_mask = ui & up[j]
            low = (join_mask & -join_mask).bit_length() - 1
            if not join_mask or up[low] != join_mask:
                return False
    return True


def outcome(fn, *args):
    """fn(*args), or the type and text of the lattice error it raises."""
    try:
        return fn(*args)
    except NotALatticeError as exc:
        return type(exc).__name__, str(exc)


def assert_structure_matches_reference(lat, ref):
    """Elements and covers agree with the reference oracle; these read the
    covers alone, so they hold on any bounded poset."""
    els = lat.elements
    assert els == ref.elements
    assert lat.cover_pairs() == ref.cover_pairs()
    for x in els:
        assert upper_covers(lat, x) == ref.upper_covers(x)
        assert lower_covers(lat, x) == ref.lower_covers(x)


def assert_matches_reference(lat, ref):
    """The kernel's order, pops and censuses agree with the reference oracle:
    the down masks embed the order, mask[x] a subset of mask[y] iff x <= y."""
    assert_structure_matches_reference(lat, ref)
    els = lat.elements
    for x in els:
        assert all(leq(lat, x, y) == ref.leq(x, y) for y in els)
        assert outcome(pop_down, lat, x) == outcome(ref.pop_down, x)
        assert outcome(pop_up, lat, x) == outcome(ref.pop_up, x)
    for direction in ("down", "up"):
        assert outcome(lat.pop_polynomial, direction) == outcome(ref.pop_polynomial, direction)
        assert outcome(lat.pop_image, direction) == outcome(ref.pop_image, direction)


def refused(fn, *args):
    """fn(*args), or None when it raises NotALatticeError; any other
    exception fails the caller's test."""
    try:
        return fn(*args)
    except NotALatticeError:
        return None


def assert_pops_return_or_refuse(lat):
    """On an unvalidated non-lattice every pop and census returns a value of
    its type, possibly a wrong one, or raises NotALatticeError."""
    els = lat.elements
    for x in els:
        for pop in (pop_down, pop_up):
            got = refused(pop, lat, x)
            assert got is None or got in els
    for direction in ("down", "up"):
        image = refused(lat.pop_image, direction)
        assert image is None or image <= set(els)
        poly = refused(lat.pop_polynomial, direction)
        assert poly is None or isinstance(poly, QPoly)


def cover_local_is_lattice(lat):
    try:
        lat._validate()
    except NotALatticeError:
        return False
    return True


NON_LATTICE_ELEMENTS = ["bot", "x", "y", "u", "v", "top"]
NON_LATTICE_COVERS = [
    ("bot", "x"),
    ("bot", "y"),
    ("x", "u"),
    ("x", "v"),
    ("y", "u"),
    ("y", "v"),
    ("u", "top"),
    ("v", "top"),
]


def non_lattice():
    """Two atoms below two coatoms: bounded, but x, y have no join."""
    return FiniteLattice.build(NON_LATTICE_ELEMENTS, NON_LATTICE_COVERS, validate=False)


@st.composite
def bounded_posets(draw):
    """A random bounded poset on 0..k+1: 0 is the bottom, k+1 the top.

    The k interior elements are drawn in up to four levels; each pair on
    different levels is related or not at random, and the relation is closed
    transitively.  Relations may skip levels, so the posets need not be
    graded, and many of them are not lattices.  Returns (elements, covers),
    with covers the transitive reduction.
    """
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    level = [None] + [lvl for lvl, size in enumerate(sizes) for _ in range(size)]
    top = len(level)
    above = [0] * (top + 1)  # above[i]: bitmask of the elements strictly above i
    above[0] = (1 << (top + 1)) - 2
    for i in range(top - 1, 0, -1):
        above[i] = 1 << top
        for j in range(i + 1, top):
            if level[j] > level[i] and draw(st.booleans()):
                above[i] |= 1 << j | above[j]
    covers = [
        (i, j)
        for i in range(top + 1)
        for j in range(i + 1, top + 1)
        if above[i] >> j & 1
        and not any(above[i] >> m & 1 and above[m] >> j & 1 for m in range(i + 1, j))
    ]
    return list(range(top + 1)), covers


HEXAGON_COVERS = [
    ((1, 2, 3, 4), (1, 3, 2, 4)),
    ((1, 2, 3, 4), (2, 1, 4, 3)),
    ((1, 3, 2, 4), (3, 1, 4, 2)),
    ((3, 1, 4, 2), (3, 4, 1, 2)),
    ((3, 4, 1, 2), (4, 3, 2, 1)),
    ((2, 1, 4, 3), (4, 3, 2, 1)),
]


def hexagon():
    elements = sorted({x for pair in HEXAGON_COVERS for x in pair})
    return FiniteLattice.build(elements, HEXAGON_COVERS)


def test_two_chain():
    lat = chain(2)
    assert leq(lat, 0, 1) and not leq(lat, 1, 0)
    assert pop_down(lat, 1) == 0
    assert pop_up(lat, 0) == 1
    assert pop_down(lat, 0) == 0
    assert lat.pop_polynomial("down") == QPoly({1: 1})
    assert lat.pop_polynomial("up") == QPoly({1: 1})


def test_octagon_build_and_meet():
    lat = weak_b_lattice(2)
    assert len(lat) == 8
    assert len(lat.cover_pairs()) == 8
    ref = reference_build(lat.elements, lat.cover_pairs())
    assert ref.meet((1, 3, 2, 4), (2, 1, 4, 3)) == (1, 2, 3, 4)
    assert lat.elements[0] == (1, 2, 3, 4)
    assert lat.elements[-1] == (4, 3, 2, 1)
    assert pop_down(lat, (4, 3, 2, 1)) == (1, 2, 3, 4)
    assert set(lower_covers(lat, (4, 3, 2, 1))) == {(3, 4, 1, 2), (4, 2, 3, 1)}
    assert lat.pop_polynomial("down") == QPoly({2: 1, 1: 4})
    assert lat.pop_polynomial("up") == QPoly({2: 1, 1: 4})
    assert lat.pop_image("down") == {
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (2, 1, 4, 3),
        (2, 4, 1, 3),
        (3, 1, 4, 2),
    }


def test_not_a_lattice_reported():
    # diamond without top: two maximal elements
    with pytest.raises(NotALatticeError):
        FiniteLattice.build("abc", [("a", "b"), ("a", "c")])
    with pytest.raises(NotALatticeError, match="cycle"):
        FiniteLattice.build("ab", [("a", "b"), ("b", "a")])


FAMILY_INSTANCES = (
    [(weak_a_lattice, n) for n in range(1, 6)]
    + [(weak_b_lattice, n) for n in range(1, 5)]
    + [(tam_a_lattice, n) for n in range(1, 7)]
    + [(tam_b_lattice, n) for n in range(1, 6)]
    + [(j_a_lattice, m) for m in range(1, 8)]
    + [(j_b_lattice, n) for n in range(1, 5)]
)


FAMILY_IDS = [f"{b.__name__}-{n}" for b, n in FAMILY_INSTANCES]
FAMILY_SMALL = [
    (weak_a_lattice, 4), (weak_b_lattice, 3), (tam_a_lattice, 5),
    (tam_b_lattice, 4), (j_a_lattice, 6), (j_b_lattice, 4),
]


@pytest.mark.parametrize("builder,n", FAMILY_INSTANCES, ids=FAMILY_IDS)
def test_cover_local_validation_matches_pairwise_on_families(builder, n):
    lat = builder(n, validate=False)
    assert pairwise_is_lattice(lat)
    assert cover_local_is_lattice(lat)


@pytest.mark.parametrize("builder,n", FAMILY_INSTANCES, ids=FAMILY_IDS)
def test_kernel_matches_reference_on_families(builder, n):
    elements, covers = KEY_PAIRS[builder](n)
    lat = FiniteLattice.build(elements, covers, validate=False)
    ref = reference_build(elements, covers)
    assert_matches_reference(lat, ref)
    assert builder(n, False).kahn_elements() == list(ref.elements)


def test_from_uppers_consumes_its_cover_lists():
    up_adj = [[1, 2], [3], [3], []]
    lat = FiniteLattice.from_uppers("abcd", up_adj, list(range(4)))
    assert up_adj == []
    assert lat.cover_pairs() == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]


def test_from_uppers_keeps_the_given_order_and_build_sorts_any():
    """`from_uppers` stores the elements and each upper-cover list as given,
    and `kahn_elements` follows those lists; `build` takes its keys and pairs
    in any order and stores Kahn's order with increasing upper covers."""
    lat = FiniteLattice.from_uppers("abcd", [[2, 1], [3], [3], []], list(range(4)))
    assert lat.elements == tuple("abcd")
    assert upper_covers(lat, "a") == ("c", "b")
    assert lat.kahn_elements() == list("acbd")
    pairs = [("c", "d"), ("a", "c"), ("b", "d"), ("a", "b")]
    for keys in ("abcd", "dcba", "cdab"):
        built = FiniteLattice.build(keys, pairs)
        assert built.kahn_elements() == list(built.elements)
        assert built.elements[0] == "a" and built.elements[3] == "d"
        assert upper_covers(built, "a") == built.elements[1:3]


@pytest.mark.parametrize(
    "ids", [[0, 1, 2], [0, 1, 2, 3, 4], [0, 2, 1, 3], [1, 2, 3, 4]],
    ids=["short", "long", "swapped", "shifted"],
)
def test_from_uppers_refuses_ids_that_are_not_the_indices(ids):
    """An `ids` of the wrong length, or with a value out of place, is refused
    before anything is built: the cover lists stay unconsumed, and a falling
    cover in them is not reached."""
    up_adj = [[1, 2], [3], [1], []]
    with pytest.raises(ValueError, match=r"^ids must be the ints 0\.\.3 in order$"):
        FiniteLattice.from_uppers("abcd", up_adj, ids)
    assert up_adj == [[1, 2], [3], [1], []]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "up_adj,error",
    [
        (((1, 2), (3,), (3,), ()), None),
        (((1,), (2,), (1,), ()), "upper cover 'b' of 'c' does not come after it"),
        (((1, 2), (3,), (), ()), "2 maximal"),
        (((1,), (3,), (1,), ()), "upper cover 'b' of 'c' does not come after it"),
        (((1, 2), (1, 3), (3,), ()), "upper cover 'b' of 'b' does not come after it"),
    ],
    ids=["lattice", "cycle", "two-maximal", "falling-cover", "self-cover"],
)
def test_from_uppers_restores_the_collector_state(up_adj, error, enabled):
    """The build pauses the cyclic collector and leaves it as it found it,
    whether it returns or raises.  A cover to a lower or equal index, which
    every cycle has, is refused by name before any table is built."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        up_adj = [list(ups) for ups in up_adj]
        if error is None:
            FiniteLattice.from_uppers("abcd", up_adj, list(range(4)))
        else:
            with pytest.raises(NotALatticeError, match=error):
                FiniteLattice.from_uppers("abcd", up_adj, list(range(4)))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "builder,n", FAMILY_SMALL, ids=[f"{b.__name__}-{n}" for b, n in FAMILY_SMALL]
)
def test_a_build_leaves_no_cyclic_garbage(builder, n):
    """Nothing a build allocates is part of a cycle, so pausing the
    collector for its length leaves it nothing to find later, not even once
    the lattice is dropped."""
    gc.collect()
    builder.__wrapped__(n)._validate()
    assert gc.collect() == 0


# Every size above 256 elements, so that no index is a cached small int.
SHARED_INTS = [
    (weak_a_lattice, 6), (weak_b_lattice, 4), (tam_a_lattice, 6),
    (tam_b_lattice, 6), (j_a_lattice, 8), (j_b_lattice, 6),
]


@pytest.mark.parametrize(
    "builder,n", SHARED_INTS, ids=["weak-a-6", "weak-b-4", "tam-a-6", "tam-b-6", "j-a-8", "j-b-6"]
)
def test_kernel_tables_share_one_int_per_index(builder, n):
    """The cover tuples and both halves' lookups and images hold one int
    object per index, not one per cover entry."""
    lat = builder(n, False)
    ints = {id(i) for row in lat._uppers for i in row}
    for direction in ("down", "up"):
        _, lookup, image, _ = lat._half(direction)
        ints.update(id(i) for i in lookup.values() if i is not None)
        ints.update(map(id, image))
    assert len(lat) > 256 and len(ints) == len(lat)


def reachable(*roots):
    """Every object reachable from `roots` through `gc.get_referents`, by id."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return seen.values()


@pytest.mark.parametrize(
    "builder,n", SHARED_INTS, ids=["weak-a-6", "weak-b-4", "tam-a-6", "tam-b-6", "j-a-8", "j-b-6"]
)
def test_the_kernel_stores_one_cover_tuple_per_element(builder, n):
    """After the build the slots, keys aside, reach the upper-cover table and
    one cover tuple per element; each built half holds its masks, lookup,
    image and missing pop, and no other table as long as the lattice, so
    neither the lower-cover tuples nor a table of pop masks is kept."""
    lat = builder.__wrapped__(n)
    slots = [getattr(lat, name) for name in FiniteLattice.__slots__ if name != "elements"]
    tuples = [obj for obj in reachable(*slots) if type(obj) is tuple]
    assert len(tuples) == 1 + len(lat) and lat._uppers in tuples
    ids = lat._ids
    for direction in ("down", "up"):
        half = lat._half(direction)
        masks, lookup, image, missing = half
        assert type(half) is tuple and missing is None
        assert all(i is ids[i] for i in image)
        tables = [obj for obj in reachable(half) if hasattr(obj, "__len__")
                  and len(obj) >= len(lat)]
        assert sorted(map(id, tables)) == sorted(map(id, (masks, lookup)))


@pytest.mark.parametrize(
    "builder,n", SHARED_INTS, ids=["weak-a-6", "weak-b-4", "tam-a-6", "tam-b-6", "j-a-8", "j-b-6"]
)
def test_validation_runs_before_either_half_is_built(builder, n, monkeypatch):
    """Validation reads only the covers, so at its peak, its own table, no
    mask table exists yet, in a family build or a key-pair build."""
    seen = []
    real = FiniteLattice._validate

    def record(lat):
        seen.append((lat._down, lat._up))
        real(lat)

    monkeypatch.setattr(FiniteLattice, "_validate", record)
    builder.cache_clear()
    builder(n)
    FiniteLattice.build("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert seen == [(None, None)] * 2


CROSS_CHECK_TOP = {
    weak_a_lattice: 6, weak_b_lattice: 4, tam_a_lattice: 7,
    tam_b_lattice: 6, j_a_lattice: 9, j_b_lattice: 6,
}
CROSS_CHECK = [(b, n) for b, top in CROSS_CHECK_TOP.items() for n in range(top + 1)]


@pytest.mark.parametrize(
    "builder,n", CROSS_CHECK, ids=[f"{b.__name__}-{n}" for b, n in CROSS_CHECK]
)
def test_a_half_is_built_once_by_its_first_read(builder, n):
    """No half exists after the build; the first read of each builds the
    irreducible closure of its covers (the up half from the top) and later
    reads share it."""
    lat = builder.__wrapped__(n)
    assert lat._down is None and lat._up is None
    for direction in ("down", "up"):
        half = lat._half(direction)
        assert half == half_oracle(lat, direction)
        assert lat._half(direction) is half


@pytest.mark.parametrize(
    "builder,n", CROSS_CHECK, ids=[f"{b.__name__}-{n}" for b, n in CROSS_CHECK]
)
def test_index_space_builders_match_the_key_pair_oracle(builder, n, monkeypatch):
    up_lists, kept = [], []
    real = FiniteLattice.from_uppers

    def record(elements, up_adj, ids):
        up_lists.extend(up_adj)
        kept.extend(ids)
        return real(elements, up_adj, ids)

    with monkeypatch.context() as patch:
        patch.setattr(FiniteLattice, "from_uppers", record)
        lat = builder.__wrapped__(n)
    # The core trusts its input to hold no repeated cover, and keeps each
    # list in the builder's order.  Every builder hands over a linear
    # extension, for the reasons in the `from_uppers` docstring.
    assert up_lists and all(len(set(ups)) == len(ups) for ups in up_lists)
    assert all(j > i for i, ups in enumerate(up_lists) for j in ups)
    assert lat._uppers == tuple(map(tuple, up_lists))
    # The kernel keeps the builder's int objects; it does not re-map them.
    assert all(a is b for ups, covers in zip(up_lists, lat._uppers) for a, b in zip(ups, covers))
    ref = reference_build(*KEY_PAIRS[builder](n))
    elements, lowers, uppers, rank = kahn_view(lat)
    assert elements == ref.elements
    assert lowers == ref.lowers
    assert uppers == ref.uppers
    assert lat._lower_counts == [len(ref.lowers[r]) for r in rank]
    # Each half's masks are the reference's downsets (upsets) restricted to
    # its irreducibles, the k-th irreducible in the kernel's order as bit k,
    # the meet-irreducibles counted from the top, and no two elements share
    # a mask.
    everything = range(len(ref.elements))
    join_irreducibles = [rank[i] for i in everything if len(ref.lowers[rank[i]]) == 1]
    meet_irreducibles = [rank[i] for i in reversed(everything) if len(ref.uppers[rank[i]]) == 1]
    down = restricted(ref.down, join_irreducibles)
    up = restricted(ref.up, meet_irreducibles)
    (down_masks, down_lookup), (up_masks, up_lookup) = lat._half("down")[:2], lat._half("up")[:2]
    assert down_masks == [down[r] for r in rank]
    assert up_masks == [up[r] for r in rank]
    for masks, lookup in ((down_masks, down_lookup), (up_masks, up_lookup)):
        assert lookup == {mask: k for k, mask in enumerate(masks)}
        assert all(lookup[mask] is i for i, mask in zip(kept, masks))
        assert len(lookup) == len(ref.elements)


def restricted(masks, irreducibles):
    """Each mask cut to the bits of `irreducibles`, the k-th of them as bit k."""
    return [
        sum(1 << k for k, j in enumerate(irreducibles) if mask >> j & 1) for mask in masks
    ]


# One size above the Tier-1 cross-check of each family: every pop, in both
# directions, against the full-width reference built from the key pairs.
EDGE = {
    weak_a_lattice: 7, weak_b_lattice: 5, tam_a_lattice: 8,
    tam_b_lattice: 7, j_a_lattice: 10, j_b_lattice: 8,
}


@pytest.mark.opt_in
@pytest.mark.parametrize(
    "builder,n", EDGE.items(), ids=[f"{b.__name__}-{n}" for b, n in EDGE.items()]
)
def test_census_matches_reference_at_the_edge(builder, n):
    builder.cache_clear()
    lat = builder(n, False)
    ref = reference_build(*KEY_PAIRS[builder](n))
    assert lat.kahn_elements() == list(ref.elements)
    for direction in ("down", "up"):
        assert lat.pop_image(direction) == ref.pop_image(direction)
        assert lat.pop_polynomial(direction) == ref.pop_polynomial(direction)
    builder.cache_clear()


def largest_admitted(name):
    """The largest size of family `name` that the registry's memory budget admits."""
    n = 0
    while True:
        try:
            FAMILIES[name].admit(n + 1)
        except GuardError:
            return n
        n += 1


# Every Tamari size above the Tier-1 cross-check up to the budget: the element
# order and the lower-cover lists, which the builders fill in carrier order,
# against the oracle's ranked (inversions, word) order.
ORDER_FROM = {"tam-a": (tam_a_lattice, 8), "tam-b": (tam_b_lattice, 7)}
ORDER_CASES = [
    (builder, n)
    for name, (builder, first) in ORDER_FROM.items()
    for n in range(first, largest_admitted(name) + 1)
]


@pytest.mark.opt_in
@pytest.mark.parametrize(
    "builder,n", ORDER_CASES, ids=[f"{b.__name__}-{n}" for b, n in ORDER_CASES]
)
def test_tamari_order_matches_the_ranked_oracle_up_to_the_budget(builder, n):
    builder.cache_clear()
    lat = builder(n, False)
    elements, lowers, _ = reference_order(*KEY_PAIRS[builder](n))
    assert kahn_view(lat)[:2] == (elements, lowers)
    builder.cache_clear()


# Every size above the Tier-1 cross-check of each family up to the budget:
# both halves against the pull-style oracle.
BUDGET_NAMES = {
    weak_a_lattice: "weak-a", weak_b_lattice: "weak-b", tam_a_lattice: "tam-a",
    tam_b_lattice: "tam-b", j_a_lattice: "j-a", j_b_lattice: "j-b",
}
BUDGET_CASES = [
    (builder, n)
    for builder, name in BUDGET_NAMES.items()
    for n in range(CROSS_CHECK_TOP[builder] + 1, largest_admitted(name) + 1)
]


@pytest.mark.opt_in
@pytest.mark.parametrize(
    "builder,n", BUDGET_CASES, ids=[f"{b.__name__}-{n}" for b, n in BUDGET_CASES]
)
def test_halves_match_the_pull_closure_oracle_up_to_the_budget(builder, n):
    builder.cache_clear()
    lat = builder(n, False)
    assert lat._lower_counts == [len(covers) for covers in lower_cover_table(lat)]
    for direction in ("down", "up"):
        assert lat._half(direction) == half_oracle(lat, direction), direction
    builder.cache_clear()


@pytest.mark.parametrize(
    "builder",
    [weak_a_lattice, weak_b_lattice, tam_a_lattice, tam_b_lattice, j_a_lattice, j_b_lattice],
)
def test_one_build_per_lattice(builder):
    lat = builder(3, False)
    assert builder(3) is lat
    assert builder(3, True) is lat
    assert builder(3, validate=True) is lat
    assert builder(3, validate=False) is lat
    builder.cache_clear()
    validated_first = builder(3)
    assert validated_first is not lat
    assert builder(3, validate=False) is validated_first


def test_memoised_builder_validates_the_cached_instance():
    builds = []

    @memoised_builder
    def bad(n):
        builds.append(n)
        return FiniteLattice.build(NON_LATTICE_ELEMENTS, NON_LATTICE_COVERS, validate=False)

    lat = bad(1, validate=False)
    with pytest.raises(NotALatticeError, match="no join for 'x', 'y'"):
        bad(1)
    assert bad(1, False) is lat
    assert builds == [1]


def test_memoised_builder_holds_only_the_last_size():
    class Chain(FiniteLattice):
        """Without __slots__, so it takes weak references."""

    held_while_building = []
    refs = {}

    @memoised_builder
    def chains(n):
        held_while_building.append([k for k, ref in refs.items() if ref() is not None])
        return Chain.build(range(n), [(i, i + 1) for i in range(n - 1)], validate=False)

    refs[3] = weakref.ref(chains(3))
    assert chains(3) is refs[3]()
    refs[4] = weakref.ref(chains(4))
    assert refs[3]() is None
    assert chains(4) is refs[4]()
    chains(3)
    assert refs[4]() is None
    # The last size is dropped before the next one is built.
    assert held_while_building == [[], [], []]


@pytest.mark.parametrize(
    "carrier",
    [dyck.all_paths, dyck.symmetric_paths, tamari.tam_a_elements, tamari.tam_b_elements,
     signed.enumerate_signed],
)
def test_carriers_hold_only_the_last_size(carrier):
    carrier.cache_clear()
    first = carrier(2)
    assert carrier(2) is first
    carrier(3)
    again = carrier(2)
    assert again == first and again is not first
    carrier.cache_clear()
    assert carrier(2) is not again


def test_cover_local_validation_matches_pairwise_on_small_lattices():
    pentagon = FiniteLattice.build("0abc1", ["0a", "ab", "b1", "0c", "c1"])
    diamond = FiniteLattice.build("0abc1", ["0a", "0b", "0c", "a1", "b1", "c1"])
    for lat in [chain(k) for k in range(1, 8)] + [hexagon(), pentagon, diamond]:
        assert pairwise_is_lattice(lat)
        assert cover_local_is_lattice(lat)
    assert not pairwise_is_lattice(non_lattice())
    assert not cover_local_is_lattice(non_lattice())


@settings(max_examples=400, deadline=None)
@given(bounded_posets())
def test_cover_local_validation_matches_pairwise_on_random_posets(poset):
    lat = FiniteLattice.build(*poset, validate=False)
    assert cover_local_is_lattice(lat) == pairwise_is_lattice(lat)


@settings(max_examples=200, deadline=None)
@given(bounded_posets(), st.randoms(use_true_random=False))
def test_kernel_matches_reference_on_random_posets(poset, rng):
    # Shuffled input with repeated covers: Kahn's order and the cover
    # deduplication see more than the strategy's sorted output.
    elements, covers = poset
    rng.shuffle(elements)
    covers = covers + rng.sample(covers, len(covers) // 2)
    rng.shuffle(covers)
    lat = FiniteLattice.build(elements, covers, validate=False)
    ref = reference_build(elements, covers)
    if pairwise_is_lattice(lat):
        assert_matches_reference(lat, ref)
        return
    # An unvalidated build is trusted to be a lattice, so on a non-lattice
    # only the covers are exact; validation must refuse the poset.
    assert_structure_matches_reference(lat, ref)
    assert not cover_local_is_lattice(lat)
    with pytest.raises(NotALatticeError):
        FiniteLattice.build(elements, covers)
    assert_pops_return_or_refuse(lat)


# Bounded, not a lattice (f and y have no meet, a and b no join), yet every
# element has its own set of join-irreducibles below it (a, b, e and f), so
# the irreducible-width lookup alone does not catch it.  A lattice test that
# reads only those tables must reject this poset.
LOOKUP_BLIND_ELEMENTS = ["0", "a", "b", "e", "x", "y", "f", "1"]
LOOKUP_BLIND_COVERS = [
    ("0", "a"), ("0", "b"), ("0", "e"), ("a", "x"), ("b", "x"), ("a", "y"),
    ("b", "y"), ("e", "y"), ("x", "f"), ("f", "1"), ("y", "1"),
]


def test_validation_rejects_the_poset_the_lookup_passes():
    message = "no join for 'a', 'b', upper covers of '0'"
    with pytest.raises(NotALatticeError) as exc:
        FiniteLattice.build(LOOKUP_BLIND_ELEMENTS, LOOKUP_BLIND_COVERS)
    assert str(exc.value) == message
    lat = FiniteLattice.build(LOOKUP_BLIND_ELEMENTS, LOOKUP_BLIND_COVERS, validate=False)
    assert len(set(lat._half("down")[0])) == len(lat)
    with pytest.raises(NotALatticeError) as exc:
        lat._validate()
    assert str(exc.value) == message
    assert_pops_return_or_refuse(lat)


# Bounded, not a lattice (c1 and c2 have two minimal upper bounds, x and y),
# yet it passes three cheap tests that read only the irreducible-width
# tables; together they agree with the lattice oracle on every bounded poset
# of 10 elements or fewer.  A lattice test built from those tables alone
# must reject this poset.
WIDTH_BLIND_ELEMENTS = "0 c1 c2 x y g h f d1 d2 1".split()
WIDTH_BLIND_COVERS = [
    ("0", "c1"), ("0", "c2"),
    ("c1", "x"), ("c1", "y"), ("c1", "g"), ("c2", "x"), ("c2", "y"), ("c2", "h"),
    ("x", "d1"), ("x", "d2"), ("x", "f"), ("y", "d1"), ("y", "d2"),
    ("d1", "1"), ("d2", "1"), ("f", "1"), ("g", "1"), ("h", "1"),
]


def test_validation_rejects_the_poset_the_width_checks_pass():
    lat = FiniteLattice.build(WIDTH_BLIND_ELEMENTS, WIDTH_BLIND_COVERS, validate=False)
    down, (up, lookup) = lat._half("down")[0], lat._half("up")[:2]
    # the up lookup is injective
    assert len(set(up)) == len(lat) and None not in lookup.values()
    # every element with two or more upper covers is their meet
    for x, covers in enumerate(lat._uppers):
        if len(covers) > 1:
            meet = -1
            for c in covers:
                meet &= down[c]
            assert down[x] == meet
    # every two upper covers of an element have a join in the lookup
    for covers in lat._uppers:
        for a, b in itertools.combinations(covers, 2):
            assert up[a] & up[b] in lookup
    assert not pairwise_is_lattice(lat)
    with pytest.raises(NotALatticeError) as exc:
        lat._validate()
    assert str(exc.value) == "no join for 'c1', 'c2', upper covers of '0'"


# Bounded, not a lattice: j's lower covers c1 and c2 have no meet, yet the
# AND of their masks (the bits of p and q) is the mask of k, which comes
# after j in the stored order and is not below it.  A half's pass reads only
# the elements before j, so j's pop is missing, and the top's pop is k.
LATER_MASK_ELEMENTS = "0 p q r s c1 c2 j k 1".split()
LATER_MASK_UPPERS = [[1, 2, 3, 4], [5, 6, 8], [5, 6, 8], [5], [6], [7], [7], [9], [9], []]

# Two copies of NON_LATTICE stacked, the top of one the bottom of the other:
# the pops of m, and everything below it, have no join, and those of m and
# everything above it no meet.
STACKED_ELEMENTS = "bot x y u v m x2 y2 u2 v2 top".split()
STACKED_COVERS = NON_LATTICE_COVERS[:6] + [("u", "m"), ("v", "m")] + [
    ("m", "x2"), ("m", "y2"), ("x2", "u2"), ("x2", "v2"), ("y2", "u2"), ("y2", "v2"),
    ("u2", "top"), ("v2", "top"),
]


def later_mask():
    ids = list(range(len(LATER_MASK_ELEMENTS)))
    uppers = [list(ups) for ups in LATER_MASK_UPPERS]
    return FiniteLattice.from_uppers(LATER_MASK_ELEMENTS, uppers, ids)


NAMED_POSETS = {
    "non-lattice": non_lattice,
    "lookup-blind": lambda: FiniteLattice.build(
        LOOKUP_BLIND_ELEMENTS, LOOKUP_BLIND_COVERS, validate=False),
    "width-blind": lambda: FiniteLattice.build(
        WIDTH_BLIND_ELEMENTS, WIDTH_BLIND_COVERS, validate=False),
    "later-mask": later_mask,
    "stacked": lambda: FiniteLattice.build(STACKED_ELEMENTS, STACKED_COVERS, validate=False),
}


def assert_halves_match_the_oracle(lat, ref=None):
    """Both halves equal the pull-style oracle's, and the stored lower-cover
    counts are the lengths of the derived lower covers and, given the
    key-pair reference `ref`, of its lower covers."""
    counts = [len(covers) for covers in lower_cover_table(lat)]
    assert lat._lower_counts == counts
    if ref is not None:
        assert counts == [len(ref.lower_covers(x)) for x in lat.elements]
    for direction in ("down", "up"):
        assert lat._half(direction) == half_oracle(lat, direction), direction


@pytest.mark.parametrize("name", NAMED_POSETS)
def test_halves_match_the_pull_closure_oracle_on_non_lattices(name):
    """Building a half never raises for a missing pop; the half records it."""
    lat = NAMED_POSETS[name]()
    assert not pairwise_is_lattice(lat)
    assert_halves_match_the_oracle(lat, reference_build(lat.elements, lat.cover_pairs()))


def test_a_pop_is_read_among_the_elements_before_it():
    lat = later_mask()
    assert lat._half("down")[3] == LATER_MASK_ELEMENTS.index("j")
    assert lat._half("down")[1][0b11] == LATER_MASK_ELEMENTS.index("k")
    assert pop_down(lat, "1") == "k"
    with pytest.raises(NotALatticeError) as exc:
        lat.pop_polynomial("down")
    assert str(exc.value) == "no meet of the lower covers of 'j'"


@settings(max_examples=300, deadline=None)
@given(bounded_posets())
def test_halves_match_the_pull_closure_oracle_on_random_posets(poset):
    lat = FiniteLattice.build(*poset, validate=False)
    assert_halves_match_the_oracle(lat, reference_build(*poset))


@pytest.mark.parametrize(
    "make,down,up",
    [(non_lattice, "top", "bot"),
     (NAMED_POSETS["stacked"], "m", "bot")],
    ids=["non-lattice", "stacked"],
)
def test_a_census_names_the_first_element_in_stored_order_without_a_pop(make, down, up):
    """The up pass reads the elements from the top, yet names the first in
    stored order, as the down pass does."""
    lat = make()
    messages = {
        "down": f"no meet of the lower covers of {down!r}",
        "up": f"no join of the upper covers of {up!r}",
    }
    for direction, message in messages.items():
        for census in (lat.pop_polynomial, lat.pop_image):
            with pytest.raises(NotALatticeError) as exc:
                census(direction)
            assert str(exc.value) == message


def natural_posets(k, below=()):
    """Every naturally labelled poset on 0..k-1 (i below j only if i < j),
    as strict down-set masks: 1, 1, 2, 7, 40, 357, 4824, 96428 posets for
    k = 0..7.  Element j's down-set is an order ideal of the poset on
    0..j-1, and distinct ideals give distinct posets."""
    j = len(below)
    if j == k:
        yield below
        return
    for ideal in range(1 << j):
        if all(below[i] | ideal == ideal for i in range(j) if ideal >> i & 1):
            yield from natural_posets(k, below + (ideal,))


def bounded(below):
    """(elements, covers) of a poset given by `natural_posets`, shifted up
    by one, with a new bottom 0 and top k+1."""
    k = len(below)
    inner = [(i + 1, j + 1) for j, mask in enumerate(below) for i in range(j)
             if mask >> i & 1 and not any(below[m] >> i & 1 for m in range(j) if mask >> m & 1)]
    has_lower = {j for _, j in inner}
    has_upper = {i for i, _ in inner}
    ends = [(0, j) for j in range(1, k + 1) if j not in has_lower]
    ends += [(i, k + 1) for i in range(1, k + 1) if i not in has_upper]
    return list(range(k + 2)), inner + (ends or [(0, 1)])


def assert_validation_matches_pairwise(k):
    count = 0
    for below in natural_posets(k):
        lat = FiniteLattice.build(*bounded(below), validate=False)
        assert cover_local_is_lattice(lat) == pairwise_is_lattice(lat), below
        count += 1
    return count


def test_cover_local_validation_matches_pairwise_on_every_small_bounded_poset():
    """Every bounded poset of 8 elements or fewer, as the naturally labelled
    posets on up to 6 inner elements with a 0 and a 1 added."""
    assert sum(map(assert_validation_matches_pairwise, range(7))) == 5232


@pytest.mark.opt_in
def test_cover_local_validation_matches_pairwise_on_every_9_element_bounded_poset():
    assert assert_validation_matches_pairwise(7) == 96428


def order_pairs(elements, covers):
    """Every (a, b) with a <= b, by search along the covers."""
    above = {x: [] for x in elements}
    for a, b in covers:
        above[a].append(b)
    pairs = set()
    for x in elements:
        stack = [x]
        while stack:
            y = stack.pop()
            if (x, y) not in pairs:
                pairs.add((x, y))
                stack.extend(above[y])
    return pairs


@st.composite
def random_lattices(draw):
    """(lattice, order pairs) for the bounded posets that are lattices."""
    elements, covers = draw(bounded_posets())
    lat = FiniteLattice.build(elements, covers, validate=False)
    assume(pairwise_is_lattice(lat))
    return lat, order_pairs(elements, covers)


@settings(max_examples=200, deadline=None)
@given(random_lattices())
def test_pops_move_every_element_but_the_end(lattice):
    lat, leq = lattice
    for x in lat.elements:
        down, up = pop_down(lat, x), pop_up(lat, x)
        assert (down, x) in leq and (x, up) in leq
        assert (down == x) == (x == lat.elements[0])
        assert (up == x) == (x == lat.elements[-1])


def test_random_posets_include_non_lattices():
    elements, covers = find(
        bounded_posets(),
        lambda p: not pairwise_is_lattice(FiniteLattice.build(*p, validate=False)),
    )
    assert len(elements) >= 6  # the smallest bounded non-lattice


def test_validation_error_names_witness_pair_and_lower_cover():
    with pytest.raises(NotALatticeError) as exc:
        FiniteLattice.build(NON_LATTICE_ELEMENTS, NON_LATTICE_COVERS)
    assert str(exc.value) == "no join for 'x', 'y', upper covers of 'bot'"


def test_from_uppers_never_validates():
    up_adj = [[1, 2], [3, 4], [3, 4], [5], [5], []]  # NON_LATTICE_COVERS by index
    lat = FiniteLattice.from_uppers(NON_LATTICE_ELEMENTS, up_adj, list(range(6)))
    assert lat.cover_pairs() == non_lattice().cover_pairs()
    with pytest.raises(NotALatticeError, match="no join for 'x', 'y'"):
        lat._validate()


def test_pop_on_non_lattice_raises_typed_error():
    lat = non_lattice()
    with pytest.raises(NotALatticeError, match="lower covers of 'top'"):
        pop_down(lat, "top")
    with pytest.raises(NotALatticeError, match="upper covers of 'bot'"):
        pop_up(lat, "bot")
    for direction in ("down", "up"):
        with pytest.raises(NotALatticeError):
            lat.pop_polynomial(direction)


def test_incomparable_minimal_upper_bounds_detected():
    # two atoms with two coatoms above both: join of the atoms fails validation
    covers = [
        ("bot", "x"),
        ("bot", "y"),
        ("x", "u"),
        ("x", "v"),
        ("y", "u"),
        ("y", "v"),
        ("u", "top"),
        ("v", "top"),
    ]
    with pytest.raises(NotALatticeError, match="join|meet"):
        FiniteLattice.build(["bot", "x", "y", "u", "v", "top"], covers)
    # construction succeeds with validation off; the censuses still detect failures
    lat = FiniteLattice.build(["bot", "x", "y", "u", "v", "top"], covers, validate=False)
    for direction in ("down", "up"):
        with pytest.raises(NotALatticeError):
            lat.pop_image(direction)


def test_hexagon_pop_polynomial():
    lat = hexagon()
    assert lat.pop_polynomial("down") == QPoly({2: 1, 1: 2})
    assert lat.pop_polynomial("up") == QPoly({2: 1, 1: 2})
    assert lat.pop_image("down") == {(1, 2, 3, 4), (1, 3, 2, 4), (3, 1, 4, 2)}


def test_pop_bounds():
    for lat in (weak_b_lattice(2), hexagon(), weak_a_lattice(4)):
        bottom, top = lat.elements[0], lat.elements[-1]
        for x in lat.elements:
            assert leq(lat, pop_down(lat, x), x)
            assert leq(lat, x, pop_up(lat, x))
        assert pop_down(lat, bottom) == bottom
        assert pop_up(lat, top) == top


def test_congruence_identity_relation():
    lat = reference_build(*_weak_b_pairs(2))
    projection = lat.congruence_classes(lambda x: ())
    assert all(projection[x] == x for x in lat.elements)


def test_congruence_projection_paper_examples():
    lat = reference_build(*_weak_a_pairs(4))
    projection = lat.congruence_classes(tam_a_adjacent)
    assert projection[(3, 1, 4, 2)] == (1, 3, 4, 2)

    lat_b = reference_build(*_weak_b_pairs(4))
    projection_b = lat_b.congruence_classes(tam_b_adjacent)
    # The worked example in the source text ends with an extra swap of the
    # central pair (5,4) that has no witness value strictly between 4 and 5,
    # so it is not a legal congruence step; the class minimum is 31254786
    # (31245786 is 312*-avoiding too, hence the minimum of a different class).
    assert projection_b[(3, 7, 1, 5, 4, 8, 2, 6)] == (3, 1, 2, 5, 4, 7, 8, 6)
    assert projection_b[(3, 1, 2, 4, 5, 7, 8, 6)] == (3, 1, 2, 4, 5, 7, 8, 6)

    projection_b2 = reference_build(*_weak_b_pairs(2)).congruence_classes(tam_b_adjacent)
    assert projection_b2[(2, 4, 1, 3)] == (2, 1, 4, 3)


def test_congruence_projection_properties():
    lat = reference_build(*_weak_a_pairs(4))
    projection = lat.congruence_classes(tam_a_adjacent)
    for x in lat.elements:
        assert lat.leq(projection[x], x)
        assert projection[projection[x]] == projection[x]


def test_non_interval_class_rejected():
    lat = reference_build(range(3), [(0, 1), (1, 2)])
    with pytest.raises(NonIntervalClassError):
        lat.congruence_classes(lambda x: (2,) if x == 0 else ())


def test_qpoly_basics():
    p = QPoly({2: 1, 1: 4})
    assert str(p) == "q^2 + 4q"
    assert p[1] == 4 and p[0] == 0
    assert sum(p.coeffs.values()) == 5
    assert p.to_json_dict() == {"1": "4", "2": "1"}
    assert QPoly({int(d): int(c) for d, c in p.to_json_dict().items()}) == p
    assert str(QPoly()) == "0"
    assert str(QPoly({0: 3, 1: -1})) == "-q + 3"
    assert (p - p) == QPoly()
    assert p + QPoly({1: 1}) == QPoly({2: 1, 1: 5})


def test_cover_json_deterministic():
    lat = hexagon()
    assert cover_json(lat) == cover_json(lat)
    payload = json.loads(cover_json(lat))
    assert len(payload["elements"]) == 6
    assert len(payload["covers"]) == 6

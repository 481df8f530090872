"""The tests' reference lattice and the family builders' key-pair oracle.

`ReferenceLattice` is the kernel's first construction, kept as the oracle
that `FiniteLattice` is cross-checked against; its `congruence_classes` is
the only implementation of congruence classes.  `KEY_PAIRS` spells out each
family's elements and cover pairs as keys from its own cover functions.
"""
import itertools
from collections import deque

from poplat import dyck, signed, tamari
from poplat.dyck import j_a_lattice, j_b_lattice
from poplat.errors import NotALatticeError
from poplat.lattice import QPoly, kahn_order
from poplat.tamari import tam_a_lattice, tam_b_lattice
from poplat.weak import weak_a_lattice, weak_b_lattice
from word_stats import flip_orbit, flip_valley, valleys, weak_b_covers


class NonIntervalClassError(ValueError):
    """A congruence class is not an interval of the lattice."""


# --- reference oracle ----------------------------------------------------------
# The kernel's first construction: covers deduplicated as key pairs and looked
# up through a key dict, both cover lists sorted, and the order kept as
# forward-indexed masks along one Kahn linear extension: down[i] holds bit j
# for every j <= i below i, up[i] bit j for every j >= i above i (so every
# upset is full width).  Queries go through keys one element at a time.  It
# shares no code with `FiniteLattice` and never validates.


def reference_order(elements, covers):
    """Kahn's linear extension of the deduplicated covers, as the element
    tuple and each element's sorted lower and upper cover indices in it."""
    keys = list(elements)
    tmp_index = {k: i for i, k in enumerate(keys)}
    up_adj = [[] for _ in keys]
    down_adj = [[] for _ in keys]
    seen = set()
    for lo, hi in covers:
        pair = (tmp_index[lo], tmp_index[hi])
        if pair in seen:
            continue
        seen.add(pair)
        up_adj[pair[0]].append(pair[1])
        down_adj[pair[1]].append(pair[0])
    indegree = [len(down_adj[i]) for i in range(len(keys))]
    queue = deque(i for i, d in enumerate(indegree) if d == 0)
    topo = []
    while queue:
        i = queue.popleft()
        topo.append(i)
        for j in up_adj[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(topo) != len(keys):
        raise NotALatticeError("cycle detected in cover relation")
    order = tuple(keys[i] for i in topo)
    index = {k: i for i, k in enumerate(order)}
    lowers = [tuple(sorted(index[keys[j]] for j in down_adj[old])) for old in topo]
    uppers = [tuple(sorted(index[keys[j]] for j in up_adj[old])) for old in topo]
    return order, lowers, uppers


class ReferenceLattice:
    def __init__(self, elements, covers):
        self.elements, self.lowers, self.uppers = reference_order(elements, covers)
        self.index = {k: i for i, k in enumerate(self.elements)}
        n = len(self.elements)
        self.down = [0] * n
        for i in range(n):
            mask = 1 << i
            for j in self.lowers[i]:
                mask |= self.down[j]
            self.down[i] = mask
        self.up = [0] * n
        for i in range(n - 1, -1, -1):
            mask = 1 << i
            for j in self.uppers[i]:
                mask |= self.up[j]
            self.up[i] = mask
        bottoms = sum(1 for c in self.lowers if not c)
        tops = sum(1 for c in self.uppers if not c)
        if n and (bottoms != 1 or tops != 1):
            raise NotALatticeError(f"{bottoms} minimal and {tops} maximal elements")

    def cover_pairs(self):
        return [(self.elements[i], self.elements[j])
                for i in range(len(self.elements)) for j in self.uppers[i]]

    def upper_covers(self, x):
        return tuple(self.elements[j] for j in self.uppers[self.index[x]])

    def lower_covers(self, x):
        return tuple(self.elements[j] for j in self.lowers[self.index[x]])

    def leq(self, x, y):
        return bool(self.down[self.index[y]] >> self.index[x] & 1)

    def _meet_mask(self, mask):
        top_bit = mask.bit_length() - 1
        return top_bit if self.down[top_bit] == mask else None

    def _join_mask(self, mask):
        low_bit = (mask & -mask).bit_length() - 1
        return low_bit if self.up[low_bit] == mask else None

    def meet(self, *xs):
        mask = -1
        for x in xs:
            mask &= self.down[self.index[x]]
        got = self._meet_mask(mask)
        if got is None:
            raise NotALatticeError(f"no meet of {xs!r}")
        return self.elements[got]

    def join(self, *xs):
        mask = -1
        for x in xs:
            mask &= self.up[self.index[x]]
        got = self._join_mask(mask)
        if got is None:
            raise NotALatticeError(f"no join of {xs!r}")
        return self.elements[got]

    def pop_down(self, x):
        i = self.index[x]
        mask = self.down[i]
        for j in self.lowers[i]:
            mask &= self.down[j]
        got = self._meet_mask(mask)
        if got is None:
            raise NotALatticeError(f"no meet of the lower covers of {x!r}")
        return self.elements[got]

    def pop_up(self, x):
        i = self.index[x]
        mask = self.up[i]
        for j in self.uppers[i]:
            mask &= self.up[j]
        got = self._join_mask(mask)
        if got is None:
            raise NotALatticeError(f"no join of the upper covers of {x!r}")
        return self.elements[got]

    def pop_image(self, direction):
        op = self.pop_down if direction == "down" else self.pop_up
        return {op(x) for x in self.elements}

    def pop_polynomial(self, direction):
        covers = self.uppers if direction == "down" else self.lowers
        coeffs = {}
        for z in self.pop_image(direction):
            d = len(covers[self.index[z]])
            coeffs[d] = coeffs.get(d, 0) + 1
        return QPoly(coeffs)

    def congruence_classes(self, adjacency, up=False):
        """Each element's class minimum, or with `up` its class maximum, for
        the congruence generated by `adjacency`; every class must be an
        interval."""
        n = len(self.elements)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for x in self.elements:
            for y in adjacency(x):
                ra, rb = find(self.index[x]), find(self.index[y])
                if ra != rb:
                    parent[ra] = rb
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        projection = {}
        for members in groups.values():
            class_mask = sum(1 << i for i in members)
            minima = [i for i in members if (self.down[i] & class_mask) == 1 << i]
            maxima = [i for i in members if (self.up[i] & class_mask) == 1 << i]
            if len(minima) != 1 or len(maxima) != 1:
                raise NonIntervalClassError(
                    f"class {sorted(self.elements[i] for i in members)!r} has "
                    f"{len(minima)} minimal and {len(maxima)} maximal elements"
                )
            lo, hi = minima[0], maxima[0]
            if (self.up[lo] & self.down[hi]) != class_mask:
                raise NonIntervalClassError(
                    f"class of {self.elements[lo]!r} is not an interval"
                )
            for i in members:
                projection[self.elements[i]] = self.elements[hi if up else lo]
        return projection


def reference_build(elements, covers):
    """The kernel's first `FiniteLattice.build`, without the lattice check."""
    return ReferenceLattice(elements, covers)


def kahn_view(lat):
    """A `FiniteLattice` re-indexed along `kahn_order` of its stored upper
    covers, in `reference_order`'s form: the element tuple, which is
    `lat.kahn_elements()`, and each element's sorted lower and upper cover
    indices in it; then `rank`, the Kahn position of each stored index."""
    order = kahn_order(lat._uppers)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r

    def relabel(covers):
        return [tuple(sorted(map(rank.__getitem__, covers[i]))) for i in order]

    return (tuple(lat.kahn_elements()), relabel(lower_cover_table(lat)),
            relabel(lat._uppers), rank)


# --- the kernel's halves by the pull-style closure ------------------------------
# The kernel stores only upper covers and lower-cover counts; it closes its
# down half by pushing masks upward.  The oracle derives each element's lower
# covers from the upper ones, closes both halves by pulling each mask from
# the covers on the half's lower side (the kernel's first closure), and
# resolves every pop afterwards against the finished masks.


_held = {}  # table name -> (upper-cover tuple, table) of the last lattice asked about


def _held_table(lat, name, make):
    """`make(lat)`, kept for the last `FiniteLattice` asked about, keyed by its
    (kept) upper-cover tuple, so a loop over the elements makes it once."""
    held = _held.get(name)
    if held is None or held[0] is not lat._uppers:
        held = _held[name] = (lat._uppers, make(lat))
    return held[1]


def _lowers(lat):
    below = [[] for _ in lat._uppers]
    for i, covers in enumerate(lat._uppers):
        for j in covers:
            below[j].append(i)
    return tuple(map(tuple, below))


def lower_cover_table(lat):
    """Each element's lower covers in the `FiniteLattice` lat, as increasing
    index tuples, derived from its upper covers."""
    return _held_table(lat, "lowers", _lowers)


def key_index(lat):
    """The `key -> index` map of the `FiniteLattice` lat."""
    return _held_table(lat, "index", lambda lat: {k: i for i, k in enumerate(lat.elements)})


def _irreducible_closure(n, entries):
    """Irreducible-width masks of a half, indexed by element, and the lookup
    from a mask to the element it belongs to.

    `entries` gives each element's index int with its covers on the half's
    lower side, every element after its covers.  An entry with exactly one
    cover is irreducible and owns the next bit; every mask is the union of
    its covers' masks, plus the entry's own bit.  A mask shared by two
    entries looks up None: each index is one int object, so `setdefault`
    hands back another object exactly when the mask is taken.
    """
    masks = [0] * n
    lookup = {}
    bit = 1
    for i, covers in entries:
        if len(covers) == 1:
            mask = masks[covers[0]] | bit
            bit <<= 1
        else:
            mask = 0
            for j in covers:
                mask |= masks[j]
        if lookup.setdefault(mask, i) is not i:
            lookup[mask] = None
        masks[i] = mask
    return masks, lookup


def half_oracle(lat, direction):
    """The kernel's half of the `FiniteLattice` lat that pops `direction`,
    as (masks, lookup, image, missing).

    A pop is the AND of an element's mask with its covers' on the half's
    lower side, read back as the one element with that mask among those the
    pass has read by then, the element itself included (the kernel resolves
    each pop in its pass).  `image` lists the pops' indices increasing;
    `missing` is the least index whose pop is not found, or None.
    """
    n = len(lat)
    if direction == "down":
        order, below = range(n), lower_cover_table(lat)
    else:
        order, below = range(n - 1, -1, -1), lat._uppers
    ids = list(range(n))
    masks, lookup = _irreducible_closure(n, ((ids[i], below[i]) for i in order))
    read = [0] * n  # read[i]: how many elements the pass reads before i
    holders = {}
    for position, i in enumerate(order):
        read[i] = position
        holders.setdefault(masks[i], []).append(i)
    image, missing = set(), []
    for i in order:
        mask = masks[i]
        for j in below[i]:
            mask &= masks[j]
        found = [h for h in holders.get(mask, ()) if read[h] <= read[i]]
        if len(found) == 1:
            image.add(found[0])
        else:
            missing.append(i)
    return masks, lookup, sorted(image), min(missing, default=None)


# --- single-element queries of a `FiniteLattice` -------------------------------
# The program pops through the families' word and path functions and takes
# whole images, and their cover counts, from `FiniteLattice.pop_image`; these
# look an element up in `key_index` and read its covers off the kernel's
# upper covers, its order and its pop off the kernel's masks and lookup, as
# the oracle of the direct pops, the cover counts and the order.


def upper_covers(lat, x):
    """The upper covers of x in the `FiniteLattice` lat, in stored order."""
    return tuple(lat.elements[j] for j in lat._uppers[key_index(lat)[x]])


def lower_covers(lat, x):
    """The lower covers of x in the `FiniteLattice` lat, increasing."""
    return tuple(lat.elements[j] for j in lower_cover_table(lat)[key_index(lat)[x]])


def leq(lat, x, y):
    """x <= y in the `FiniteLattice` lat: x's down mask is a subset of y's."""
    index, down = key_index(lat), lat._half("down")[0]
    below = down[index[x]]
    return below & down[index[y]] == below


def _pop(lat, direction, x, covers):
    """The AND of x's mask with its `covers`' in the half that pops
    `direction`, read back through that half's lookup."""
    masks, lookup = lat._half(direction)[:2]
    i = key_index(lat)[x]
    mask = masks[i]
    for j in covers(i):
        mask &= masks[j]
    got = lookup.get(mask)
    if got is None:
        word, side = ("meet", "lower") if direction == "down" else ("join", "upper")
        raise NotALatticeError(f"no {word} of the {side} covers of {lat.elements[i]!r}")
    return lat.elements[got]


def pop_down(lat, x):
    """Meet of x with everything it covers in the `FiniteLattice` lat."""
    return _pop(lat, "down", x, lower_cover_table(lat).__getitem__)


def pop_up(lat, x):
    """Join of x with everything covering it in the `FiniteLattice` lat."""
    return _pop(lat, "up", x, lat._uppers.__getitem__)


# --- Tamari covers and projections by the program's rules ----------------------
# The program reads them inside its builders and pops; the tests call them one
# word at a time.


def tam_a_lower_covers(y):
    """Lower covers of a 312-avoiding y in the type-A Tamari lattice."""
    return tamari._block_swaps(y, 0)


def tam_b_lower_covers(y):
    """Lower covers of y in the type-B Tamari lattice."""
    return tamari._block_swaps(y, len(y) // 2 + 1)


def project_tam_a(p, up=False):
    """Minimum, or with `up` maximum, of p's congruence class in the weak order."""
    return tamari._project(p, 0, up)


def project_tam_b(x, up=False):
    """Minimum, or with `up` maximum, of x's class in the signed weak order."""
    return tamari._project(x, len(x) // 2 + 1, up)


# --- key-pair oracle of the family builders ------------------------------------
# Each family's elements and (lower, upper) cover pairs, spelled out as keys
# from its own cover functions.  Through `reference_build` they give the
# lattice that the family's index-space builder must reproduce, element order
# and cover lists included, once it is re-indexed along its Kahn order
# (`kahn_view`).


def _inversions(p):
    return sum(a > b for a, b in itertools.combinations(p, 2))


def _tamari_pairs(elements, lower_covers):
    """Deduplicated pairs sorted by (inversions, word) of the upper end, then
    of the lower one."""
    ranked = sorted(elements, key=lambda p: (_inversions(p), p))
    rank = {p: r for r, p in enumerate(ranked)}
    pairs = {(w, y) for y in elements for w in lower_covers(y)}
    return list(elements), sorted(pairs, key=lambda pair: (rank[pair[1]], rank[pair[0]]))


def _swap(word, i):
    w = list(word)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def weak_a_covers(p):
    """Upper covers in the weak order on S_n: swap one adjacent ascent."""
    return [_swap(p, i) for i in range(len(p) - 1) if p[i] < p[i + 1]]


def _weak_a_pairs(n):
    elements = sorted(itertools.permutations(range(1, n + 1)))
    return elements, [(p, q) for p in elements for q in weak_a_covers(p)]


def _weak_b_pairs(n):
    elements = list(signed.enumerate_signed(n))
    return elements, [(x, y) for x in elements for y in weak_b_covers(x)]


def _j_a_pairs(m):
    elements = list(dyck.all_paths(m))
    return elements, [
        (p, flip_valley(p, x)) for p in elements for x in valleys(p)
    ]


def _j_b_pairs(n):
    elements = list(dyck.symmetric_paths(n))
    return elements, [
        (p, flip_orbit(p, x)) for p in elements for x in valleys(p) if x <= 2 * n
    ]


# builder -> n -> (elements, cover pairs) of its lattice of size n
KEY_PAIRS = {
    weak_a_lattice: _weak_a_pairs,
    weak_b_lattice: _weak_b_pairs,
    tam_a_lattice: lambda n: _tamari_pairs(tamari.tam_a_elements(n), tam_a_lower_covers),
    tam_b_lattice: lambda n: _tamari_pairs(tamari.tam_b_elements(n), tam_b_lower_covers),
    j_a_lattice: _j_a_pairs,
    j_b_lattice: _j_b_pairs,
}

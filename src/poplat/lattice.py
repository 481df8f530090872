"""Generic finite-lattice kernel built from an explicit cover relation.

The kernel works in index space: it keeps the builder's linear extension of
the elements, each element's upper covers as indices and its count of lower
covers, and answers only for the whole lattice (the pop census and image,
the cover pairs), never for one key.  The order is read in two halves, each
irreducible-width bitmasks (Python ints) indexed by element and a
`mask -> index` lookup, built by the first census that reads the half:

* down: every element with exactly one lower cover (a join-irreducible)
  owns one bit, and mask i holds the bits of the join-irreducibles j <= i;
* up: every element with exactly one upper cover (a meet-irreducible) owns
  one bit, the highest of them bit 0, and mask i holds the bits of the
  meet-irreducibles j >= i: the down half of the dual lattice.

In a finite lattice x -> J(x), the set of join-irreducibles below x, is
injective and J(x meet y) = J(x) & J(y) (Birkhoff's representation theorem;
Davey and Priestley, Introduction to Lattices and Order, ch. 2).  So a pop,
the meet of an element with its lower covers, is one AND of masks read back
through the lookup, and so is the upward pop in the up half; the pass that
builds a half resolves every pop.  A mask that two elements share maps to
None, so looking it up finds no pop.  A mask has one bit per irreducible
(45 at j-a 10, 722 at weak-b 6), not one per element.

The lookup does not prove that a poset is a lattice: `_validate`, the only
caller that builds a full-width table, holds its upset table (N²/16 bytes)
for the length of the check.  It reads only the covers, so it runs before
either mask table exists.  Queries are pure, and instances safe to share:
immutable after build but for the two halves, each assigned whole by the
first census that reads it.
"""
from __future__ import annotations

import gc
from collections import Counter
from functools import wraps
from itertools import combinations, compress
from operator import ne
from typing import Callable, Hashable, Iterable, Sequence

from .errors import NotALatticeError


class QPoly:
    """Polynomial in q with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {d: c for d, c in (coeffs or {}).items() if c != 0}
        if any(d < 0 for d in self.coeffs):
            raise ValueError("negative degree")

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) - c
        return QPoly(out)

    def __getitem__(self, degree: int) -> int:
        return self.coeffs.get(degree, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def to_json_dict(self) -> dict[str, str]:
        return {str(d): str(c) for d, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            c = self.coeffs[d]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs!r})"


def kahn_order(uppers: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's FIFO linear extension of index-space upper covers; it depends
    on the order within each list.  Raises NotALatticeError on a cycle."""
    indegree = [0] * len(uppers)
    for ups in uppers:
        for j in ups:
            indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:
        for j in uppers[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) != len(uppers):
        raise NotALatticeError("cycle detected in cover relation")
    return order


def index_uppers(
    elements: Sequence[Hashable], upper_covers: Callable[[Hashable], Iterable[Hashable]]
) -> list[list[int]]:
    """`upper_covers(x)`, which must not repeat a key, as indices in
    `elements`."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[y] for y in upper_covers(x)] for x in elements]


# A half's pass reads each element after its covers on the half's lower
# side, enters its mask in the lookup, where a mask two elements share
# looks up None (each index is one int object, so `setdefault` hands back
# another exactly when the mask is taken), then looks up its pop: the AND
# of those covers' masks, an element's no later in the pass.  A half is
# (masks, lookup, image as index ints, first element in stored order whose
# pop is missing, or None).


def _down_half(ids, uppers, lower_counts):
    """Pushes each mask to the upper covers in stored order.  A second push
    starts the element's AND accumulator, dropped when it is read.  Only the
    bottom's mask is 0, and what covers it covers nothing else, so a 0 in
    `masks` means no push yet."""
    masks, meets, lookup, seen = [0] * len(ids), {}, {}, bytearray(len(ids))
    meet = meets.get
    bit = 1
    missing = None
    for i, covers, count in zip(ids, uppers, lower_counts):
        mask = masks[i]
        if count == 1:
            pop, mask = mask, mask | bit
            masks[i], bit = mask, bit << 1
        else:
            pop = meets.pop(i, mask)
        if lookup.setdefault(mask, i) is not i:
            lookup[mask] = None
        got = lookup.get(pop)
        if got is not None:
            seen[got] = 1
        elif missing is None:
            missing = i
        for j in covers:
            m = masks[j]
            if m:
                masks[j] = m | mask
                meets[j] = meet(j, m) & mask
            else:
                masks[j] = mask
    return masks, lookup, list(compress(ids, seen)), missing


def _up_half(ids, uppers):
    """Pulls each mask from its upper covers, from the top down."""
    masks, lookup, seen = [0] * len(ids), {}, bytearray(len(ids))
    bit = 1
    missing = None
    for i, covers in zip(reversed(ids), reversed(uppers)):
        if len(covers) == 1:
            pop = masks[covers[0]]
            mask, bit = pop | bit, bit << 1
        else:
            mask, pop = 0, -1 if covers else 0
            for j in covers:
                mask |= masks[j]
                pop &= masks[j]
        masks[i] = mask
        if lookup.setdefault(mask, i) is not i:
            lookup[mask] = None
        got = lookup.get(pop)
        if got is not None:
            seen[got] = 1
        else:
            missing = i
    return masks, lookup, list(compress(ids, seen)), missing


class FiniteLattice:
    """A finite lattice given by elements and covers.

    `elements` is stored in the builder's linear-extension order; the
    censuses and `cover_pairs` return element keys, and take none.  The
    order is kept as each element's upper covers (`_uppers`, in the
    builder's order) and lower-cover count (`_lower_counts`), and two
    slots, `_down` and `_up`, that `_half` fills on first read.  Cover
    tuples, lookups and images share the builder's int object per index
    (`ids`, see `from_uppers`).
    """

    __slots__ = ("elements", "_uppers", "_lower_counts", "_ids", "_down", "_up")

    def __init__(self, elements, uppers, lower_counts, ids):
        self.elements = elements
        self._uppers = uppers
        self._lower_counts = lower_counts
        self._ids = ids
        self._down = self._up = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        elements: Iterable[Hashable],
        covers: Iterable[tuple[Hashable, Hashable]],
        validate: bool = True,
    ) -> "FiniteLattice":
        """Build from (lower, upper) cover pairs; optionally verify latticehood.

        A key-pair adapter over `from_uppers` for pairs in any order; a
        repeated pair counts once.  The keys are sorted by `kahn_order`, each
        element's covers in the order their pairs first appear, and handed
        over with sorted upper-cover lists drawn from its own index ints.
        With `validate`, `_validate` runs on the result.
        """
        keys = list(elements)
        uppers: dict[Hashable, dict] = {k: {} for k in keys}
        if len(uppers) != len(keys):
            raise ValueError("duplicate elements")
        for lo, hi in covers:
            uppers[lo][hi] = None
        keys = [keys[i] for i in kahn_order(index_uppers(keys, uppers.__getitem__))]
        ids = list(range(len(keys)))
        index = dict(zip(keys, ids)).__getitem__
        lat = cls.from_uppers(keys, [sorted(map(index, uppers[k])) for k in keys], ids)
        if validate:
            lat._validate()
        return lat

    @classmethod
    def from_uppers(
        cls, elements: Sequence[Hashable], up_adj: list[list[int]], ids: list[int]
    ) -> "FiniteLattice":
        """Build from index lists, without verifying latticehood.

        `up_adj[i]` lists, without repeats, the indices in `elements` of the
        upper covers of `elements[i]`, each above i: `elements` must be a
        linear extension.  It and each list are stored as given.  A cover to
        a lower or equal index raises NotALatticeError before any table is
        built.
        The family builders' orders are linear extensions:

        * weak orders: lexicographic, since a cover swaps an ascent;
        * Tamari carriers: sorted sublattices of the weak orders;
        * Dyck paths: sorted, since a valley flip raises the rank.

        `ids` is the list of int objects that `up_adj` draws its indices
        from, `ids[i] == i` for every element.  The builder owns these ints
        and the kernel keeps them, one object per index, in its cover tuples,
        and `ids` for the lookups and images: it does not re-map the covers.
        An `ids` of another length than `elements`, or with a value out of
        place, raises ValueError before anything else is checked or built.

        The build consumes `up_adj`: it empties the list in place once the
        cover tuples are made, which sets the build's peak (it allocates no
        mask), so a caller that still holds the list holds no cover.

        The build checks only the order and for a unique minimum and maximum;
        the caller vouches that the poset is a lattice, or validates it with
        `_validate`.  On a bounded non-lattice a census may raise
        NotALatticeError or return a wrong image, since the
        irreducible-width tables cannot tell.

        Nothing the build makes can be part of a cycle, so the cyclic
        garbage collector, whose passes would only scan it, is paused for
        the build; its previous state is restored on return or raise.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._from_uppers(elements, up_adj, ids)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _from_uppers(cls, elements, up_adj, ids):
        n = len(elements)
        if len(ids) != n or any(map(ne, ids, range(n))):
            raise ValueError(f"ids must be the ints 0..{n - 1} in order")
        for i, ups in zip(ids, up_adj):
            if ups and min(ups) <= i:
                j = next(j for j in ups if j <= i)
                raise NotALatticeError(
                    f"upper cover {elements[j]!r} of {elements[i]!r} "
                    f"does not come after it"
                )
        uppers = tuple(map(tuple, up_adj))
        up_adj.clear()
        counts = [0] * n
        for covers in uppers:
            for j in covers:
                counts[j] += 1

        lat = cls(tuple(elements), uppers, counts, ids)
        if n:
            bottoms, tops = counts.count(0), uppers.count(())
            if bottoms != 1 or tops != 1:
                raise NotALatticeError(
                    f"{bottoms} minimal and {tops} maximal elements"
                )
        return lat

    def _validate(self) -> None:
        """Raise NotALatticeError unless the bounded poset is a lattice.

        A finite poset with a unique minimum and maximum (checked by
        `from_uppers`) is a lattice iff every two upper covers of a common
        element have a join (Freese, Jezek and Nation, Free Lattices,
        ch. 11): sum over z of C(#upper covers of z, 2) bitmask tests, so
        only the elements with two or more upper covers are visited.
        Elements and pairs are scanned in linear-extension order, against a
        full-width upset table built for this call, its bits numbered from
        the top: `up[i]` has bit last - j for every element j >= i (an int
        is as wide as its highest bit and every upset holds the top, so
        `up[i]` is n-i bits wide, not n); the highest bit of an AND of upsets
        is its least element in linear-extension order, and the AND is
        principal, a join, exactly when it is that element's own upset.
        """
        uppers, last = self._uppers, len(self.elements) - 1
        up = [0] * (last + 1)
        for i in range(last, -1, -1):
            mask = 1 << (last - i)
            for j in uppers[i]:
                mask |= up[j]
            up[i] = mask
        for z, covers in enumerate(uppers):
            if len(covers) < 2:
                continue
            for a, b in combinations(covers, 2):
                mask = up[a] & up[b]
                if up[last + 1 - mask.bit_length()] != mask:
                    raise NotALatticeError(
                        f"no join for {self.elements[a]!r}, "
                        f"{self.elements[b]!r}, "
                        f"upper covers of {self.elements[z]!r}"
                    )

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def kahn_elements(self) -> list:
        """The elements in `kahn_order` of the stored upper covers, as
        `enumerate` prints them."""
        return list(map(self.elements.__getitem__, kahn_order(self._uppers)))

    def cover_pairs(self) -> list[tuple]:
        return [
            (x, self.elements[j])
            for x, covers in zip(self.elements, self._uppers)
            for j in covers
        ]

    def _half(self, direction: str):
        """The half that pops `direction`, built into its slot on first call."""
        if direction == "down":
            half = self._down
            if half is None:
                half = self._down = _down_half(self._ids, self._uppers, self._lower_counts)
        elif direction == "up":
            half = self._up
            if half is None:
                half = self._up = _up_half(self._ids, self._uppers)
        else:
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        return half

    # -- pop operators -----------------------------------------------------

    def _image(self, direction: str):
        """Indices of the pops and their counted covers; a non-lattice names
        the first element whose pop does not exist."""
        image, missing = self._half(direction)[2:]
        if missing is not None:
            word, side = ("meet", "lower") if direction == "down" else ("join", "upper")
            raise NotALatticeError(
                f"no {word} of the {side} covers of {self.elements[missing]!r}"
            )
        if direction == "up":
            return image, self._lower_counts.__getitem__
        return image, lambda i: len(self._uppers[i])

    def pop_polynomial(self, direction: str = "down") -> QPoly:
        """q-census of the pop image.

        "down": sum q^(#upper covers) over the distinct downward pops;
        "up":   sum q^(#lower covers) over the distinct upward pops.
        The two agree on every lattice (duality), which the tests exercise.
        """
        image, counted = self._image(direction)
        return QPoly(Counter(map(counted, image)))

    def pop_image(self, direction: str = "down", covers: int | None = None) -> set:
        """With `covers`, only the pops with that many covers as counted by
        `pop_polynomial`."""
        image, counted = self._image(direction)
        if covers is not None:
            image = [i for i in image if counted(i) == covers]
        return {self.elements[i] for i in image}


def last_size_cache(fn: Callable[[int], object]):
    """Memoise `fn(n)` for the last n asked for.

    Asking for another n forgets the held value before computing the new
    one, so a run over sizes 1..n holds one value at a time.  `cache_clear()`
    forgets it too, as on an `lru_cache` function.
    """
    held: dict = {}

    @wraps(fn)
    def cached(n: int):
        if n not in held:
            held.clear()
            held[n] = fn(n)
        return held[n]

    cached.cache_clear = held.clear
    return cached


def memoised_builder(build: Callable[[int], FiniteLattice]):
    """Memoise an unvalidated family builder `build(n)` for the last n built,
    as `builder(n, validate=True)`.

    The lattice is built once, by `build(n)`; a call with validate=True
    validates that same instance (once), so every call for n, however
    `validate` is passed, returns one object.  The memo is a
    `last_size_cache`, so building another size first forgets the last one.
    """

    @last_size_cache
    def entry(n: int) -> list:
        return [build(n), False]  # the lattice, whether it is validated

    @wraps(build)
    def builder(n: int, validate: bool = True) -> FiniteLattice:
        held = entry(n)
        if validate and not held[1]:
            held[0]._validate()
            held[1] = True
        return held[0]

    builder.cache_clear = entry.cache_clear
    return builder

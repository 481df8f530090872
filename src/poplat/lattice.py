"""Generic finite-lattice kernel built from an explicit cover relation.

Construction computes a linear extension, re-indexes the elements along it,
and stores the order as per-element downset/upset bitmasks (Python ints).
The linear extension makes meet and join extraction cheap: in the intersection
of two downsets the highest set bit is a maximal common lower bound, and the
intersection is a principal ideal exactly when that bit's own downset equals
the intersection.  All queries are pure; instances are immutable after build
and safe to share.
"""
from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Hashable, Iterable

from .errors import GuardError, NonIntervalClassError, NotALatticeError

DEFAULT_MAX_ELEMENTS = 50_000
MAX_ELEMENTS_ENV = "POPLAT_MAX_ELEMENTS"


class QPoly:
    """Polynomial in q with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {d: c for d, c in (coeffs or {}).items() if c != 0}
        if any(d < 0 for d in self.coeffs):
            raise ValueError("negative degree")

    @classmethod
    def q_power(cls, degree: int, coeff: int = 1) -> "QPoly":
        return cls({degree: coeff})

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

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def evaluate(self, q: int) -> int:
        return sum(c * q**d for d, c in self.coeffs.items())

    def to_json_dict(self) -> dict[str, str]:
        return {str(d): str(c) for d, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> "QPoly":
        return cls({int(d): int(c) for d, c in data.items()})

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


def max_elements_guard() -> int:
    value = os.environ.get(MAX_ELEMENTS_ENV)
    return int(value) if value else DEFAULT_MAX_ELEMENTS


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A finite lattice given by elements and covers.

    `elements` is stored in linear-extension order; all public methods accept
    and return the original element keys.
    """

    __slots__ = ("elements", "_index", "_uppers", "_lowers", "_down", "_up")

    def __init__(self, elements, index, uppers, lowers, down, up):
        self.elements = elements
        self._index = index
        self._uppers = uppers
        self._lowers = lowers
        self._down = down
        self._up = up

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        elements: Iterable[Hashable],
        covers: Iterable[tuple[Hashable, Hashable]],
        validate: bool = True,
        max_elements: int | None = None,
    ) -> "FiniteLattice":
        """Build from (lower, upper) cover pairs; optionally verify latticehood.

        Validation tests a join for every two upper covers of a common
        element, sum over z of C(#upper covers of z, 2) bitmask tests; it can
        be switched off for large instances known in advance to be lattices.
        """
        keys = list(elements)
        guard = max_elements if max_elements is not None else max_elements_guard()
        if len(keys) > guard:
            raise GuardError(f"{len(keys)} elements exceed guard {guard}")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate elements")
        tmp_index = {k: i for i, k in enumerate(keys)}
        up_adj: list[list[int]] = [[] for _ in keys]
        down_adj: list[list[int]] = [[] for _ in keys]
        seen = set()
        for lo, hi in covers:
            pair = (tmp_index[lo], tmp_index[hi])
            if pair in seen:
                continue
            seen.add(pair)
            up_adj[pair[0]].append(pair[1])
            down_adj[pair[1]].append(pair[0])

        # Kahn's algorithm: linear extension + cycle detection.
        indegree = [len(down_adj[i]) for i in range(len(keys))]
        queue = deque(i for i, d in enumerate(indegree) if d == 0)
        topo: list[int] = []
        while queue:
            i = queue.popleft()
            topo.append(i)
            for j in up_adj[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if len(topo) != len(keys):
            raise NotALatticeError("cycle detected in cover relation")

        order = [keys[i] for i in topo]
        index = {k: i for i, k in enumerate(order)}
        uppers = [
            tuple(sorted(index[keys[j]] for j in up_adj[old]))
            for old in topo
        ]
        lowers = [
            tuple(sorted(index[keys[j]] for j in down_adj[old]))
            for old in topo
        ]
        n = len(order)
        down = [0] * n
        for i in range(n):
            mask = 1 << i
            for j in lowers[i]:
                mask |= down[j]
            down[i] = mask
        up = [0] * n
        for i in range(n - 1, -1, -1):
            mask = 1 << i
            for j in uppers[i]:
                mask |= up[j]
            up[i] = mask

        lat = cls(tuple(order), index, tuple(uppers), tuple(lowers), down, up)
        if n:
            bottoms = [i for i in range(n) if not lowers[i]]
            tops = [i for i in range(n) if not uppers[i]]
            if len(bottoms) != 1 or len(tops) != 1:
                raise NotALatticeError(
                    f"{len(bottoms)} minimal and {len(tops)} maximal elements"
                )
        if validate:
            lat._validate()
        return lat

    def _validate(self) -> None:
        """Raise NotALatticeError unless the bounded poset is a lattice.

        A finite poset with a unique minimum and maximum (checked by `build`)
        is a lattice iff every two upper covers of a common element have a
        join (Freese, Jezek and Nation, Free Lattices, ch. 11).
        """
        up = self._up
        for z, covers in enumerate(self._uppers):
            for k, a in enumerate(covers):
                for b in covers[k + 1:]:
                    if self._join_mask(up[a] & up[b]) is None:
                        raise NotALatticeError(
                            f"no join for {self.elements[a]!r}, {self.elements[b]!r}, "
                            f"upper covers of {self.elements[z]!r}"
                        )

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, key) -> bool:
        return key in self._index

    @property
    def bottom(self):
        return self.elements[0]

    @property
    def top(self):
        return self.elements[len(self.elements) - 1] if self.elements else None

    def leq(self, x, y) -> bool:
        return bool(self._down[self._index[y]] >> self._index[x] & 1)

    def upper_covers(self, x) -> tuple:
        return tuple(self.elements[j] for j in self._uppers[self._index[x]])

    def lower_covers(self, x) -> tuple:
        return tuple(self.elements[j] for j in self._lowers[self._index[x]])

    def cover_pairs(self) -> list[tuple]:
        return [
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in self._uppers[i]
        ]

    def _meet_mask(self, mask: int):
        top_bit = mask.bit_length() - 1
        if self._down[top_bit] != mask:
            return None
        return top_bit

    def _join_mask(self, mask: int):
        low_bit = (mask & -mask).bit_length() - 1
        if self._up[low_bit] != mask:
            return None
        return low_bit

    def meet(self, *xs):
        if not xs:
            return self.top
        mask = -1
        for x in xs:
            mask &= self._down[self._index[x]]
        got = self._meet_mask(mask)
        if got is None:
            raise NotALatticeError(f"no meet of {xs!r}")
        return self.elements[got]

    def join(self, *xs):
        if not xs:
            return self.bottom
        mask = -1
        for x in xs:
            mask &= self._up[self._index[x]]
        got = self._join_mask(mask)
        if got is None:
            raise NotALatticeError(f"no join of {xs!r}")
        return self.elements[got]

    # -- pop operators -----------------------------------------------------

    def pop_down(self, x):
        """Meet of x with everything it covers."""
        i = self._index[x]
        mask = self._down[i]
        for j in self._lowers[i]:
            mask &= self._down[j]
        got = self._meet_mask(mask)
        if got is None:
            raise NotALatticeError(f"no meet of the lower covers of {x!r}")
        return self.elements[got]

    def pop_up(self, x):
        """Join of x with everything covering it."""
        i = self._index[x]
        mask = self._up[i]
        for j in self._uppers[i]:
            mask &= self._up[j]
        got = self._join_mask(mask)
        if got is None:
            raise NotALatticeError(f"no join of the upper covers of {x!r}")
        return self.elements[got]

    def pop_polynomial(self, direction: str = "down") -> QPoly:
        """q-census of the pop image.

        "down": sum q^(#upper covers) over distinct pop_down images;
        "up":   sum q^(#lower covers) over distinct pop_up images.
        The two agree on every lattice (duality), which the tests exercise.
        """
        coeffs: dict[int, int] = {}
        if direction == "down":
            image = {self.pop_down(x) for x in self.elements}
            for z in image:
                d = len(self._uppers[self._index[z]])
                coeffs[d] = coeffs.get(d, 0) + 1
        elif direction == "up":
            image = {self.pop_up(x) for x in self.elements}
            for z in image:
                d = len(self._lowers[self._index[z]])
                coeffs[d] = coeffs.get(d, 0) + 1
        else:
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        return QPoly(coeffs)

    def pop_image(self, direction: str = "down") -> set:
        op = self.pop_down if direction == "down" else self.pop_up
        return {op(x) for x in self.elements}

    # -- congruences ---------------------------------------------------------

    def congruence_classes(
        self, adjacency: Callable[[Hashable], Iterable[Hashable]]
    ) -> dict:
        """Map every element to the minimum of its class.

        Classes are the connected components of the symmetric closure of
        `adjacency`.  Each class must be an interval of the lattice (unique
        minimum, unique maximum, and equal to the full segment between them).
        """
        n = len(self.elements)
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for x in self.elements:
            i = self._index[x]
            for y in adjacency(x):
                ra, rb = find(i), find(self._index[y])
                if ra != rb:
                    parent[ra] = rb

        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)

        projection: dict = {}
        for members in groups.values():
            class_mask = 0
            for i in members:
                class_mask |= 1 << i
            minima = [
                i for i in members if (self._down[i] & class_mask) == 1 << i
            ]
            maxima = [
                i for i in members if (self._up[i] & class_mask) == 1 << i
            ]
            if len(minima) != 1 or len(maxima) != 1:
                raise NonIntervalClassError(
                    f"class {sorted(self.elements[i] for i in members)!r} has "
                    f"{len(minima)} minimal and {len(maxima)} maximal elements"
                )
            lo, hi = minima[0], maxima[0]
            if (self._up[lo] & self._down[hi]) != class_mask:
                raise NonIntervalClassError(
                    f"class of {self.elements[lo]!r} is not an interval"
                )
            for i in members:
                projection[self.elements[i]] = self.elements[lo]
        return projection

    # -- export ---------------------------------------------------------------

    def to_cover_json(self, serialize: Callable[[Hashable], str] = str) -> str:
        payload = {
            "elements": [serialize(x) for x in self.elements],
            "covers": [
                [serialize(a), serialize(b)] for a, b in self.cover_pairs()
            ],
        }
        return json.dumps(payload, sort_keys=True)

"""The registry: each lattice family and each counting theorem, declared once.

A `Family` says how its lattice is sized, built, read and popped; a `Theorem`
pairs a closed form with the census it is checked against.  The command-line
interface and the tests look everything up here instead of dispatching on
names.  Sizes reach the program only through it, so the memory budget is
checked here, before anything is enumerated; the builders take any size.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

from . import dyck, formulas, signed, tamari, weak, words
from .errors import GuardError
from .lattice import FiniteLattice, QPoly

Element = Union[words.Word, str]  # a word of integers or an r/f path
Value = Union[QPoly, int]

MAX_BYTES = 512 << 20  # what one run may allocate on top of the imported interpreter


def cost(elements: int, lattice: bool = True) -> int:
    """Estimated peak bytes of a run over N = `elements`, fitted not to underestimate.

    A lattice costs 4 KiB per element (elements, covers, scratch) plus N^2/8
    bytes for its two mask tables; a census without a lattice 200 B per element.
    """
    return 4096 * elements + elements * elements // 8 if lattice else 200 * elements


def check_budget(what: str, n: int, least: int, elements: Callable[[int], int],
                 lattice: bool = True) -> None:
    """Raise GuardError when a run at size n, over `elements(n)` elements, would
    pass MAX_BYTES.

    Counts grow with the size, so the sizes are stepped up from `least` and the
    first one past the budget refuses n: no count is computed past it, however
    large n is.
    """
    for k in range(least, n + 1):
        if (need := cost(count := elements(k), lattice)) > MAX_BYTES:
            raise GuardError(f"{what} is past the {MAX_BYTES >> 20} MiB memory budget: "
                             f"size {k} holds {count} elements and needs about {need >> 20} MiB")


class Family(NamedTuple):
    """One lattice family, sized by one integer parameter."""

    name: str
    size_flag: str  # the command-line flag that carries the size
    size: Callable[[int], int]  # element count of the lattice of a size
    build: Callable[..., FiniteLattice]  # memoised builder(n, validate=True)
    parse: Callable[[str], Element]  # text to element, raising ValueError
    format: Callable[[Element], str]
    pop_down: Callable[[Element], Element]
    pop_up: Callable[[Element], Element]
    image_direction: str  # "down" or "up": the pop whose image `predicate` tests
    predicate: Callable[[Element], bool] | None = None
    predicate_necessary_only: bool = False  # holds on the image, may hold off it
    preimage: Callable[[Element], Element] | None = None
    # (counted, predicted): the image split by first entry, n -> {entry: count}
    first_entry_census: tuple[Callable[[int], dict], Callable[[int], dict]] | None = None
    min_size: int = 0

    def admit(self, n: int) -> int:
        """Check the lattice of size n against the memory budget; return n."""
        check_budget(f"{self.name} {self.size_flag} {n}", n, self.min_size, self.size)
        return n


class Theorem(NamedTuple):
    """A closed form checked case by case against a census."""

    name: str
    formula_name: str
    first_n: int
    census: Callable[[int, bool], Value]  # (n, validate) -> computed value
    formula: Callable[[int, bool], Value]  # (n, as_printed) -> closed form
    elements: Callable[[int], int]  # elements the census of case n holds
    builds: bool = True  # whether the census builds a lattice of them

    def admit(self, max_n: int) -> None:
        """Check the cases up to max_n, bounded by the last, against the budget."""
        check_budget(f"{self.name} --max-n {max_n}", max_n, self.first_n, self.elements,
                     self.builds)


def check_least(flag: str, value: int, least: int) -> int:
    """Reject a size below the smallest one a family or theorem has."""
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")
    return value


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _parse_permutation(text: str) -> words.Word:
    return words.check_permutation(words.parse_word(text))


def _parse_signed(text: str) -> words.Word:
    return signed.validate_signed(words.parse_word(text))


def _parse_tam_a(text: str) -> words.Word:
    word = _parse_permutation(text)
    if not words.avoids_312(word):
        raise ValueError(f"{text!r} is not 312-avoiding")
    return word


def _parse_tam_b(text: str) -> words.Word:
    word = _parse_signed(text)
    if not words.avoids_312_star(word):
        raise ValueError(f"{text!r} is not in the type-B Tamari carrier")
    return word


def _parse_path(text: str) -> str:
    return dyck.check_path(text.strip())


def _parse_symmetric_path(text: str) -> str:
    path = _parse_path(text)
    if not dyck.is_symmetric(path):
        raise ValueError(f"not symmetric: {path!r}")
    if dyck.semi_length(path) % 2:
        raise ValueError(f"odd semi-length, not a type-B path: {path!r}")
    return path


def _lattice_pop_up(name: str, rank: Callable[[Element], int]):
    """Upward pop computed in the family's lattice of size rank(x), which holds x."""
    def pop_up(x: Element) -> Element:
        family = FAMILIES[name]
        return family.build(family.admit(rank(x)), False).pop_up(x)
    return pop_up


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "weak-a", "--n", math.factorial, weak.weak_a_lattice,
            _parse_permutation, words.format_word, weak.pop_weak, weak.pop_weak_up,
            image_direction="down",
        ),
        Family(
            "weak-b", "--n", lambda n: 2**n * math.factorial(n), weak.weak_b_lattice,
            _parse_signed, words.format_word, weak.pop_weak, weak.pop_weak_up,
            image_direction="down",
            predicate=weak.image_run_condition,
            predicate_necessary_only=True,
            first_entry_census=(weak.image_census_by_first_entry, formulas.census_prediction),
        ),
        Family(
            "tam-a", "--n", lambda n: _catalan(n + 1), tamari.tam_a_lattice,
            _parse_tam_a, words.format_word, tamari.pop_tam_a,
            _lattice_pop_up("tam-a", lambda x: len(x) - 1),
            image_direction="down",
            predicate=tamari.hong_image_predicate,
            preimage=tamari.preimage_ending_in_one,
        ),
        Family(
            "tam-b", "--n", lambda n: math.comb(2 * n, n), tamari.tam_b_lattice,
            _parse_tam_b, words.format_word, tamari.pop_tam_b,
            _lattice_pop_up("tam-b", lambda x: len(x) // 2),
            image_direction="down",
            predicate=tamari.tam_b_image_predicate,
            preimage=tamari.preimage_tam_b,
        ),
        Family(
            "j-a", "--semilength", _catalan, dyck.j_a_lattice,
            _parse_path, str, dyck.flip_peaks_down, dyck.flip_valleys_up,
            image_direction="up",
            predicate=dyck.image_predicate_a,
        ),
        Family(
            "j-b", "--n", lambda n: math.comb(2 * n, n), dyck.j_b_lattice,
            _parse_symmetric_path, str, dyck.flip_peaks_down, dyck.flip_valleys_up,
            image_direction="up",
            predicate=dyck.image_predicate_b,
        ),
    )
}


def _lattice_census(build: Callable[..., FiniteLattice]) -> Callable[[int, bool], QPoly]:
    return lambda n, validate: build(n, validate=validate).pop_polynomial("down")


def _weak_census(n: int, validate: bool) -> int:
    return weak.weak_b_lattice(n, validate=validate).pop_polynomial("down")[n - 1]


THEOREMS: dict[str, Theorem] = {
    t.name: t
    for t in (
        Theorem("weak", "weak-b", 1, _weak_census,
                lambda n, as_printed: formulas.weak_b_coefficient(n),
                FAMILIES["weak-b"].size),
        Theorem("tam-a", "tam-a", 1, _lattice_census(tamari.tam_a_lattice),
                lambda n, as_printed: formulas.tam_a_polynomial(n),
                FAMILIES["tam-a"].size),
        Theorem("tam-b", "tam-b", 1, _lattice_census(tamari.tam_b_lattice),
                lambda n, as_printed: formulas.tam_b_polynomial(n),
                FAMILIES["tam-b"].size),
        # Both ideal-lattice theorems count the upward image on the paths
        # themselves, O(#paths), without building a lattice.  At index n the
        # type-A form counts paths of semi-length n + 2.
        Theorem("jay-a", "jay-a", 0,
                lambda n, validate: dyck.pop_up_polynomial_a(n + 2),
                lambda n, as_printed: formulas.j_a_polynomial(n),
                lambda n: _catalan(n + 2), builds=False),
        Theorem("jay-b", "jay-b", 1,
                lambda n, validate: dyck.pop_up_polynomial_b(n),
                lambda n, as_printed: formulas.j_b_polynomial(n, include_j0=not as_printed),
                FAMILIES["j-b"].size, builds=False),
    )
}

FORMULAS: dict[str, Theorem] = {t.formula_name: t for t in THEOREMS.values()}

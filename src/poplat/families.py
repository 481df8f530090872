"""The registry: each lattice family and each counting theorem, declared once.

A `Family` says how its lattice is sized, built, read and popped; a `Theorem`
pairs a closed form with the census it is checked against.  The command-line
interface and the tests look everything up here instead of dispatching on
names.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

from . import dyck, formulas, signed, tamari, weak, words
from .lattice import FiniteLattice, QPoly

Element = Union[words.Word, str]  # a word of integers or an r/f path
Value = Union[QPoly, int]


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


class Theorem(NamedTuple):
    """A closed form checked case by case against a census."""

    name: str
    formula_name: str
    first_n: int
    census: Callable[[int, bool], Value]  # (n, validate) -> computed value
    formula: Callable[[int, bool], Value]  # (n, as_printed) -> closed form


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


def _lattice_pop_up(build: Callable[..., FiniteLattice], rank: Callable[[Element], int]):
    """Upward pop computed in the lattice of size rank(x), which holds x."""
    return lambda x: build(rank(x), False).pop_up(x)


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
            _lattice_pop_up(tamari.tam_a_lattice, lambda x: len(x) - 1),
            image_direction="down",
            predicate=tamari.hong_image_predicate,
            preimage=tamari.preimage_ending_in_one,
        ),
        Family(
            "tam-b", "--n", lambda n: math.comb(2 * n, n), tamari.tam_b_lattice,
            _parse_tam_b, words.format_word, tamari.pop_tam_b,
            _lattice_pop_up(tamari.tam_b_lattice, lambda x: len(x) // 2),
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
    # Ranks above 4 are built unvalidated: a leftover of the pairwise check,
    # which the benchmark's traced pipeline still mirrors.
    lattice = weak.weak_b_lattice(n, validate=validate and n <= 4)
    return lattice.pop_polynomial("down")[n - 1]


THEOREMS: dict[str, Theorem] = {
    t.name: t
    for t in (
        Theorem("weak", "weak-b", 1, _weak_census,
                lambda n, as_printed: formulas.weak_b_coefficient(n)),
        Theorem("tam-a", "tam-a", 1, _lattice_census(tamari.tam_a_lattice),
                lambda n, as_printed: formulas.tam_a_polynomial(n)),
        Theorem("tam-b", "tam-b", 1, _lattice_census(tamari.tam_b_lattice),
                lambda n, as_printed: formulas.tam_b_polynomial(n)),
        # Both ideal-lattice theorems count the upward image on the paths
        # themselves, O(#paths), without building a lattice.  At index n the
        # type-A form counts paths of semi-length n + 2.
        Theorem("jay-a", "jay-a", 0,
                lambda n, validate: dyck.pop_up_polynomial_a(n + 2),
                lambda n, as_printed: formulas.j_a_polynomial(n)),
        Theorem("jay-b", "jay-b", 1,
                lambda n, validate: dyck.pop_up_polynomial_b(n),
                lambda n, as_printed: formulas.j_b_polynomial(n, include_j0=not as_printed)),
    )
}

FORMULAS: dict[str, Theorem] = {t.formula_name: t for t in THEOREMS.values()}

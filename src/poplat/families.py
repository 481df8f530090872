"""The registry: each lattice family, counting theorem and series, declared once.

A `Family` says how its lattice is sized, built, read and popped; a `Theorem`
pairs a closed form with the census it is checked against; a `Series` pairs a
solver with its identity checks.  The command-line interface and the tests
look everything up here instead of dispatching on names.  Sizes and
elements reach the program only through it and are checked once, before
any work: a size against the memory budget or the order bound, an element
by `Family.parse`.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Union

from . import dyck, formulas, series, signed, tamari, weak, words
from .errors import GuardError
from .lattice import FiniteLattice, QPoly

Element = Union[words.Word, str]  # a word of integers or an r/f path
Value = Union[QPoly, int]

MAX_BYTES = 512 << 20  # what one run may allocate on top of the imported interpreter
MAX_ORDER = 16  # the largest series order and formula index the command line takes


def cost(elements: int, lattice: bool = True) -> int:
    """Estimated peak bytes of a run over N = `elements`, fitted not to underestimate.

    A lattice costs 4 KiB per element (elements, covers, irreducible-width
    tables, scratch) plus N^2/8 bytes for full-width masks.  A command-line
    run builds one such table, validation's N^2/16 bytes, which that term
    over-covers, and frees it before a census builds and frees the
    irreducible-width tables.  A census without a lattice
    marks each image in one byte per path; a second byte per path and 4 MiB
    cover its half-tables, which grow as the square root of N.
    """
    return 4096 * elements + elements * elements // 8 if lattice else 2 * elements + (4 << 20)


def _check_least(flag: str, n: int, least: int) -> None:
    if n < least:
        raise ValueError(f"{flag} must be at least {least}, got {n}")


def check_budget(name: str, flag: str, n: int, least: int, elements: Callable[[int], int],
                 lattice: bool = True) -> int:
    """Refuse a size n below `least`, or one whose run over `elements(n)`
    elements would pass MAX_BYTES; return n.

    Counts grow with the size, so the sizes are stepped up from `least` and the
    first one past the budget refuses n: no count is computed past it, however
    large n is.
    """
    _check_least(flag, n, least)
    for k in range(least, n + 1):
        if (need := cost(count := elements(k), lattice)) > MAX_BYTES:
            raise GuardError(f"{name} {flag} {n} is past the {MAX_BYTES >> 20} MiB memory "
                             f"budget: size {k} holds {count} elements and needs about "
                             f"{need >> 20} MiB")
    return n


def check_order(name: str, flag: str, n: int, least: int) -> int:
    """Refuse a series order or formula index outside least..MAX_ORDER; return n."""
    _check_least(flag, n, least)
    if n > MAX_ORDER:
        raise GuardError(f"{name} {flag} {n} is past the order bound {MAX_ORDER}")
    return n


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
    predicate: Callable[[Element], bool]
    predicate_necessary_only: bool = False  # holds on the image, may hold off it
    preimage: Callable[[Element], Element] | None = None
    # (counted, predicted): the image split by first entry, n -> {entry: count}
    first_entry_census: tuple[Callable[[int], dict], Callable[[int], dict]] | None = None

    def admit(self, n: int | None, flags: Iterable[str] = (), least: int = 0) -> int:
        """Check size n, from `least` up, against the memory budget; return n.
        `flags`, the size flags a command line gave, must all be the family's own."""
        for flag in flags:
            if flag != self.size_flag:
                raise ValueError(f"{self.name} is sized by {self.size_flag}, not {flag}")
        if n is None:
            raise ValueError(f"{self.size_flag} is required for {self.name}")
        return check_budget(self.name, self.size_flag, n, least, self.size)


class Theorem(NamedTuple):
    """A closed form checked case by case against a census."""

    name: str
    formula_name: str
    first_n: int
    census: Callable[[int, bool], Value]  # (n, validate) -> computed value
    formula: Callable[[int], Value]  # n -> closed form
    elements: Callable[[int], int]  # elements the census of case n holds
    builds: bool = True  # whether the census builds a lattice of them
    # n -> the closed form as the source prints it, where that differs
    as_printed: Callable[[int], Value] | None = None

    def admit(self, max_n: int) -> None:
        """Check the cases up to max_n, bounded by the last, against the budget."""
        check_budget(self.name, "--max-n", max_n, self.first_n, self.elements, self.builds)

    def admit_formula(self, n: int) -> int:
        """Check the closed form's index n against the order bound; return n."""
        return check_order(self.formula_name, "--n", n, self.first_n)


class Series(NamedTuple):
    """A generating function solved to a given order in x."""

    name: str
    solve: Callable[[int], series.BiSeries]
    # each identity's label -> holds(solved series, order), in report order
    checks: dict[str, Callable[[series.BiSeries, int], bool]]

    def admit(self, order: int) -> int:
        """Check the order against the order bound; return it."""
        return check_order(self.name, "--order", order, 0)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _parse_permutation(text: str) -> words.Word:
    return words.check_permutation(words.parse_word(text))


def _parse_signed(text: str) -> words.Word:
    return signed.validate_signed(words.parse_word(text))


def _parse_tam_a(text: str) -> words.Word:
    word = _parse_permutation(text)
    if not word:
        raise ValueError("the empty word is in no type-A Tamari lattice: "
                         "size n holds words on n+1 letters")
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


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "weak-a", "--n", math.factorial, weak.weak_a_lattice,
            _parse_permutation, words.format_word, weak.pop_weak, weak.pop_weak_up,
            image_direction="down",
            predicate=weak.image_run_condition,
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
            lambda x: tamari.pop_tam_a(x, up=True),
            image_direction="down",
            predicate=tamari.hong_image_predicate,
            preimage=tamari.preimage_ending_in_one,
        ),
        Family(
            "tam-b", "--n", lambda n: math.comb(2 * n, n), tamari.tam_b_lattice,
            _parse_tam_b, words.format_word, tamari.pop_tam_b,
            lambda x: tamari.pop_tam_b(x, up=True),
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
            predicate=dyck.image_predicate_a,
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
        Theorem("weak", "weak-b", 1, _weak_census, formulas.weak_b_coefficient,
                FAMILIES["weak-b"].size),
        Theorem("tam-a", "tam-a", 1, _lattice_census(tamari.tam_a_lattice),
                formulas.tam_a_polynomial, FAMILIES["tam-a"].size),
        Theorem("tam-b", "tam-b", 1, _lattice_census(tamari.tam_b_lattice),
                formulas.tam_b_polynomial, FAMILIES["tam-b"].size),
        # Both ideal-lattice theorems count the upward image on the paths
        # themselves, O(#paths), without building a lattice.  At index n the
        # type-A form counts paths of semi-length n + 2.
        Theorem("jay-a", "jay-a", 0,
                lambda n, validate: dyck.pop_up_polynomial_a(n + 2),
                formulas.j_a_polynomial, lambda n: _catalan(n + 2), builds=False),
        # As printed, the inner sum starts at j = 1 and misses (-1)^n q^n.
        Theorem("jay-b", "jay-b", 1,
                lambda n, validate: dyck.pop_up_polynomial_b(n),
                formulas.j_b_polynomial, FAMILIES["j-b"].size, builds=False,
                as_printed=lambda n: formulas.j_b_polynomial(n, include_j0=False)),
    )
}

FORMULAS: dict[str, Theorem] = {t.formula_name: t for t in THEOREMS.values()}


def _matches_formula(formula: Callable[[int], QPoly], first: int, shift: int = 0):
    """The x^(n + shift) polynomial equals formula(n) for n = first, ... up to the order."""
    return lambda s, order: all(s.y_polynomial(n + shift) == formula(n)
                                for n in range(first, order - shift + 1))


SERIES: dict[str, Series] = {
    record.name: record
    for record in (
        Series("G", series.ffrr_avoider_series, {"closed_form_coefficients": lambda s, order: all(
            s.coefficient(n, k)
            == (formulas.h_coefficient(n, k) if k >= 1 else (1 if n == 0 else 0))
            for n in range(order + 1) for k in range(n + 2))}),
        Series("F", series.path_image_series,
               {"matches_image_formula": _matches_formula(formulas.j_a_polynomial, 0, shift=2)}),
        Series("H", lambda order: (series.ffrr_avoider_series(order)
                                   - series.BiSeries.constant(order, 1)),
               {"closed_form_coefficients": lambda s, order: all(
                   s.coefficient(n, k) == formulas.h_coefficient(n, k)
                   for n in range(order + 1) for k in range(1, n + 1))}),
        Series("I", series.symmetric_avoider_series, {}),
        Series("J", series.symmetric_image_series, {
            "matches_image_formula": _matches_formula(formulas.j_b_polynomial, 1),
            "radical_form": lambda s, order: series.radical_symmetric_series(
                min(order, 10)).agrees_with(s, 10)}),
        Series("M", series.tamari_block_series, {"radical_form": lambda s, order: s.agrees_with(
            series.radical_block_series(order), order)}),
        Series("N", lambda order: series.tamari_image_series(order)["N"],
               {"closed_form_coefficients": lambda s, order: all(
                   s.coefficient(n, d) == formulas.n_coefficient(n, d)
                   for n in range(1, order + 1) for d in range(n + 1))}),
        Series("K", lambda order: series.tamari_image_series(order)["K"],
               {"matches_image_formula": _matches_formula(formulas.tam_b_polynomial, 1)}),
    )
}

"""Traced decomposition of one poplat job into its pipeline layers.

The benchmark calls each module's public functions itself, in pipeline order
(carrier, covers, closure, validation, census, formula or series), and
records a span around every call.  Spans come from this file only; the
program is not instrumented.  `run_job` returns the fields of the job's
`--json` report that carry its verdict, so the caller can check that the
decomposed pipeline reaches the same verdict as the CLI.

Two layer times are differences of spans, because the program has no
boundary to put a span on:

* family covers = `<family>_lattice(n, validate=False)` minus rebuilding the
  same elements and covers with `FiniteLattice.build(validate=False)`, which
  is the closure time;
* validation = `FiniteLattice.build(validate=True)` minus the closure time,
  on identical elements and covers.
"""
from __future__ import annotations

import math
import time
from collections import Counter

from poplat import cli, dyck, formulas, series, signed, tamari, weak
from poplat.lattice import FiniteLattice, QPoly
from workloads import LAYERS

# Every memoised builder; cleared before each job so it starts cold.
MEMOISED = (
    signed.enumerate_signed,
    tamari.tam_a_elements,
    tamari.tam_b_elements,
    dyck.all_paths,
    dyck.symmetric_paths,
    weak.weak_a_lattice,
    weak.weak_b_lattice,
    tamari.tam_a_lattice,
    tamari.tam_b_lattice,
    dyck.j_a_lattice,
    dyck.j_b_lattice,
    series._solve_g,
    series._solve_i,
)

_BUILDERS = {
    "weak-a": ("weak.covers", weak.weak_a_lattice),
    "weak-b": ("weak.covers", weak.weak_b_lattice),
    "tam-a": ("tamari.covers", tamari.tam_a_lattice),
    "tam-b": ("tamari.covers", tamari.tam_b_lattice),
    "j-a": ("dyck.covers", dyck.j_a_lattice),
    "j-b": ("dyck.covers", dyck.j_b_lattice),
}

def clear_memos() -> None:
    for builder in MEMOISED:
        builder.cache_clear()


class Tracer:
    """Spans and counts of one job, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.layer_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; return (result, seconds)."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.spans.append((name, start, end))
        return result, end - start

    def layer(self, layer: str, fn, *args):
        """A span whose whole duration is charged to one layer."""
        result, seconds = self.call(layer, fn, *args)
        self.layer_s[layer] += seconds
        return result


def _as_json(value):
    return value.to_json_dict() if isinstance(value, QPoly) else str(value)


# --- lattice pipeline -----------------------------------------------------


def _carrier(tr: Tracer, family: str, n: int) -> None:
    # weak-a lists its permutations inside weak_a_lattice: that carrier time
    # falls under weak.covers.
    if family in ("weak-b", "tam-b"):
        tr.layer("signed.enumerate", signed.enumerate_signed, n)
    if family == "tam-a":
        kept = tr.layer("words.pattern_filter", tamari.tam_a_elements, n)
        tested = math.factorial(n + 1)
    elif family == "tam-b":
        kept = tr.layer("words.pattern_filter", tamari.tam_b_elements, n)
        tested = len(signed.enumerate_signed(n))
    else:
        if family == "j-a":
            tr.layer("dyck.paths", dyck.all_paths, n)
        elif family == "j-b":
            tr.layer("dyck.paths", dyck.symmetric_paths, n)
        return
    tr.counts["words.pattern_tests"] += tested
    tr.counts["words.carrier_kept"] += len(kept)


def _build(tr: Tracer, family: str, n: int, validate: bool) -> FiniteLattice:
    _carrier(tr, family, n)
    covers_layer, builder = _BUILDERS[family]
    lat, family_s = tr.call(f"{family}.lattice", builder, n, False)
    elements, covers = lat.elements, lat.cover_pairs()
    lat, closure_s = tr.call("lattice.build", FiniteLattice.build, elements, covers, False)
    tr.layer_s[covers_layer] += family_s - closure_s
    tr.layer_s["lattice.closure"] += closure_s
    tr.counts["lattice.elements"] += len(elements)
    tr.counts["lattice.covers"] += len(covers)
    if validate:
        lat, validated_s = tr.call(
            "lattice.build+validate", FiniteLattice.build, elements, covers, True
        )
        tr.layer_s["lattice.validate"] += validated_s - closure_s
    return lat


def _census(tr: Tracer, lat: FiniteLattice, direction: str) -> QPoly:
    poly = tr.layer("lattice.census", lat.pop_polynomial, direction)
    if direction == "down":
        tr.counts["lattice.census_elements"] += len(lat)
        tr.counts["lattice.image"] += sum(poly.coeffs.values())
    return poly


def _pop_poly(tr: Tracer, args) -> dict:
    n = cli._size_param(args)
    lat = _build(tr, args.lattice, n, validate=not args.no_validate)
    down = _census(tr, lat, "down")
    up = _census(tr, lat, "up")
    return {
        "down_with_upper_covers": down.to_json_dict(),
        "up_with_lower_covers": up.to_json_dict(),
        "verdict": "match" if down == up else "mismatch",
    }


def _image(tr: Tracer, args) -> dict:
    n = cli._size_param(args)
    lat = _build(tr, args.lattice, n, validate=not args.no_validate)
    direction = "up" if args.lattice in ("j-a", "j-b") else "down"
    image = tr.layer("lattice.census", lat.pop_image, direction)
    tr.counts["lattice.census_elements"] += len(lat)
    tr.counts["lattice.image"] += len(image)
    fields: dict = {"count": len(image)}
    if args.check_predicate:
        predicate = cli._predicate_for(args.lattice)
        if args.lattice == "weak-b":
            check = lambda: all(predicate(x) for x in image)  # noqa: E731
        else:
            check = lambda: all(predicate(x) == (x in image) for x in lat.elements)  # noqa: E731
        fields["predicate_matches"] = tr.layer("words.predicate", check)
    return fields


def _verify_case(tr: Tracer, theorem: str, n: int, args):
    """(computed, formula) for one case, as `cli._verify_cases` pairs them."""
    if theorem == "weak":
        lat = _build(tr, "weak-b", n, validate=not args.no_validate and n <= 4)
        computed = _census(tr, lat, "down")[n - 1]
        return computed, tr.layer("formulas.eval", formulas.weak_b_coefficient, n)
    if theorem in ("tam-a", "tam-b"):
        lat = _build(tr, theorem, n, validate=not args.no_validate)
        formula = formulas.tam_a_polynomial if theorem == "tam-a" else formulas.tam_b_polynomial
        return _census(tr, lat, "down"), tr.layer("formulas.eval", formula, n)
    if theorem == "jay-a":
        tr.layer("dyck.paths", dyck.all_paths, n + 2)
        computed = tr.layer("dyck.census", dyck.pop_up_polynomial_a, n + 2)
        return computed, tr.layer("formulas.eval", formulas.j_a_polynomial, n)
    tr.layer("dyck.paths", dyck.symmetric_paths, n)
    computed = tr.layer("dyck.census", dyck.pop_up_polynomial_b, n)
    formula = tr.layer(
        "formulas.eval", lambda: formulas.j_b_polynomial(n, include_j0=not args.as_printed)
    )
    return computed, formula


def _verify(tr: Tracer, args) -> dict:
    first = 0 if args.theorem == "jay-a" else 1
    cases = []
    for n in range(first, args.max_n + 1):
        computed, formula = _verify_case(tr, args.theorem, n, args)
        record = {
            "n": n,
            "computed": _as_json(computed),
            "formula": _as_json(formula),
            "verdict": "match" if computed == formula else "mismatch",
        }
        if computed != formula and isinstance(computed, QPoly) and isinstance(formula, QPoly):
            record["delta"] = (computed - formula).to_json_dict()
        cases.append(record)
    mismatches = sum(case["verdict"] == "mismatch" for case in cases)
    return {
        "cases": cases,
        "totals": {"match": len(cases) - mismatches, "mismatch": mismatches},
    }


# --- series pipeline ------------------------------------------------------


def _series(tr: Tracer, args) -> dict:
    name, order = args.check, args.order
    solve = lambda fn, *a: tr.layer("series.solve", fn, *a)  # noqa: E731
    evaluate = lambda fn: tr.layer("formulas.eval", fn)  # noqa: E731
    checks: dict[str, bool] = {}
    if name in ("G", "H"):
        s = solve(series.ffrr_avoider_series, order)
        top = 2 if name == "G" else 1
        closed = evaluate(lambda: {
            (n, k): formulas.h_coefficient(n, k)
            for n in range(order + 1) for k in range(1, n + top)
        })
        if name == "G":
            checks["closed_form_coefficients"] = all(
                s.coefficient(n, k) == (closed[n, k] if k >= 1 else (1 if n == 0 else 0))
                for n in range(order + 1) for k in range(n + 2)
            )
        else:
            s = solve(lambda: s - series.BiSeries.constant(order, 1))
            checks["closed_form_coefficients"] = all(
                s.coefficient(n, k) == closed[n, k]
                for n in range(order + 1) for k in range(1, n + 1)
            )
    elif name == "F":
        s = solve(series.path_image_series, order)
        closed = evaluate(lambda: [formulas.j_a_polynomial(n) for n in range(order - 1)])
        checks["matches_image_formula"] = all(
            s.y_polynomial(n + 2) == closed[n] for n in range(order - 1)
        )
    elif name == "I":
        s = solve(series.symmetric_avoider_series, order)
    elif name == "J":
        s = solve(series.symmetric_image_series, order)
        closed = evaluate(lambda: [formulas.j_b_polynomial(n) for n in range(1, order + 1)])
        checks["matches_image_formula"] = all(
            s.y_polynomial(n) == closed[n - 1] for n in range(1, order + 1)
        )
        checks["radical_form"] = solve(series.radical_check_symmetric, min(order, 10))
    elif name == "M":
        s = solve(series.tamari_block_series, order)
        radical = solve(series.radical_block_series, order)
        checks["radical_form"] = s.agrees_with(radical, order)
    elif name in ("N", "K"):
        s = solve(series.tamari_image_series, order)[name]
        if name == "N":
            closed = evaluate(lambda: {
                (n, d): formulas.n_coefficient(n, d)
                for n in range(1, order + 1) for d in range(n + 1)
            })
            checks["closed_form_coefficients"] = all(
                s.coefficient(n, d) == value for (n, d), value in closed.items()
            )
        else:
            closed = evaluate(lambda: [formulas.tam_b_polynomial(n) for n in range(1, order + 1)])
            checks["matches_image_formula"] = all(
                s.y_polynomial(n) == closed[n - 1] for n in range(1, order + 1)
            )
    else:
        raise ValueError(f"unknown series {name!r}")
    table = {
        str(n): {str(k): str(v) for k, v in sorted(s.coefficient(n).items())}
        for n in range(s.order + 1)
        if s.coefficient(n)
    }
    tr.counts["series.coefficients"] += sum(len(row) for row in table.values())
    ok = all(checks.values())
    return {"coefficients": table, "checks": checks, "verdict": "match" if ok else "mismatch"}


_COMMANDS = {"pop-poly": _pop_poly, "image": _image, "verify": _verify, "series": _series}


def run_job(tr: Tracer, argv: list[str]) -> dict:
    """Run the job's pipeline layer by layer; return its verdict fields."""
    args = cli.build_parser().parse_args(argv)
    if args.subcommand not in _COMMANDS:
        raise ValueError(f"no traced pipeline for {args.subcommand!r}")
    fields = _COMMANDS[args.subcommand](tr, args)
    # A layer the job does not reach is entered once with no work, so every
    # layer has a span in every job; its time is then the tracer's own floor.
    for layer in LAYERS:
        if layer not in tr.layer_s:
            tr.layer(layer, _no_work)
    return fields


def _no_work() -> None:
    return None

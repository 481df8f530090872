"""Batch command-line interface with machine-readable reports.

Exit codes: 0 all verdicts match, 1 at least one mismatch, 2 usage or guard
error.  JSON output is deterministic: sorted keys, no timestamps.  Wall-clock
timings appear only in the human-readable text output.

Lattice names and parameters:
  weak-a  --n N   weak order on the permutations of {1..N}
  weak-b  --n N   weak order on rank-N signed permutations
  tam-a   --n N   type-A Tamari lattice inside S_{N+1}
  tam-b   --n N   type-B Tamari lattice on rank-N signed permutations
  j-a     --semilength M   ideal lattice on Dyck paths of semi-length M
  j-b     --n N   ideal lattice on symmetric paths of semi-length 2N

Formula/theorem names deliberately decouple the user from indexing pitfalls:
`verify --theorem jay-a --max-n K` checks the closed form at index n against
brute force over paths of semi-length n+2 for n = 0..K.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable

from . import dyck, formulas, series, signed, tamari, weak, words
from .errors import GuardError, NonIntervalClassError, NotALatticeError
from .lattice import FiniteLattice, QPoly

LATTICE_NAMES = ("weak-a", "weak-b", "tam-a", "tam-b", "j-a", "j-b")
THEOREM_NAMES = ("weak", "tam-a", "tam-b", "jay-a", "jay-b")
FORMULA_NAMES = ("weak-b", "tam-a", "tam-b", "jay-a", "jay-b")
SERIES_NAMES = ("G", "F", "H", "I", "J", "M", "N", "K")


def _build_lattice(name: str, n: int, validate: bool) -> FiniteLattice:
    if name == "weak-a":
        return weak.weak_a_lattice(n, validate=validate)
    if name == "weak-b":
        return weak.weak_b_lattice(n, validate=validate)
    if name == "tam-a":
        return tamari.tam_a_lattice(n, validate=validate)
    if name == "tam-b":
        return tamari.tam_b_lattice(n, validate=validate)
    if name == "j-a":
        return dyck.j_a_lattice(n, validate=validate)
    if name == "j-b":
        return dyck.j_b_lattice(n, validate=validate)
    raise ValueError(f"unknown lattice {name!r}")


def _parse_element(name: str, text: str):
    if name in ("j-a", "j-b"):
        path = dyck.check_path(text.strip())
        if name == "j-b" and not dyck.is_symmetric(path):
            raise ValueError(f"not symmetric: {path!r}")
        if name == "j-b" and dyck.semi_length(path) % 2:
            raise ValueError(f"odd semi-length, not a type-B path: {path!r}")
        return path
    word = words.parse_word(text)
    if name in ("weak-b", "tam-b"):
        signed.validate_signed(word)
    else:
        words.check_permutation(word)
    if name == "tam-a" and not words.avoids_312(word):
        raise ValueError(f"{text!r} is not 312-avoiding")
    if name == "tam-b" and not words.avoids_312_star(word):
        raise ValueError(f"{text!r} is not in the type-B Tamari carrier")
    return word


def _format_element(name: str, element) -> str:
    return element if isinstance(element, str) else words.format_word(element)


def _size_param(args) -> int:
    if getattr(args, "semilength", None) is not None:
        return args.semilength
    if args.n is None:
        raise ValueError("--n (or --semilength for j-a) is required")
    return args.n


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# --- subcommand handlers --------------------------------------------------


def _cmd_enumerate(args) -> int:
    n = _size_param(args)
    lat = _build_lattice(args.lattice, n, validate=not args.no_validate)
    names = [_format_element(args.lattice, x) for x in lat.elements]
    payload = {"command": "enumerate", "lattice": args.lattice, "n": n,
               "count": len(names), "elements": names}
    _emit(payload, args.json, [f"{len(names)} elements"] + names)
    return 0


def _cmd_pop(args) -> int:
    element = _parse_element(args.lattice, args.x)
    if args.up:
        if args.lattice in ("j-a", "j-b"):
            result = dyck.flip_valleys_up(element)
        elif args.lattice in ("weak-a", "weak-b"):
            result = weak.pop_weak_up(element)
        else:
            lat = _build_lattice(
                args.lattice, _rank_for(args.lattice, element), validate=False
            )
            result = lat.pop_up(element)
    else:
        if args.lattice in ("weak-a", "weak-b"):
            result = weak.pop_weak(element)
        elif args.lattice == "tam-a":
            result = tamari.pop_tam_a(element)
        elif args.lattice == "tam-b":
            result = tamari.pop_tam_b(element)
        else:
            result = dyck.flip_peaks_down(element)
    text = _format_element(args.lattice, result)
    _emit({"command": "pop", "lattice": args.lattice, "x": args.x,
           "result": text}, args.json, [text])
    return 0


def _rank_for(name: str, element) -> int:
    """Size parameter of the tam-a or tam-b lattice holding `element`."""
    return len(element) - 1 if name == "tam-a" else len(element) // 2


def _cmd_pop_poly(args) -> int:
    n = _size_param(args)
    lat = _build_lattice(args.lattice, n, validate=not args.no_validate)
    down = lat.pop_polynomial("down")
    up = lat.pop_polynomial("up")
    verdict = "match" if down == up else "mismatch"
    payload = {
        "command": "pop-poly", "lattice": args.lattice, "n": n,
        "down_with_upper_covers": down.to_json_dict(),
        "up_with_lower_covers": up.to_json_dict(),
        "verdict": verdict,
    }
    _emit(payload, args.json,
          [f"Pop({args.lattice}, n={n}; q) = {down}", f"dual direction: {up}",
           f"duality: {verdict}"])
    return 0 if verdict == "match" else 1


def _image_of(name: str, lat: FiniteLattice) -> set:
    return lat.pop_image("up" if name in ("j-a", "j-b") else "down")


def _predicate_for(name: str) -> Callable:
    predicates = {
        "tam-a": tamari.hong_image_predicate,
        "tam-b": tamari.tam_b_image_predicate,
        "j-a": dyck.image_predicate_a,
        "j-b": dyck.image_predicate_b,
        "weak-b": weak.image_run_condition,
    }
    if name not in predicates:
        raise ValueError(f"no image predicate for lattice {name!r}")
    return predicates[name]


def _cmd_image(args) -> int:
    n = _size_param(args)
    lat = _build_lattice(args.lattice, n, validate=not args.no_validate)
    image = _image_of(args.lattice, lat)
    names = sorted(_format_element(args.lattice, x) for x in image)
    payload: dict = {"command": "image", "lattice": args.lattice, "n": n,
                     "count": len(names)}
    lines = [f"{len(names)} image elements"]
    code = 0
    if args.list:
        payload["elements"] = names
        lines += names
    if args.check_predicate:
        predicate = _predicate_for(args.lattice)
        if args.lattice == "weak-b":
            # necessary condition only: every image element satisfies it
            ok = all(predicate(x) for x in image)
        else:
            ok = all(predicate(x) == (x in image) for x in lat.elements)
        payload["predicate_matches"] = ok
        lines.append(f"predicate matches image: {ok}")
        code = 0 if ok else 1
    _emit(payload, args.json, lines)
    return code


def _cmd_preimage(args) -> int:
    element = _parse_element(args.lattice, args.x)
    if args.lattice == "tam-a":
        result = tamari.preimage_ending_in_one(element)
    elif args.lattice == "tam-b":
        result = tamari.preimage_tam_b(element)
    else:
        raise ValueError("preimage is available for tam-a and tam-b only")
    text = _format_element(args.lattice, result)
    _emit({"command": "preimage", "lattice": args.lattice, "x": args.x,
           "result": text}, args.json, [text])
    return 0


def _cmd_census(args) -> int:
    if args.lattice != "weak-b":
        raise ValueError("census is available for weak-b only")
    n = args.n
    counted = weak.image_census_by_first_entry(n)
    predicted = formulas.census_prediction(n)
    verdict = "match" if counted == predicted else "mismatch"
    payload = {
        "command": "census", "lattice": "weak-b", "n": n,
        "by_first_entry": {str(i): counted[i] for i in sorted(counted)},
        "predicted": {str(i): predicted[i] for i in sorted(predicted)},
        "verdict": verdict,
    }
    lines = [f"first entry {i}: counted {counted[i]}, predicted {predicted[i]}"
             for i in sorted(counted)] + [f"verdict: {verdict}"]
    _emit(payload, args.json, lines)
    return 0 if verdict == "match" else 1


def _formula_value(name: str, n: int, as_printed: bool) -> QPoly | int:
    if name == "weak-b":
        return formulas.weak_b_coefficient(n)
    if name == "tam-a":
        return formulas.tam_a_polynomial(n)
    if name == "tam-b":
        return formulas.tam_b_polynomial(n)
    if name == "jay-a":
        return formulas.j_a_polynomial(n)
    if name == "jay-b":
        return formulas.j_b_polynomial(n, include_j0=not as_printed)
    raise ValueError(f"unknown formula {name!r}")


def _cmd_formula(args) -> int:
    value = _formula_value(args.name, args.n, args.as_printed)
    rendered = str(value)
    payload = {"command": "formula", "name": args.name, "n": args.n,
               "value": value.to_json_dict() if isinstance(value, QPoly) else str(value)}
    _emit(payload, args.json, [rendered])
    return 0


def _verify_cases(theorem: str, max_n: int, as_printed: bool, no_validate: bool):
    """Yield (label, computed QPoly or int, formula QPoly or int) per case."""
    if theorem == "weak":
        for n in range(1, max_n + 1):
            lat = weak.weak_b_lattice(n, validate=not no_validate and n <= 4)
            computed = lat.pop_polynomial("down")[n - 1]
            yield n, computed, formulas.weak_b_coefficient(n)
    elif theorem == "tam-a":
        for n in range(1, max_n + 1):
            lat = tamari.tam_a_lattice(n, validate=not no_validate)
            yield n, lat.pop_polynomial("down"), formulas.tam_a_polynomial(n)
    elif theorem == "tam-b":
        for n in range(1, max_n + 1):
            lat = tamari.tam_b_lattice(n, validate=not no_validate)
            yield n, lat.pop_polynomial("down"), formulas.tam_b_polynomial(n)
    elif theorem == "jay-a":
        for n in range(0, max_n + 1):
            yield n, dyck.pop_up_polynomial_a(n + 2), formulas.j_a_polynomial(n)
    elif theorem == "jay-b":
        for n in range(1, max_n + 1):
            yield (
                n,
                dyck.pop_up_polynomial_b(n),
                formulas.j_b_polynomial(n, include_j0=not as_printed),
            )
    else:
        raise ValueError(f"unknown theorem {theorem!r}")


def _cmd_verify(args) -> int:
    records = []
    lines = []
    mismatches = 0
    # Each case's time covers building it (the generator step) and comparing.
    start = time.perf_counter()
    for n, computed, formula in _verify_cases(
        args.theorem, args.max_n, args.as_printed, args.no_validate
    ):
        matched = computed == formula
        elapsed = time.perf_counter() - start
        if not matched:
            mismatches += 1
        record = {
            "n": n,
            "computed": computed.to_json_dict() if isinstance(computed, QPoly) else str(computed),
            "formula": formula.to_json_dict() if isinstance(formula, QPoly) else str(formula),
            "verdict": "match" if matched else "mismatch",
        }
        if not matched and isinstance(computed, QPoly) and isinstance(formula, QPoly):
            record["delta"] = (computed - formula).to_json_dict()
        records.append(record)
        line = f"n={n}: computed {computed} | formula {formula} | {record['verdict']}"
        if not matched and "delta" in record:
            line += f" | delta {computed - formula}"
        lines.append(line + f"  [{elapsed:.3f}s]")
        start = time.perf_counter()
    payload = {
        "command": "verify", "theorem": args.theorem,
        "as_printed": args.as_printed, "max_n": args.max_n,
        "cases": records,
        "totals": {"match": len(records) - mismatches, "mismatch": mismatches},
    }
    _emit(payload, args.json, lines + [f"totals: {payload['totals']}"])
    return 0 if mismatches == 0 else 1


def _series_table(name: str, order: int) -> tuple[dict, list[str], bool]:
    checks: dict[str, bool] = {}
    if name == "G":
        s = series.ffrr_avoider_series(order)
        checks["closed_form_coefficients"] = all(
            s.coefficient(n, k)
            == (formulas.h_coefficient(n, k) if k >= 1 else (1 if n == 0 else 0))
            for n in range(order + 1)
            for k in range(n + 2)
        )
    elif name == "H":
        s = series.ffrr_avoider_series(order) - series.BiSeries.constant(order, 1)
        checks["closed_form_coefficients"] = all(
            s.coefficient(n, k) == formulas.h_coefficient(n, k)
            for n in range(order + 1)
            for k in range(1, n + 1)
        )
    elif name == "F":
        s = series.path_image_series(order)
        checks["matches_image_formula"] = all(
            s.y_polynomial(n + 2) == formulas.j_a_polynomial(n)
            for n in range(order - 1)
        )
    elif name == "I":
        s = series.symmetric_avoider_series(order)
    elif name == "J":
        s = series.symmetric_image_series(order)
        checks["matches_image_formula"] = all(
            s.y_polynomial(n) == formulas.j_b_polynomial(n)
            for n in range(1, order + 1)
        )
        checks["radical_form"] = series.radical_check_symmetric(min(order, 10))
    elif name == "M":
        s = series.tamari_block_series(order)
        checks["radical_form"] = s.agrees_with(series.radical_block_series(order), order)
    elif name == "N":
        s = series.tamari_image_series(order)["N"]
        checks["closed_form_coefficients"] = all(
            s.coefficient(n, d) == formulas.n_coefficient(n, d)
            for n in range(1, order + 1)
            for d in range(n + 1)
        )
    elif name == "K":
        s = series.tamari_image_series(order)["K"]
        checks["matches_image_formula"] = all(
            s.y_polynomial(n) == formulas.tam_b_polynomial(n)
            for n in range(1, order + 1)
        )
    else:
        raise ValueError(f"unknown series {name!r}")
    table = {
        str(n): {str(k): str(v) for k, v in sorted(s.coefficient(n).items())}
        for n in range(s.order + 1)
        if s.coefficient(n)
    }
    lines = [f"x^{n}: " + " + ".join(
        f"{v}*y^{k}" for k, v in sorted(s.coefficient(int(n)).items())
    ) for n in table]
    ok = all(checks.values())
    payload = {"command": "series", "name": name, "order": order,
               "coefficients": table, "checks": checks,
               "verdict": "match" if ok else "mismatch"}
    lines += [f"{label}: {'ok' if value else 'FAIL'}" for label, value in checks.items()]
    return payload, lines, ok


def _cmd_series(args) -> int:
    payload, lines, ok = _series_table(args.check, args.order)
    _emit(payload, args.json, lines)
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


def _add_common(sub, lattice: bool = True) -> None:
    if lattice:
        sub.add_argument("--lattice", required=True, choices=LATTICE_NAMES)
        sub.add_argument("--n", type=int)
        sub.add_argument("--semilength", type=int, help="size parameter for j-a")
    sub.add_argument("--json", action="store_true", help="deterministic JSON output")
    sub.add_argument("--no-validate", action="store_true",
                     help="skip the lattice-property validation (one join test "
                     "per pair of upper covers of a common element)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplat",
        description="Pop-stack sorting on finite lattices: enumeration, "
        "image checks, closed-form and power-series verification.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("enumerate", help="list the elements of a lattice")
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = subs.add_parser("pop", help="apply the pop operator to one element")
    _add_common(p)
    p.add_argument("--x", required=True, help="element (word or path)")
    p.add_argument("--up", action="store_true", help="use the dual operator")
    p.set_defaults(handler=_cmd_pop)

    p = subs.add_parser("pop-poly", help="q-census of the pop image, both directions")
    _add_common(p)
    p.set_defaults(handler=_cmd_pop_poly)

    p = subs.add_parser("image", help="brute-force pop image, optional predicate check")
    _add_common(p)
    p.add_argument("--list", action="store_true")
    p.add_argument("--check-predicate", action="store_true")
    p.set_defaults(handler=_cmd_image)

    p = subs.add_parser("preimage", help="construct a pop preimage of an image element")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.set_defaults(handler=_cmd_preimage)

    p = subs.add_parser("census", help="image census by first entry (weak-b)")
    _add_common(p)
    p.add_argument("--by-first-entry", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = subs.add_parser("formula", help="evaluate a closed-form formula")
    _add_common(p, lattice=False)
    p.add_argument("--name", required=True, choices=FORMULA_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--as-printed", action="store_true",
                   help="jay-b only: the displayed sum without the j=0 term")
    p.set_defaults(handler=_cmd_formula)

    p = subs.add_parser("verify", help="closed form vs brute force, per n")
    _add_common(p, lattice=False)
    p.add_argument("--theorem", required=True, choices=THEOREM_NAMES)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--as-printed", action="store_true",
                   help="jay-b only: expect the documented deviation")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("series", help="coefficient table and identity checks")
    _add_common(p, lattice=False)
    p.add_argument("--check", required=True, choices=SERIES_NAMES)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(handler=_cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GuardError, NotALatticeError, NonIntervalClassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line interface with machine-readable reports.

What a user reads is `_EPILOG`, the tail of `poplat --help`: exit codes,
names, knobs and size checks.

Each subcommand's options are declared once, in `_SUBCOMMANDS`.  An argv in
plain form is parsed straight from that table, without loading argparse.
Plain form means: the first argument is exactly a command name; each later
one is one of that command's option strings, spelled in full and given at
most once; each option that takes a value is followed by one that does not
start with `-` and passes the option's `int` conversion or choices; and
every required option is present.  Argparse reads every other argv
(`--help`, an abbreviation, `--opt=value`, a repeat, a negative or
malformed value, a bad choice, a missing option, a stray token, no command)
with the one full parser that `build_parser` builds from the same table,
and prints the help texts and the usage errors.  Both read a plain argv
alike.
"""
from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .families import FAMILIES, FORMULAS, SERIES, THEOREMS
from .lattice import FiniteLattice, QPoly

if TYPE_CHECKING:
    import argparse

_EPILOG = """Batch command-line interface with machine-readable reports.

Exit codes: 0 all verdicts match, 1 at least one mismatch, 2 usage, bad
input, a refused size, a non-lattice or out of memory, 3 any other error;
an error is one `error:` line on stderr.  JSON output is deterministic:
sorted keys, no timestamps.  Wall-clock timings appear only in text output.

Every name, and what it means, comes from the registry in `poplat.families`;
the handlers here only look them up.

Lattice names and their one size flag (sizes start at 0; pop and preimage
take no size):
  weak-a  --n N   weak order on the permutations of {1..N}
  weak-b  --n N   weak order on rank-N signed permutations
  tam-a   --n N   type-A Tamari lattice inside S_{N+1}
  tam-b   --n N   type-B Tamari lattice on rank-N signed permutations
  j-a     --semilength M   ideal lattice on Dyck paths of semi-length M
  j-b     --n N   ideal lattice on symmetric paths of semi-length 2N

`--no-validate` (skip the lattice-property check) is taken by the
subcommands that build a lattice of a given size: enumerate, pop-poly, image
and verify, which refuses it for the theorems whose census builds no lattice
(jay-a, jay-b).  It trusts the built instance to be a lattice, which every
family is; the check only guards the builders.  `--as-printed` (formula,
verify) is taken only by a theorem whose printed closed form differs from
the checked one; the others refuse it.

Formula/theorem names deliberately decouple the user from indexing pitfalls:
`verify --theorem jay-a --max-n K` checks the closed form at index n against
brute force over paths of semi-length n+2 for n = 0..K; the other theorems
start at n = 1, and a smaller --max-n or formula --n exits 2.

Before any work the registry checks each size: a lattice size and verify's
--max-n against the memory budget `families.MAX_BYTES`, series --order and
formula --n against the order bound `families.MAX_ORDER`.  A refused size
exits 2; README "Conventions and knobs" gives the largest ones admitted.
"""


def _size_param(args, least: int = 0) -> int:
    family = FAMILIES[args.lattice]
    given = {"--n": args.n, "--semilength": args.semilength}
    return family.admit(given[family.size_flag],
                        [flag for flag, n in given.items() if n is not None], least)


def _predicate_for(name: str):
    return FAMILIES[name].predicate


def _offered_by(field: str, records: dict) -> str:
    """The names of the records that fill `field`, for a message."""
    return " and ".join(name for name, record in records.items() if getattr(record, field))


def _offered(records: dict, name: str, field: str, knob: str):
    """`field` of `records[name]`; a record that leaves it empty refuses `knob`."""
    value = getattr(records[name], field)
    if not value:
        raise ValueError(f"{knob} is available for {_offered_by(field, records)} only")
    return value


def _as_json(value: QPoly | int):
    return value.to_json_dict() if isinstance(value, QPoly) else str(value)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# --- subcommand handlers --------------------------------------------------


def _lattice(args) -> tuple[int, FiniteLattice]:
    n = _size_param(args)
    return n, FAMILIES[args.lattice].build(n, validate=not args.no_validate)


def _cmd_enumerate(args) -> int:
    n, lat = _lattice(args)
    names = [FAMILIES[args.lattice].format(x) for x in lat.kahn_elements()]
    payload = {"command": "enumerate", "lattice": args.lattice, "n": n,
               "count": len(names), "elements": names}
    _emit(payload, args.json, [f"{len(names)} elements"] + names)
    return 0


def _cmd_pop(args) -> int:
    family = FAMILIES[args.lattice]
    element = family.parse(args.x)
    result = (family.pop_up if args.up else family.pop_down)(element)
    text = family.format(result)
    _emit({"command": "pop", "lattice": args.lattice, "x": args.x,
           "result": text}, args.json, [text])
    return 0


def _cmd_pop_poly(args) -> int:
    n, lat = _lattice(args)
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


def _cmd_image(args) -> int:
    family = FAMILIES[args.lattice]
    n, lat = _lattice(args)
    image = lat.pop_image(family.image_direction)
    names = sorted(family.format(x) for x in image)
    payload: dict = {"command": "image", "lattice": args.lattice, "n": n,
                     "count": len(names)}
    lines = [f"{len(names)} image elements"]
    code = 0
    if args.list:
        payload["elements"] = names
        lines += names
    if args.check_predicate:
        predicate = _predicate_for(args.lattice)
        if family.predicate_necessary_only:
            ok = all(predicate(x) for x in image)
        else:
            ok = all(predicate(x) == (x in image) for x in lat.elements)
        payload["predicate_matches"] = ok
        lines.append(f"predicate matches image: {ok}")
        code = 0 if ok else 1
    _emit(payload, args.json, lines)
    return code


def _cmd_preimage(args) -> int:
    family = FAMILIES[args.lattice]
    element = family.parse(args.x)
    preimage = _offered(FAMILIES, args.lattice, "preimage", "preimage")
    text = family.format(preimage(element))
    _emit({"command": "preimage", "lattice": args.lattice, "x": args.x,
           "result": text}, args.json, [text])
    return 0


def _cmd_census(args) -> int:
    count, predict = _offered(FAMILIES, args.lattice, "first_entry_census", "census")
    n = _size_param(args, least=1)
    counted, predicted = count(n), predict(n)
    verdict = "match" if counted == predicted else "mismatch"
    payload = {
        "command": "census", "lattice": args.lattice, "n": n,
        "by_first_entry": {str(i): counted[i] for i in sorted(counted)},
        "predicted": {str(i): predicted[i] for i in sorted(predicted)},
        "verdict": verdict,
    }
    lines = [f"first entry {i}: counted {counted[i]}, predicted {predicted[i]}"
             for i in sorted(counted)] + [f"verdict: {verdict}"]
    _emit(payload, args.json, lines)
    return 0 if verdict == "match" else 1


def _cmd_formula(args) -> int:
    formula = (_offered(FORMULAS, args.name, "as_printed", "--as-printed")
               if args.as_printed else FORMULAS[args.name].formula)
    value = formula(FORMULAS[args.name].admit_formula(args.n))
    payload = {"command": "formula", "name": args.name, "n": args.n,
               "value": _as_json(value)}
    _emit(payload, args.json, [str(value)])
    return 0


def _verify_cases(theorem: str, max_n: int, closed_form, validate: bool):
    """Yield (n, computed QPoly or int, formula QPoly or int) per case."""
    t = THEOREMS[theorem]
    for n in range(t.first_n, max_n + 1):
        yield n, t.census(n, validate), closed_form(n)


def _cmd_verify(args) -> int:
    theorem = THEOREMS[args.theorem]
    closed_form = (_offered(THEOREMS, args.theorem, "as_printed", "--as-printed")
                   if args.as_printed else theorem.formula)
    if args.no_validate:
        _offered(THEOREMS, args.theorem, "builds", "--no-validate")
    theorem.admit(args.max_n)
    records = []
    lines = []
    mismatches = 0
    # Each case's time covers building it (the generator step) and comparing.
    start = time.perf_counter()
    for n, computed, formula in _verify_cases(
        args.theorem, args.max_n, closed_form, not args.no_validate
    ):
        matched = computed == formula
        elapsed = time.perf_counter() - start
        if not matched:
            mismatches += 1
        record = {
            "n": n,
            "computed": _as_json(computed),
            "formula": _as_json(formula),
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


def _cmd_series(args) -> int:
    record = SERIES[args.check]
    order = record.admit(args.order)
    s = record.solve(order)
    checks = {label: holds(s, order) for label, holds in record.checks.items()}
    rows = {n: sorted(s.coefficient(n).items()) for n in range(s.order + 1) if s.coefficient(n)}
    ok = all(checks.values())
    payload = {"command": "series", "name": args.check, "order": order,
               "coefficients": {str(n): {str(k): str(v) for k, v in row}
                                for n, row in rows.items()},
               "checks": checks, "verdict": "match" if ok else "mismatch"}
    lines = [f"x^{n}: " + " + ".join(f"{v}*y^{k}" for k, v in row) for n, row in rows.items()]
    lines += [f"{label}: {'ok' if value else 'FAIL'}" for label, value in checks.items()]
    _emit(payload, args.json, lines)
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


class _Option(NamedTuple):
    """One option of a subcommand, in argparse's terms.

    `value` is what the option takes: `bool` for a switch (a store_true
    action), `int` or `str` for a typed value, or a registry whose names are
    the choices.
    """

    flag: str
    value: object
    required: bool = False
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        """The attribute argparse derives from the flag."""
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: Callable
    options: tuple[_Option, ...]


_LATTICE = _Option("--lattice", FAMILIES, required=True)
_SIZES = (
    _Option("--n", int),
    _Option("--semilength", int, help="size parameter for " + ", ".join(
        f.name for f in FAMILIES.values() if f.size_flag == "--semilength")),
)
_JSON = _Option("--json", bool, help="deterministic JSON output")
_NO_VALIDATE = _Option("--no-validate", bool,
                       help="skip the lattice-property validation (one join test "
                       "per pair of upper covers of a common element)")

# Every subcommand in the order `--help` lists them, each with its options in
# the order its help lists them.
_SUBCOMMANDS = {
    "enumerate": _Command("list the elements of a lattice", _cmd_enumerate,
                          (_LATTICE, *_SIZES, _JSON, _NO_VALIDATE)),
    "pop": _Command("apply the pop operator to one element", _cmd_pop, (
        _LATTICE, _JSON,
        _Option("--x", str, required=True, help="element (word or path)"),
        _Option("--up", bool, help="use the dual operator"),
    )),
    "pop-poly": _Command("q-census of the pop image, both directions", _cmd_pop_poly,
                         (_LATTICE, *_SIZES, _JSON, _NO_VALIDATE)),
    "image": _Command("brute-force pop image, optional predicate check", _cmd_image, (
        _LATTICE, *_SIZES, _JSON, _NO_VALIDATE,
        _Option("--list", bool), _Option("--check-predicate", bool),
    )),
    "preimage": _Command("construct a pop preimage of an image element", _cmd_preimage,
                         (_LATTICE, _JSON, _Option("--x", str, required=True))),
    "census": _Command("image census by first entry (weak-b)", _cmd_census,
                       (_LATTICE, *_SIZES, _JSON)),
    "formula": _Command("evaluate a closed-form formula", _cmd_formula, (
        _JSON,
        _Option("--name", FORMULAS, required=True),
        _Option("--n", int, required=True),
        _Option("--as-printed", bool, help="the closed form as the source prints it "
                f"({_offered_by('as_printed', FORMULAS)} only)"),
    )),
    "verify": _Command("closed form vs brute force, per n", _cmd_verify, (
        _JSON, _NO_VALIDATE,
        _Option("--theorem", THEOREMS, required=True),
        _Option("--max-n", int, required=True),
        _Option("--as-printed", bool, help="check the closed form as the source prints "
                f"it ({_offered_by('as_printed', THEOREMS)} only)"),
    )),
    "series": _Command("coefficient table and identity checks", _cmd_series, (
        _JSON,
        _Option("--check", SERIES, required=True),
        _Option("--order", int, default=12),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The `poplat` argparse parser, with every subcommand of `_SUBCOMMANDS`.

    It reads every argv that is not plain, prints the help texts and reports
    the usage errors; `perfbench/layers.py` reads its jobs with it too.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="poplat",
        description="Pop-stack sorting on finite lattices: enumeration, "
        "image checks, closed-form and power-series verification.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=spec.help)
        for option in spec.options:
            if option.value is bool:
                p.add_argument(option.flag, action="store_true", help=option.help)
            elif isinstance(option.value, dict):
                p.add_argument(option.flag, choices=tuple(option.value),
                               required=option.required, help=option.help)
            else:
                p.add_argument(option.flag, type=option.value, required=option.required,
                               default=option.default, help=option.help)
        p.set_defaults(handler=spec.handler)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of an argv in plain form (see the module docstring),
    as argparse would give them; None for any other argv."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    spec = _SUBCOMMANDS[argv[0]]
    by_flag = {option.flag: option for option in spec.options}
    parsed = {option.dest: False if option.value is bool else option.default
              for option in spec.options}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_flag.get(token)
        if option is None or token in given:
            return None
        given.add(token)
        if option.value is bool:
            parsed[option.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if option.value is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(option.value, dict) and value not in option.value:
            return None
        parsed[option.dest] = value
    if any(option.required and option.flag not in given for option in spec.options):
        return None
    return SimpleNamespace(subcommand=argv[0], handler=spec.handler, **parsed)


def parse_args(argv: list[str]):
    """The arguments `main` runs `argv` with; a usage error exits 2.

    A plain argv is read from the table alone; argparse reads every other
    argv, with the full parser.
    """
    return _plain(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command; return its exit code (argparse exits 2 on bad usage).

    `parse_args` reads a plain argv from the option table without loading
    argparse, and hands every other argv to the full argparse parser.  The
    table is data: no parser is built at import, and argparse's choices are
    read from the registry's names when it builds one.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        # ValueError covers bad input, a refused size and a non-lattice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

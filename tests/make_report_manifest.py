"""Write `tests/report_manifest.json`: the exit code and the sha256 of the
stdout of every report the manifest pins, each run in one process through
`poplat.cli.main`.

The reports are `enumerate`, `pop-poly` and `image --check-predicate --list`
on each family at every size the memory budget admits, `census` on weak-b
1..6, `verify` on each theorem at its largest admitted --max-n, `formula` on
every name at n = 0..16, and `pop` (both ways) and `preimage` on the bottom
and the top of each family at every admitted size and on the README's
elements; each one with `--json`, and but for `verify`, whose text carries
wall times, as text too.  `series` is pinned by
`test_cli.py::test_every_series_report_is_pinned`.

Run it from the repository root on the tree whose reports are to be pinned:

    PYTHONPATH=src python3 tests/make_report_manifest.py

It builds every family at its largest admitted size, so it peaks near the
validated weak-b 6 build (about 0.2 GB) and takes about a minute.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from poplat.cli import main
from poplat.errors import GuardError
from poplat.families import FAMILIES, FORMULAS, MAX_ORDER, THEOREMS

MANIFEST = Path(__file__).resolve().parent / "report_manifest.json"

# The elements of the README's `pop` and `preimage` examples.
README_ELEMENTS = {
    "weak-b": ["5,1,7,6,3,2,8,4"],
    "tam-b": ["7,1,10,11,9,8,5,4,2,3,12,6", "1,7,2,4,3,5,8,10,9,11,6,12"],
    "j-a": ["rfrfrf"],
}


def report(argv: list[str]) -> tuple[int, str]:
    """The exit code of `main(argv)` and the sha256 of its stdout; stderr is
    dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def top(admit, least: int) -> int:
    """The largest size `admit` takes, stepping up from `least`."""
    n = least
    while True:
        try:
            admit(n + 1)
        except GuardError:
            return n
        n += 1


def both_forms(argv: list[str]) -> list[list[str]]:
    return [argv + ["--json"], argv]


def argvs():
    """Every pinned argv, in the order the manifest lists them."""
    for name, family in FAMILIES.items():
        elements = list(README_ELEMENTS.get(name, []))
        for n in range(top(family.admit, 0) + 1):
            size = ["--lattice", name, family.size_flag, str(n)]
            yield from both_forms(["enumerate", *size])
            yield from both_forms(["pop-poly", *size])
            yield from both_forms(["image", *size, "--check-predicate", "--list"])
            lat = family.build(n, validate=False)
            elements += [family.format(lat.elements[0]), family.format(lat.elements[-1])]
        for x in dict.fromkeys(elements):
            yield from both_forms(["pop", "--lattice", name, "--x", x])
            yield from both_forms(["pop", "--lattice", name, "--x", x, "--up"])
            if family.preimage:
                yield from both_forms(["preimage", "--lattice", name, "--x", x])
        family.build.cache_clear()
    for n in range(1, top(FAMILIES["weak-b"].admit, 1) + 1):
        yield from both_forms(["census", "--lattice", "weak-b", "--n", str(n)])
    for name, theorem in THEOREMS.items():
        max_n = top(theorem.admit, theorem.first_n)
        yield ["verify", "--theorem", name, "--max-n", str(max_n), "--json"]
    for name, theorem in FORMULAS.items():
        for n in range(MAX_ORDER + 1):
            yield from both_forms(["formula", "--name", name, "--n", str(n)])
            if theorem.as_printed:
                yield from both_forms(["formula", "--name", name, "--n", str(n), "--as-printed"])


def write() -> dict[str, list]:
    """Run every argv and write the manifest, one line per report:
    shlex-joined argv -> [exit code, stdout sha256]."""
    manifest = {shlex.join(argv): list(report(argv)) for argv in argvs()}
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in manifest.items())
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return manifest


if __name__ == "__main__":
    print(f"{len(write())} reports pinned in {MANIFEST.name}")

"""Every report in `report_manifest.json` keeps its exit code and stdout bytes.

`make_report_manifest.py` lists the reports and writes the manifest.  Tier-1
runs the reports that build no lattice, or one of at most QUICK_ELEMENTS
elements (about 1 s); the opt-in test runs every report the script lists.
"""
import json
import shlex

import pytest

from poplat.families import FAMILIES, THEOREMS
from make_report_manifest import MANIFEST, argvs, report

PINNED = json.loads(MANIFEST.read_text())
QUICK_ELEMENTS = 10_000


def elements(argv):
    """The element count of the lattice or census the report reads, 0 for none."""
    if argv[0] == "verify":
        return THEOREMS[argv[2]].elements(int(argv[4]))
    if argv[0] in ("enumerate", "pop-poly", "image", "census"):
        return FAMILIES[argv[2]].size(int(argv[4]))
    return 0


def test_the_reports_on_small_lattices_are_pinned():
    quick = [key for key in PINNED if elements(shlex.split(key)) <= QUICK_ELEMENTS]
    assert {key: list(report(shlex.split(key))) for key in quick} == {
        key: PINNED[key] for key in quick}


@pytest.mark.opt_in
def test_every_report_is_pinned():
    got = {shlex.join(argv): list(report(argv)) for argv in argvs()}
    assert list(got) == list(PINNED)
    assert got == PINNED

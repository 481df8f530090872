"""Registry-driven cross-checks: every family, every size up to a stated one.

Each case builds the validated lattice and checks the registry record
against it: the element count, the direct pops against the lattice pops in
both directions, the image predicate against the brute-force image (only
necessity where the record says so), down/up census duality, and that every
element reads back from its text.  Then every entry point is run at the
first size past its bound (the memory budget, or the order bound for series
and formulas) and at a huge one, with every builder, census, formula and
series solver made to raise; the Tamari upward pops, read off words, still
run there.
"""
import json
import tracemalloc

import pytest

from poplat.cli import main
from poplat.errors import GuardError
from poplat.families import FAMILIES, FORMULAS, MAX_ORDER, SERIES, THEOREMS, cost
from reference import pop_down, pop_up

LARGEST = {"weak-a": 5, "weak-b": 4, "tam-a": 7, "tam-b": 5, "j-a": 9, "j-b": 5}

CASES = [
    pytest.param(family, n, id=f"{name}-{n}")
    for name, family in FAMILIES.items()
    for n in range(LARGEST[name] + 1)
]


@pytest.mark.parametrize("family, n", CASES)
def test_family_record_matches_its_lattice(family, n):
    lat = family.build(n)
    assert len(lat) == family.size(n)
    for x in lat.elements:
        assert family.pop_down(x) == pop_down(lat, x), x
        assert family.pop_up(x) == pop_up(lat, x), x
        assert family.parse(family.format(x)) == x
    image = lat.pop_image(family.image_direction)
    if family.predicate_necessary_only:
        assert all(family.predicate(x) for x in image)
    else:
        for x in lat.elements:
            assert family.predicate(x) == (x in image), x
    assert lat.pop_polynomial("down") == lat.pop_polynomial("up")


def test_every_series_solves_and_checks_past_the_order_bound():
    # MAX_ORDER bounds the command line only; the library takes any order
    order = MAX_ORDER + 4
    for record in SERIES.values():
        s = record.solve(order)
        assert s.order == order
        for label, holds in record.checks.items():
            assert holds(s, order), (record.name, label)


# --- the memory budget and the order bound ---------------------------------------
# The largest size the budget admits, per family and per theorem; the next
# size is refused before anything is enumerated.  Series orders and formula
# indices stop at MAX_ORDER.

ADMITTED = {"weak-a": 8, "weak-b": 6, "tam-a": 9, "tam-b": 9, "j-a": 10, "j-b": 9}
ADMITTED_CASES = {"weak": 6, "tam-a": 9, "tam-b": 9, "jay-a": 15, "jay-b": 15}


def refuse_all_work(monkeypatch):
    """Make every builder, census, formula and series solver in the registry raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    for name, family in FAMILIES.items():
        census = family.first_entry_census and (refuse, refuse)
        monkeypatch.setitem(FAMILIES, name, family._replace(build=refuse, first_entry_census=census))
    for theorems in (THEOREMS, FORMULAS):
        for name, theorem in theorems.items():
            monkeypatch.setitem(theorems, name, theorem._replace(
                census=refuse, formula=refuse, as_printed=theorem.as_printed and refuse))
    for name, record in SERIES.items():
        monkeypatch.setitem(SERIES, name, record._replace(solve=refuse))


def refused_runs(past):
    """(id, argv) of each entry point at a size past its bound, `past(largest)`."""
    for name, family in FAMILIES.items():
        size = [family.size_flag, str(past(ADMITTED[name]))]
        for command in ("enumerate", "pop-poly", "image"):
            yield f"{command}-{name}", [command, "--lattice", name, *size]
        if family.first_entry_census:
            yield f"census-{name}", ["census", "--lattice", name, *size]
    for name, largest in ADMITTED_CASES.items():
        yield f"verify-{name}", ["verify", "--theorem", name, "--max-n", str(past(largest))]
    for name in SERIES:
        yield f"series-{name}", ["series", "--check", name, "--order", str(past(MAX_ORDER))]
    for name in FORMULAS:
        yield f"formula-{name}", ["formula", "--name", name, "--n", str(past(MAX_ORDER))]


def refused_argvs():
    # the first size past the budget, and one whose element count alone would
    # take minutes and gigabytes to compute
    for label, past in (("first", lambda largest: largest + 1), ("huge", lambda largest: 10**9)):
        for i, argv in refused_runs(past):
            yield pytest.param(argv, id=f"{i}-{label}")


@pytest.mark.parametrize("argv", refused_argvs())
def test_past_the_budget_exits_2_before_any_work(capsys, monkeypatch, argv):
    refuse_all_work(monkeypatch)
    tracemalloc.start()
    try:
        code = main(argv + ["--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    bound = "order bound" if argv[0] in ("series", "formula") else "MiB memory budget"
    assert captured.err.startswith("error: ") and bound in captured.err
    assert peak < 1 << 20


def _word(values):
    return ",".join(map(str, values))


@pytest.mark.parametrize("name, x", [
    # the bottom words one size past the lattice budget, and the type-B top
    pytest.param("tam-a", _word(range(1, ADMITTED["tam-a"] + 3)), id="pop-up-tam-a"),
    pytest.param("tam-b", _word(range(1, 2 * ADMITTED["tam-b"] + 3)), id="pop-up-tam-b"),
    pytest.param("tam-b", _word(range(2 * ADMITTED["tam-b"] + 2, 0, -1)), id="pop-up-tam-b-top"),
])
def test_tamari_pop_up_past_the_budget_builds_nothing(capsys, monkeypatch, name, x):
    family = FAMILIES[name]
    expected = family.format(family.pop_up(family.parse(x)))
    refuse_all_work(monkeypatch)
    tracemalloc.start()
    try:
        code = main(["pop", "--lattice", name, "--up", "--x", x, "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["result"] == expected
    assert peak < 1 << 20


def test_largest_admitted_sizes():
    for name, family in FAMILIES.items():
        assert family.admit(ADMITTED[name]) == ADMITTED[name]
        with pytest.raises(GuardError):
            family.admit(ADMITTED[name] + 1)
    for name, theorem in THEOREMS.items():
        theorem.admit(ADMITTED_CASES[name])
        with pytest.raises(GuardError):
            theorem.admit(ADMITTED_CASES[name] + 1)
        assert theorem.admit_formula(MAX_ORDER) == MAX_ORDER
        with pytest.raises(GuardError):
            theorem.admit_formula(MAX_ORDER + 1)
    for record in SERIES.values():
        assert record.admit(MAX_ORDER) == MAX_ORDER
        with pytest.raises(GuardError):
            record.admit(MAX_ORDER + 1)


def test_cost_grows_with_size():
    # One check at --max-n covers a whole verify range only if the cost of
    # every family and theorem grows with n.
    for family in FAMILIES.values():
        costs = [cost(family.size(n)) for n in range(13)]
        assert costs == sorted(costs)
    for theorem in THEOREMS.values():
        costs = [cost(theorem.elements(n), theorem.builds) for n in range(theorem.first_n, 20)]
        assert costs == sorted(costs)

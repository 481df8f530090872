"""Acceptance suite: one test per criterion, exact equalities, stated time caps.

Each test prints a single PASS/FAIL line (visible with `pytest -s`).  The
rank-5 weak-order case, the validated rank-7 type-B Tamari case and the
largest sizes the memory budget admits are opt-in: set POPLAT_OPT_IN=1.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from poplat import dyck, formulas, series, tamari, weak
from poplat.families import FAMILIES, THEOREMS, cost
from poplat.lattice import QPoly
from poplat.words import reduction
from congruence import (
    large_half,
    project_tam_a_by_classes,
    project_tam_b_by_classes,
    tam_b_image_predicate_as_printed,
)
from reference import pop_down, project_tam_a, project_tam_b
from word_stats import descent_count, peak_count


def report(num: int, text: str):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def fresh(builder, *args, **kwargs):
    builder.cache_clear()
    return builder(*args, **kwargs)


def test_criterion_1_weak_top_coefficient():
    expected = {1: 0, 2: 4, 3: 20, 4: 72}
    for n in (1, 2, 3):
        poly = weak.weak_b_lattice(n).pop_polynomial("down")
        assert poly[n - 1] == formulas.weak_b_coefficient(n) == expected[n]
    start = time.perf_counter()
    poly4 = fresh(weak.weak_b_lattice, 4).pop_polynomial("down")
    elapsed = time.perf_counter() - start
    assert poly4[3] == 72
    assert elapsed < 5.0, f"rank 4 took {elapsed:.2f}s"
    note = f"[q^(n-1)] Pop(Weak(B_n);q) = 3^n-2n-1 for n=1..4; n=4 in {elapsed:.2f}s"
    if os.environ.get("POPLAT_OPT_IN"):
        start = time.perf_counter()
        poly5 = weak.weak_b_lattice(5, validate=False).pop_polynomial("down")
        elapsed5 = time.perf_counter() - start
        assert poly5[4] == 232
        assert elapsed5 < 120.0
        note += f"; opt-in n=5 value 232 in {elapsed5:.1f}s"
    else:
        note += "; opt-in n=5 skipped (set POPLAT_OPT_IN=1)"
    report(1, note)


def test_criterion_2_census_by_first_entry():
    assert weak.image_census_by_first_entry(2) == {1: 1, 2: 2, 3: 1, 4: 0}
    for n in (2, 3, 4):
        assert weak.image_census_by_first_entry(n) == formulas.census_prediction(n)
    report(2, "first-entry census matches 3^(n-1)-n / 2^(i-1)3^(n-i) / 2^(2n-i)-1 for n=2..4")


def test_criterion_3_tam_b_polynomial():
    for n in (1, 2, 3, 4):
        poly = tamari.tam_b_lattice(n).pop_polynomial("down")
        assert poly == formulas.tam_b_polynomial(n), n
    assert formulas.tam_b_polynomial(2) == QPoly({2: 1, 1: 2})
    start = time.perf_counter()
    tamari.tam_b_lattice.cache_clear()
    tamari.tam_b_elements.cache_clear()
    poly5 = tamari.tam_b_lattice(5).pop_polynomial("down")
    elapsed = time.perf_counter() - start
    assert poly5 == formulas.tam_b_polynomial(5)
    assert len(tamari.tam_b_lattice(5)) == 252
    assert elapsed < 10.0, f"rank 5 took {elapsed:.2f}s"
    note = f"Pop(Tam(B_n);q) equals the closed form for n=1..5; n=5 in {elapsed:.2f}s"
    if os.environ.get("POPLAT_OPT_IN"):
        start = time.perf_counter()
        tamari.tam_b_elements.cache_clear()
        lat7 = fresh(tamari.tam_b_lattice, 7, validate=True)
        poly7 = lat7.pop_polynomial("down")
        elapsed7 = time.perf_counter() - start
        assert len(lat7) == 3432
        assert poly7 == formulas.tam_b_polynomial(7)
        assert elapsed7 < 30.0, f"rank 7 took {elapsed7:.2f}s"
        note += f"; opt-in n=7 validated in {elapsed7:.2f}s"
    else:
        note += "; opt-in n=7 skipped (set POPLAT_OPT_IN=1)"
    report(3, note)


def test_criterion_4_tam_a_polynomial():
    motzkin = [1, 2, 4, 9, 21, 51, 127]
    for n in range(1, 8):
        poly = tamari.tam_a_lattice(n).pop_polynomial("down")
        assert poly == formulas.tam_a_polynomial(n), n
        assert sum(poly.coeffs.values()) == motzkin[n - 1]
    report(4, "Pop(Tam(A_n);q) equals the closed form for n=1..7 with Motzkin totals")


def test_criterion_5_j_a_polynomial():
    for m in range(2, 9):
        lattice_poly = dyck.j_a_lattice(m).pop_polynomial("up")
        assert lattice_poly == formulas.j_a_polynomial(m - 2), m
        assert lattice_poly == dyck.pop_up_polynomial_a(m)
    assert formulas.j_a_polynomial(2) == QPoly({1: 1, 2: 3, 3: 1})
    assert dyck.pop_up_polynomial_a(9) == formulas.j_a_polynomial(7)
    start = time.perf_counter()
    dyck.all_paths.cache_clear()
    poly10 = dyck.pop_up_polynomial_a(10)
    elapsed = time.perf_counter() - start
    assert poly10 == formulas.j_a_polynomial(8)
    assert len(dyck.all_paths(10)) == 16796
    assert elapsed < 60.0, f"semi-length 10 took {elapsed:.2f}s"
    totals = [sum(formulas.j_a_polynomial(m - 2).coeffs.values()) for m in range(2, 11)]
    assert totals == [1, 2, 5, 13, 35, 97, 275, 794, 2327]
    report(5, f"Pop over semi-length m matches the index-(m-2) closed form for m=2..10; m=10 in {elapsed:.2f}s")


def test_criterion_6_j_b_polynomial_and_deviation():
    assert formulas.j_b_polynomial(1) == QPoly({1: 1})
    assert formulas.j_b_polynomial(2) == QPoly({1: 2, 2: 1})
    assert sum(formulas.j_b_polynomial(3).coeffs.values()) == 9
    for n in range(1, 6):
        brute = dyck.pop_up_polynomial_b(n)
        assert brute == formulas.j_b_polynomial(n, include_j0=True), n
        printed = formulas.j_b_polynomial(n, include_j0=False)
        assert brute - printed == QPoly({n: (-1) ** n}), n
    report(6, "symmetric-path Pop matches the corrected form for n=1..5; as-printed differs by exactly (-1)^n q^n")


def test_criterion_7_duality_everywhere():
    instances = []
    for m in (2, 3, 4, 5):
        instances.append(("weak-a", m, weak.weak_a_lattice(m)))
    for n in (1, 2, 3, 4):
        instances.append(("weak-b", n, weak.weak_b_lattice(n)))
    for n in range(1, 8):
        instances.append(("tam-a", n, tamari.tam_a_lattice(n)))
    for n in range(1, 6):
        instances.append(("tam-b", n, tamari.tam_b_lattice(n)))
    for m in range(1, 9):
        instances.append(("j-a", m, dyck.j_a_lattice(m)))
    for n in range(1, 6):
        instances.append(("j-b", n, dyck.j_b_lattice(n)))
    for name, n, lat in instances:
        assert lat.pop_polynomial("down") == lat.pop_polynomial("up"), (name, n)
    report(7, f"down/up pop census polynomials agree on all {len(instances)} built lattices")


def test_criterion_8_image_predicates():
    for n in range(1, 8):
        carrier = tamari.tam_a_elements(n)
        image = {tamari.pop_tam_a(p) for p in carrier}
        for p in carrier:
            assert tamari.hong_image_predicate(p) == (p in image), (n, p)

    for n in range(1, 6):
        carrier = tamari.tam_b_elements(n)
        image = {tamari.pop_tam_b(x) for x in carrier}
        for x in carrier:
            assert tamari.tam_b_image_predicate(x) == (x in image), (n, x)
    # the rank-2 element 2143 is the membership edge case: the literal
    # mixed-statement reading admits it, brute force excludes it
    image2 = {tamari.pop_tam_b(x) for x in tamari.tam_b_elements(2)}
    assert tamari.tam_b_image_predicate((2, 1, 4, 3)) == ((2, 1, 4, 3) in image2) == False  # noqa: E712
    assert tam_b_image_predicate_as_printed((2, 1, 4, 3)) is True

    for m in range(1, 10):
        image = {dyck.flip_valleys_up(p) for p in dyck.all_paths(m)}
        for p in dyck.all_paths(m):
            assert dyck.image_predicate_a(p) == (p in image), (m, p)
    for n in range(1, 6):
        image = {dyck.flip_valleys_up(p) for p in dyck.symmetric_paths(n)}
        for p in dyck.symmetric_paths(n):
            assert dyck.image_predicate_b(p) == (p in image), (n, p)

    for n in range(1, 5):
        for z in weak.weak_b_lattice(n).pop_image("down"):
            assert weak.image_run_condition(z), (n, z)
    report(8, "image characterizations equal brute-force images (incl. the 2143 edge case); run condition is necessary")


def test_criterion_9_preimage_constructions():
    for n in range(1, 7):
        image = {tamari.pop_tam_a(p) for p in tamari.tam_a_elements(n)}
        for x in image:
            y = tamari.preimage_ending_in_one(x)
            assert y[-1] == 1 and tamari.pop_tam_a(y) == x, (n, x)
    for n in range(1, 5):
        image = {tamari.pop_tam_b(x) for x in tamari.tam_b_elements(n)}
        for x in image:
            y = tamari.preimage_tam_b(x)
            assert tamari.pop_tam_b(y) == x, (n, x)
    # worked examples, byte-exact
    assert tamari.preimage_ending_in_one((2, 4, 3, 5, 1, 7, 6, 8)) == (4, 5, 3, 2, 7, 8, 6, 1)
    assert tamari.preimage_tam_b((1, 7, 2, 4, 3, 5, 8, 10, 9, 11, 6, 12)) == (
        7, 1, 10, 11, 9, 8, 5, 4, 2, 3, 12, 6,
    )
    report(9, "constructive preimages pop back exactly; both worked examples reproduce byte-exactly")


def test_criterion_10_projection_consistency():
    for n in range(1, 7):
        lat = tamari.tam_a_lattice(n)
        for p in lat.elements:
            assert pop_down(lat, p) == tamari.pop_tam_a(p), (n, p)
    for n in range(1, 5):
        lat = tamari.tam_b_lattice(n)
        for x in lat.elements:
            assert pop_down(lat, x) == tamari.pop_tam_b(x), (n, x)
    for n in range(1, 5):
        for p, target in project_tam_a_by_classes(n).items():
            assert project_tam_a(p) == target
        for x, target in project_tam_b_by_classes(n).items():
            assert project_tam_b(x) == target
    from poplat.signed import enumerate_signed

    for x in enumerate_signed(4):
        lhs = reduction(large_half(project_tam_b(x)))
        rhs = project_tam_a(reduction(large_half(x)))
        assert lhs == rhs, x
    report(10, "pop = projected run reversal = generic lattice pop; rewriting = class minima; block-pattern identity on all of rank 4")


def test_criterion_11_series_lab():
    start = time.perf_counter()
    order = 12
    one = series.BiSeries.constant(order, 1)
    x = series.BiSeries.monomial(order, 1, 0)
    y = series.BiSeries.monomial(order, 0, 1)

    g = series.ffrr_avoider_series(order)
    assert g == one + x * y * g + x * (g - one) + x.shift_x(1) * y * g * (g - one)

    f = series.path_image_series(order)
    assert f == one + x * (g - one) + x * y
    for n in range(order - 1):
        assert f.y_polynomial(n + 2) == formulas.j_a_polynomial(n)

    for n in range(order + 1):
        for k in range(1, n + 1):
            assert g.coefficient(n, k) == formulas.h_coefficient(n, k)

    i = series.symmetric_avoider_series(order)
    g2 = series.ffrr_avoider_series((order + 1) // 2).substitute_x_squared(order)
    rhs = (
        one + x.shift_x(1) * y * i + x * i
        + x.shift_x(3) * y * i * (g2 - one)
        + x.shift_x(2) * y * (g2 - one)
        - x + x * y
    )
    assert i == rhs

    j = series.symmetric_image_series(order)
    for n in range(1, order + 1):
        assert j.y_polynomial(n) == formulas.j_b_polynomial(n)
    assert series.radical_check_symmetric(10)

    m_series = series.tamari_block_series(order)
    assert m_series.agrees_with(series.radical_block_series(order), order)

    bundle = series.tamari_image_series(order)
    n_series, k_series = bundle["N"], bundle["K"]
    geom = (one - y * m_series).inverse()
    assert bundle["P"] == y * y * m_series * m_series * geom
    assert bundle["Q"] == m_series * geom
    assert n_series == bundle["P"] + bundle["Q"]
    for n in range(1, order + 1):
        for d in range(n + 1):
            assert n_series.coefficient(n, d) == formulas.n_coefficient(n, d)
        assert k_series.y_polynomial(n) == formulas.tam_b_polynomial(n)

    # enumeration cross-checks at desk scale
    for m in range(7):
        expected = {}
        for p in dyck.all_paths(m):
            if "ffrr" not in p:
                expected[peak_count(p)] = expected.get(peak_count(p), 0) + 1
        assert g.y_polynomial(m) == QPoly(expected)
    for n in range(1, 5):
        image = {tamari.pop_tam_b(z) for z in tamari.tam_b_elements(n)}
        by_descents = {}
        for z in image:
            d = descent_count(z)
            by_descents[d] = by_descents.get(d, 0) + 1
        assert n_series.y_polynomial(n) == QPoly(by_descents)
    for n in range(1, 6):
        assert j.y_polynomial(n) == dyck.pop_up_polynomial_b(n)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"series suite took {elapsed:.2f}s"
    report(11, f"series tables to order 12 satisfy their equations, closed forms, and enumeration; done in {elapsed:.2f}s")


# One CLI run in a fresh interpreter; prints its JSON report, then the bytes
# its peak RSS grew by over the RSS right after the import.  Linux only: the
# peak is VmHWM, which starts afresh at exec, where ru_maxrss would carry over
# the peak of the process that forked it.
PEAK_SCRIPT = """
import io, json, os, sys
from contextlib import redirect_stdout
import poplat.cli
def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
def hwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))
base = rss()
out = io.StringIO()
with redirect_stdout(out):
    code = poplat.cli.main(sys.argv[1:] + ["--json"])
print(json.dumps({"code": code, "report": json.loads(out.getvalue()), "grew": hwm() - base}))
"""


def peak_run(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_criterion_12_largest_admitted_sizes():
    if not os.environ.get("POPLAT_OPT_IN"):
        report(12, "opt-in largest admitted sizes skipped (set POPLAT_OPT_IN=1)")
        return
    # (argv, bytes the budget charged, check of the report)
    cases = [
        (("pop-poly", "--lattice", "weak-a", "--n", "8"), cost(FAMILIES["weak-a"].size(8)),
         lambda r: r["verdict"] == "match"),
        (("verify", "--theorem", "tam-a", "--max-n", "9"), cost(FAMILIES["tam-a"].size(9)),
         lambda r: r["totals"] == {"match": 9, "mismatch": 0}),
        (("verify", "--theorem", "tam-b", "--max-n", "9"), cost(FAMILIES["tam-b"].size(9)),
         lambda r: r["totals"] == {"match": 9, "mismatch": 0}),
        (("pop-poly", "--lattice", "j-b", "--n", "9"), cost(FAMILIES["j-b"].size(9)),
         lambda r: r["verdict"] == "match"
         and r["up_with_lower_covers"] == formulas.j_b_polynomial(9).to_json_dict()),
        (("census", "--lattice", "weak-b", "--n", "6"), cost(FAMILIES["weak-b"].size(6)),
         lambda r: r["verdict"] == "match"),
        # the path-only branch of the model: no lattice is built
        (("verify", "--theorem", "jay-b", "--max-n", "15"),
         cost(THEOREMS["jay-b"].elements(15), lattice=False),
         lambda r: r["totals"] == {"match": 15, "mismatch": 0}),
        (("verify", "--theorem", "jay-a", "--max-n", "15"),
         cost(THEOREMS["jay-a"].elements(15), lattice=False),
         lambda r: r["totals"] == {"match": 16, "mismatch": 0}),
    ]
    notes = []
    for argv, budgeted, check in cases:
        start = time.perf_counter()
        run = peak_run(*argv)
        elapsed = time.perf_counter() - start
        assert run["code"] == 0 and check(run["report"]), argv
        # the model must fail closed: never below what the run really took
        assert budgeted >= run["grew"], (argv, budgeted, run["grew"])
        notes.append(f"{' '.join(argv)} {run['grew'] >> 20}/{budgeted >> 20} MiB "
                     f"in {elapsed:.1f}s")
    report(12, "validated at the largest admitted sizes, measured/modelled peak: "
           + "; ".join(notes))

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poplat import cli, dyck, series, weak
from poplat.cli import main
from poplat.families import FAMILIES, FORMULAS, MAX_ORDER, SERIES, THEOREMS
from poplat.lattice import FiniteLattice
from poplat.words import format_word
from reference import KEY_PAIRS, reference_build
from test_lattice import count_passes
from test_tamari import filtered_tam_b_elements, transitive_reduction_lattice


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,passes",
    [
        ("verify --theorem tam-a --max-n 5", ["down"] * 5),
        ("image --lattice j-a --semilength 6", ["up"]),
        ("census --lattice weak-b --n 4", ["down"]),
        ("enumerate --lattice weak-b --n 3", []),
        ("pop-poly --lattice tam-b --n 4", ["down", "up"]),
    ],
    ids=["verify-tam-a", "image-j-a", "census", "enumerate", "pop-poly"],
)
def test_each_command_builds_only_the_halves_it_reads(capsys, monkeypatch, argv, passes):
    """A census runs its half's pass, so a command runs one pass per census
    it makes: `verify` one per case, `pop-poly` one each way, `enumerate`
    none."""
    calls = []
    count_passes(monkeypatch, calls)
    code, _, _ = run(capsys, *argv.split(), "--json")
    assert code == 0
    assert calls == passes


def test_pop_weak_b_paper_example(capsys):
    code, out, _ = run(capsys, "pop", "--lattice", "weak-b", "--x", "5,1,7,6,3,2,8,4")
    assert code == 0
    assert out.strip() == "1,5,2,3,6,7,4,8"


def test_pop_tam_b(capsys):
    code, out, _ = run(
        capsys, "pop", "--lattice", "tam-b", "--x", "7,1,10,11,9,8,5,4,2,3,12,6"
    )
    assert code == 0
    assert out.strip() == "1,7,2,4,3,5,8,10,9,11,6,12"


def test_pop_path_up(capsys):
    code, out, _ = run(capsys, "pop", "--lattice", "j-a", "--x", "rfrfrf", "--up")
    assert code == 0
    assert out.strip() == "rrfrff"


def test_pop_poly(capsys):
    code, out, _ = run(capsys, "pop-poly", "--lattice", "weak-b", "--n", "2")
    assert code == 0
    assert "q^2 + 4q" in out
    assert "duality: match" in out


def test_pop_poly_j_a_semilength(capsys):
    code, out, _ = run(
        capsys, "pop-poly", "--lattice", "j-a", "--semilength", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["down_with_upper_covers"] == {"1": "1", "2": "3", "3": "1"}
    assert payload["verdict"] == "match"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--lattice", "tam-b", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6 elements"
    assert "2,1,4,3" in lines


def test_enumerate_tam_b_6_matches_oracle_order(capsys):
    code, out, _ = run(capsys, "enumerate", "--lattice", "tam-b", "--n", "6", "--json")
    assert code == 0
    oracle = transitive_reduction_lattice(filtered_tam_b_elements(6))
    names = [format_word(x) for x in oracle.elements]
    payload = {"command": "enumerate", "lattice": "tam-b", "n": 6,
               "count": 924, "elements": names}
    assert out == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "lattice,size,builder",
    [(["j-a", "--semilength", "10"], 10, dyck.j_a_lattice),
     (["weak-a", "--n", "7"], 7, weak.weak_a_lattice)],
    ids=["j-a-10", "weak-a-7"],
)
def test_enumerate_and_pop_poly_json_match_reference(capsys, lattice, size, builder):
    name = lattice[0]
    ref = reference_build(*KEY_PAIRS[builder](size))
    code, out, _ = run(capsys, "enumerate", "--lattice", *lattice, "--json")
    assert code == 0
    names = [FAMILIES[name].format(x) for x in ref.elements]
    payload = {"command": "enumerate", "lattice": name, "n": size,
               "count": len(names), "elements": names}
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "pop-poly", "--lattice", *lattice, "--json")
    assert code == 0
    down, up = ref.pop_polynomial("down"), ref.pop_polynomial("up")
    payload = {"command": "pop-poly", "lattice": name, "n": size,
               "down_with_upper_covers": down.to_json_dict(),
               "up_with_lower_covers": up.to_json_dict(), "verdict": "match"}
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    builder.cache_clear()


def refuse_builds(monkeypatch, module, names):
    """Make every way to the named families' builders raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("built the lattice")

    for name in names:
        family = FAMILIES[name]
        monkeypatch.setattr(module, family.build.__name__, refuse)
        monkeypatch.setitem(FAMILIES, name, family._replace(build=refuse))


def test_pop_up_weak_reads_word_without_building(capsys, monkeypatch):
    refuse_builds(monkeypatch, weak, ["weak-a", "weak-b"])
    code, out, _ = run(capsys, "pop", "--lattice", "weak-b", "--up",
                       "--x", "3,11,1,9,6,8,5,7,4,12,2,10")
    assert code == 0
    assert out.strip() == "11,3,9,1,8,6,7,5,12,4,10,2"
    code, out, _ = run(capsys, "pop", "--lattice", "weak-a", "--up", "--x", "2,5,1,3,4")
    assert code == 0
    assert out.strip() == "5,2,4,3,1"


def test_pop_down_on_paths_reads_path_without_building(capsys, monkeypatch):
    refuse_builds(monkeypatch, dyck, ["j-a", "j-b"])
    code, out, _ = run(capsys, "pop", "--lattice", "j-a", "--x", "rrfrrfrfffrrfrfrrfff")
    assert code == 0
    assert out.strip() == "rfrrfrfrffrfrfrrfrff"
    # semi-length 11 lies past the memory budget for a j-a lattice; the pop still answers
    code, out, _ = run(capsys, "pop", "--lattice", "j-a", "--x", "rrfrrfrfffrrfrfrrfffrf")
    assert code == 0
    assert out.strip() == "rfrrfrfrffrfrfrrfrffrf"
    code, out, _ = run(capsys, "pop", "--lattice", "j-b", "--x", "rrfrfrff", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "rfrfrfrf"


def test_pop_j_b_rejects_odd_semilength(capsys):
    for path in ("rf", "rrrfff"):
        code, _, err = run(capsys, "pop", "--lattice", "j-b", "--x", path)
        assert code == 2
        assert "odd semi-length" in err


def test_image_with_predicate(capsys):
    code, out, _ = run(
        capsys, "image", "--lattice", "tam-b", "--n", "3", "--check-predicate",
        "--list", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["predicate_matches"] is True


def test_image_check_reads_the_necessary_only_flag(capsys, monkeypatch):
    # A predicate that holds everywhere is necessary on every image but
    # equals it on none here: only the necessary-only family passes.
    for name, matches in (("tam-a", False), ("weak-b", True)):
        monkeypatch.setitem(FAMILIES, name, FAMILIES[name]._replace(predicate=lambda x: True))
        code, out, _ = run(capsys, "image", "--lattice", name, "--n", "3",
                           "--check-predicate", "--json")
        assert json.loads(out)["predicate_matches"] is matches
        assert code == (0 if matches else 1)


def test_preimage(capsys):
    code, out, _ = run(
        capsys, "preimage", "--lattice", "tam-b",
        "--x", "1,7,2,4,3,5,8,10,9,11,6,12",
    )
    assert code == 0
    assert out.strip() == "7,1,10,11,9,8,5,4,2,3,12,6"


@pytest.mark.parametrize("name,letters", [("tam-a", 1500), ("tam-b", 2400)])
def test_preimage_of_a_long_word_pops_back(capsys, name, letters):
    """The end-in-one preimage splits once per letter without recursing, so
    a word longer than the interpreter's recursion limit gets one."""
    x = ",".join(map(str, range(1, letters + 1)))
    code, out, _ = run(capsys, "preimage", "--lattice", name, "--x", x)
    assert code == 0
    code, popped, _ = run(capsys, "pop", "--lattice", name, "--x", out.strip())
    assert code == 0 and popped.strip() == x


def test_census(capsys):
    code, out, _ = run(
        capsys, "census", "--lattice", "weak-b", "--n", "3"
    )
    assert code == 0
    assert "verdict: match" in out


def test_formula(capsys):
    code, out, _ = run(capsys, "formula", "--name", "tam-b", "--n", "6")
    assert code == 0
    assert out.strip() == "q^6 + 30q^5 + 100q^4 + 40q^3"


def test_verify_match_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "tam-b", "--max-n", "4")
    assert code == 0
    assert out.count("| match") == 4

    code, out, _ = run(
        capsys, "verify", "--theorem", "jay-b", "--max-n", "3", "--as-printed"
    )
    assert code == 1
    assert "delta" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "verify", "--theorem", "jay-a", "--max-n", "3", "--json"
    )
    code2, out2, _ = run(
        capsys, "verify", "--theorem", "jay-a", "--max-n", "3", "--json"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["totals"] == {"match": 4, "mismatch": 0}
    assert all(case["verdict"] == "match" for case in payload["cases"])


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--check", "K", "--order", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "match"
    assert payload["coefficients"]["2"] == {"1": "2", "2": "1"}


@pytest.mark.parametrize("name", list(SERIES))
def test_series_command_every_name_at_guard(capsys, name):
    code, out, _ = run(capsys, "series", "--check", name, "--order", str(MAX_ORDER), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "match"
    assert payload["order"] == MAX_ORDER


def test_series_command_text(capsys):
    code, out, _ = run(capsys, "series", "--check", "J", "--order", "3")
    assert code == 0
    assert out.splitlines() == [
        "x^0: 1*y^0",
        "x^1: 1*y^1",
        "x^2: 2*y^1 + 1*y^2",
        "x^3: 2*y^1 + 6*y^2 + 1*y^3",
        "matches_image_formula: ok",
        "radical_form: ok",
    ]


# sha256 over every series report at orders 0..16, plain and --json
SERIES_REPORTS_SHA256 = "de21e92b33aaa682dc34009b1feba8974869f8b70b05ffdc6157c1bf6207fd19"


def test_every_series_report_is_pinned(capsys):
    """Each report's exit code and stdout, in a fixed order, hash to the pin:
    a moved coefficient, check or verdict fails here."""
    digest = hashlib.sha256()
    for name in "GFHIJMNK":
        for order in range(17):
            for extra in ([], ["--json"]):
                code, out, _ = run(capsys, "series", "--check", name, "--order", str(order), *extra)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SERIES_REPORTS_SHA256


def test_a_root_that_is_not_integral_exits_2(capsys, monkeypatch):
    def sqrt_one_plus_x(order):  # 1 + x/2 - ...: the first residual is odd
        return (series.BiSeries.constant(order, 1) + series.BiSeries.monomial(order, 1, 0)).sqrt()

    monkeypatch.setitem(SERIES, "J", SERIES["J"]._replace(solve=sqrt_one_plus_x))
    code, out, err = run(capsys, "series", "--check", "J", "--order", "3", "--json")
    assert (code, out) == (2, "")
    assert err == "error: 1 is not divisible by 2\n"


def test_guard_errors_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--lattice", "weak-b", "--n", "9")
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, "pop", "--lattice", "weak-b", "--x", "2,1,3,4")
    assert code == 2

    code, _, err = run(capsys, "pop", "--lattice", "tam-b", "--x", "2,4,1,3")
    assert code == 2

    code, _, err = run(capsys, "pop", "--lattice", "j-a", "--x", "rfx")
    assert code == 2

    # tam-a of size n holds words on n+1 letters, so no size holds the empty word
    message = ("error: the empty word is in no type-A Tamari lattice: "
               "size n holds words on n+1 letters\n")
    for argv in (["pop", "--up"], ["pop"], ["preimage"]):
        assert run(capsys, *argv, "--lattice", "tam-a", "--x", "", "--json") == (2, "", message)


def test_verify_tam_b_past_the_guard_exits_2(capsys):
    # n = 9 is the largest type-B case the budget admits; --max-n 10 is
    # refused before case 1, so no case is built and nothing is reported
    code, out, err = run(capsys, "verify", "--theorem", "tam-b", "--max-n", "10", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tam-b --max-n 10 is past the 512 MiB memory budget: "
                          "size 10 holds 184756 elements")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "nonsense", "--max-n", "2"])
    assert exc.value.code == 2


def outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit gives its code."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_main(argv):
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


PARSER_ARGVS = [
    "",
    "--help",
    "nonsense --lattice weak-a --n 2",
    *(f"{name} --help" for name in cli._SUBCOMMANDS),
    "--json series --check G",
    "-h series",
    "series --check X",
    "formula --n 3",
    "enumerate --lattice weak-a --n 2 --bogus",
    "series --check G --order 4 extra",
    "series --check G --order 4 --json",
    "pop --lattice weak-b --x 5,1,7,6,3,2,8,4",
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: argv or "no-arguments")
def test_main_parses_like_the_full_parser(capsys, argv):
    argv = argv.split()
    assert outcome(capsys, main, argv) == outcome(capsys, full_parser_main, argv)


def test_a_plain_argv_builds_no_parser(capsys, monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    plain = run(capsys, "series", "--check", "G", "--order", "4", "--json")
    assert plain[0] == 0
    assert names == []
    # Any other argv is read by the one full parser, which registers every command.
    assert run(capsys, "series", "--check", "G", "--ord", "4", "--json") == plain
    assert names == list(cli._SUBCOMMANDS)


def parsed(parse, argv):
    """(vars() of parse(argv) or its SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# Values that pass no conversion or choice, or that argparse reads as options.
BAD_VALUES = ["", "x", "1.5", " 2", "-1", "-", "--", "-h", "nonsense"]
STRAY = ["-h", "--help", "--", "extra", "--bogus", "nonsense", "series"]


def mostly(plain, other):
    """Strategy: a draw from `plain` nine times in ten, else from `other`."""
    return st.integers(0, 9).flatmap(lambda roll: other if roll == 0 else plain)


def option_tokens(option):
    """Strategy: `option` as argv tokens, mostly in plain form, else
    abbreviated or as --opt=value, or with a bad value."""
    if option.value is bool:
        good = st.none()
    elif option.value is int:
        good = st.integers(0, 20).map(str)
    elif isinstance(option.value, dict):
        good = st.sampled_from(list(option.value))
    else:
        good = st.sampled_from(["2,1,3", "rfrf", "1,7,2,4,3,5,8,10,9,11,6,12"])
    value = mostly(good, st.sampled_from(BAD_VALUES))
    flag = mostly(st.just(option.flag),
                  st.sampled_from([option.flag[:k] for k in range(3, len(option.flag))]
                                  + [option.flag + "="]))

    def spell(pair):
        flag, value = pair
        if flag.endswith("="):
            return [flag + (value or "")]
        return [flag] if value is None else [flag, value]

    return st.tuples(flag, value).map(spell)


@st.composite
def command_lines(draw):
    """An argv drawn from one command's table: its options in any order,
    each given or left out, then now and then a repeat or a stray token
    put in anywhere, or the command changed."""
    command = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    options = cli._SUBCOMMANDS[command].options
    argv = [command]
    for option in draw(st.permutations(options)):
        if draw(mostly(st.just(True), st.just(False)) if option.required else st.booleans()):
            argv += draw(option_tokens(option))
    extras = st.one_of(st.sampled_from(options).flatmap(option_tokens),
                       st.sampled_from(STRAY).map(lambda token: [token]))
    for _ in range(draw(mostly(st.just(0), st.integers(1, 3)))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(extras)
    if draw(mostly(st.just(False), st.booleans())):
        argv[0] = draw(st.sampled_from(["nonsense", "-h", command[:3]]))
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_main_reads_every_argv_as_the_full_parser_does(argv):
    assert parsed(cli.parse_args, argv) == parsed(
        lambda argv: cli.build_parser().parse_args(argv), argv)


def test_the_readme_examples_are_plain():
    for argv in readme_examples():
        for line in (argv, [*argv, "--json"]):
            assert cli._plain(line) is not None, line


def test_the_benchmark_jobs_are_plain(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    jobs = [job for workload in workloads.WORKLOADS.values() for job in workload.jobs]
    assert jobs
    for job in jobs:
        assert cli._plain(list(job)) is not None, job


def python(*args):
    """Run this interpreter on the poplat package under test."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=False)


def test_importing_the_cli_loads_no_dataclasses_machinery():
    probe = python("-c", "import sys; before = set(sys.modules); import poplat.cli; "
                   "print(*sorted(set(sys.modules) - before))")
    loaded = probe.stdout.split()
    assert "poplat.cli" in loaded, probe.stderr
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("argv", ["series --check M --order 16 --json",
                                  "series --check J --order 16 --json",
                                  "pop-poly --lattice j-b --n 2 --json"])
def test_a_plain_command_line_loads_no_argparse_or_fractions(argv):
    probe = python("-c", "import sys; from poplat.cli import main; code = main(sys.argv[1:]); "
                   "print(code, *sorted({'argparse', 'gettext', 'locale', 'fractions'} "
                   "& set(sys.modules)), file=sys.stderr)", *argv.split())
    assert probe.stderr.split() == ["0"]


def test_the_module_entry_point_prints_what_main_prints(capsys):
    argv = ["series", "--check", "G", "--order", "4", "--json"]
    child = python("-m", "poplat.cli", *argv)
    assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv)


def test_pop_poly_j_a_9_validated_matches_unvalidated(capsys):
    argv = ["pop-poly", "--lattice", "j-a", "--semilength", "9", "--json"]
    code, validated, _ = run(capsys, *argv)
    code_nv, unvalidated, _ = run(capsys, *argv, "--no-validate")
    assert code == code_nv == 0
    assert validated == unvalidated


def test_pop_poly_on_non_lattice_exits_2(capsys, monkeypatch):
    covers = [("bot", "x"), ("bot", "y"), ("x", "u"), ("x", "v"),
              ("y", "u"), ("y", "v"), ("u", "top"), ("v", "top")]
    broken = FiniteLattice.build(["bot", "x", "y", "u", "v", "top"], covers, validate=False)
    monkeypatch.setitem(FAMILIES, "weak-a",
                        FAMILIES["weak-a"]._replace(build=lambda n, validate: broken))
    code, out, err = run(capsys, "pop-poly", "--lattice", "weak-a", "--n", "3",
                         "--no-validate")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no meet of the lower covers of 'top'")


def test_verify_text_times_building_each_case(capsys, monkeypatch):
    # A fake clock that only moves while the generator builds a case: each
    # case must then report exactly that step, not the comparison alone.
    now = [0.0]
    monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])
    real_cases = cli._verify_cases

    def slow_cases(*args):
        for case in real_cases(*args):
            now[0] += 2.5
            yield case

    monkeypatch.setattr(cli, "_verify_cases", slow_cases)
    code, out, _ = run(capsys, "verify", "--theorem", "tam-a", "--max-n", "3")
    assert code == 0
    case_lines = out.strip().splitlines()[:-1]
    assert len(case_lines) == 3
    assert all(line.endswith("[2.500s]") for line in case_lines)

    argv = ["verify", "--theorem", "tam-a", "--max-n", "3", "--json"]
    _, faked_json, _ = run(capsys, *argv)
    monkeypatch.undo()
    _, real_json, _ = run(capsys, *argv)
    assert faked_json == real_json


# --- sizes, the validation knob and the README examples ----------------------


def test_census_without_size_exits_2(capsys):
    code, out, err = run(capsys, "census", "--lattice", "weak-b", "--json")
    assert code == 2
    assert out == ""
    assert err == "error: --n is required for weak-b\n"


def test_census_below_its_first_case_exits_2_before_building(capsys, monkeypatch):
    def build(n, validate=True):
        raise AssertionError(f"built B_{n}")

    monkeypatch.setattr(weak, "weak_b_lattice", build)
    for n in ("0", "-1"):
        assert run(capsys, "census", "--lattice", "weak-b", "--n", n, "--json") == (
            2, "", f"error: --n must be at least 1, got {n}\n")


@pytest.mark.parametrize("name", list(FAMILIES))
def test_negative_size_exits_2_on_every_family(capsys, name):
    flag = FAMILIES[name].size_flag
    for command in ("enumerate", "pop-poly", "image"):
        code, out, err = run(capsys, command, "--lattice", name, flag, "-1", "--json")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least 0, got -1\n"


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_verify_max_n_below_first_case_exits_2(capsys, theorem):
    first = THEOREMS[theorem].first_n
    code, out, err = run(capsys, "verify", "--theorem", theorem,
                         "--max-n", str(first - 1), "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: --max-n must be at least {first}, got {first - 1}\n"
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--max-n", str(first), "--json")
    assert code == 0
    assert [case["n"] for case in json.loads(out)["cases"]] == [first]


def test_no_validate_only_where_a_lattice_is_built(capsys):
    lattice = ["--lattice", "tam-a", "--n", "2"]
    takes = {
        "enumerate": lattice,
        "pop-poly": lattice,
        "image": lattice,
        "verify": ["--theorem", "tam-a", "--max-n", "2"],
    }
    refuses = {
        "pop": ["--lattice", "tam-a", "--x", "1,2,3"],
        "preimage": ["--lattice", "tam-a", "--x", "1,2,3"],
        "census": ["--lattice", "weak-b", "--n", "2"],
        "formula": ["--name", "tam-a", "--n", "2"],
        "series": ["--check", "J", "--order", "2"],
    }
    for command, args in takes.items():
        code, out, _ = run(capsys, command, *args, "--json")
        code_nv, out_nv, _ = run(capsys, command, *args, "--json", "--no-validate")
        assert code == code_nv == 0
        assert out_nv == out
    for command, args in refuses.items():
        assert run(capsys, command, *args, "--json")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--no-validate"])
        assert exc.value.code == 2
    # The knobs a record has no use for are refused by name: the ideal-lattice
    # censuses build no lattice, and only jay-b has an as-printed closed form.
    knobs = {
        "verify --theorem jay-a --max-n 2 --no-validate":
            "--no-validate is available for weak and tam-a and tam-b only",
        "verify --theorem jay-b --max-n 2 --no-validate":
            "--no-validate is available for weak and tam-a and tam-b only",
    }
    for name in THEOREMS:
        if name != "jay-b":
            knobs[f"verify --theorem {name} --max-n 2 --as-printed"] = (
                "--as-printed is available for jay-b only")
    for name in FORMULAS:
        if name != "jay-b":
            knobs[f"formula --name {name} --n 2 --as-printed"] = (
                "--as-printed is available for jay-b only")
    for argv, message in knobs.items():
        assert run(capsys, *argv.split()[:-1], "--json")[0] == 0, argv
        assert run(capsys, *argv.split(), "--json") == (2, "", f"error: {message}\n"), argv
    # So are the commands a family has no use for; preimage reads its element first.
    commands = {
        "preimage --lattice weak-a --x 2,1": "preimage is available for tam-a and tam-b only",
        "preimage --lattice weak-a --x 2,2": "word entries must be distinct: (2, 2)",
        "census --lattice tam-a --n 2": "census is available for weak-b only",
    }
    for argv, message in commands.items():
        assert run(capsys, *argv.split(), "--json") == (2, "", f"error: {message}\n"), argv
    assert run(capsys, "formula", "--name", "jay-b", "--n", "2", "--as-printed")[0] == 0


def test_size_flag_only_where_a_family_is_sized(capsys):
    takes = ["census --lattice weak-b --n 2"]
    refuses = {  # argv -> error line
        "census --lattice weak-b --semilength 2": "weak-b is sized by --n, not --semilength",
        "pop-poly --lattice j-a --semilength 3 --n 3": "j-a is sized by --semilength, not --n",
    }
    for name, family in FAMILIES.items():
        other = "--n" if family.size_flag == "--semilength" else "--semilength"
        for command in ("enumerate", "pop-poly", "image"):
            takes.append(f"{command} --lattice {name} {family.size_flag} 2")
            refuses[f"{command} --lattice {name} {other} 2"] = (
                f"{name} is sized by {family.size_flag}, not {other}")
    # pop and preimage read the size off the element: no size flag at all
    unsized = [
        "pop --lattice weak-a --x 2,1,3 --n 99",
        "pop --lattice j-a --x rfrf --semilength 2",
        "preimage --lattice tam-a --x 1,2,3 --n 2",
        "preimage --lattice tam-b --x 1,2,3,4 --semilength 2",
    ]
    for argv in takes:
        assert run(capsys, *argv.split(), "--json")[0] == 0, argv
    for argv, message in refuses.items():
        assert run(capsys, *argv.split(), "--json") == (2, "", f"error: {message}\n"), argv
    for argv in unsized:
        words = argv.split()
        assert run(capsys, *words[:-2], "--json")[0] == 0, argv
        with pytest.raises(SystemExit) as exc:
            main(words)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("error, code", [(MemoryError, 2), (RuntimeError, 3)])
def test_a_crash_exits_with_its_own_code_and_one_line(capsys, monkeypatch, error, code):
    def crash(n, validate=True):
        raise error("builder failed")

    monkeypatch.setitem(FAMILIES, "weak-a", FAMILIES["weak-a"]._replace(build=crash))
    got, out, err = run(capsys, "pop-poly", "--lattice", "weak-a", "--n", "3", "--json")
    assert (got, out) == (code, "")
    assert err == ("error: out of memory\n" if error is MemoryError
                   else "error: RuntimeError: builder failed\n")


# Exit code and sha256 of the `--json` stdout of each README example: the
# documented reports, pinned byte for byte.
README_JSON = {
    "pop --lattice weak-b --x 5,1,7,6,3,2,8,4":
        (0, "c9235848ef2a87c2842450242fbe9d7d2c9078e99cea2a2e55fce62f6e7d0ff8"),
    "pop --lattice tam-b --x 7,1,10,11,9,8,5,4,2,3,12,6":
        (0, "c1174c3b756a5a3928f282d6599152f1435cdc8b9d11f841a79483fc41b3a857"),
    "pop --lattice tam-b --x 1,7,2,4,3,5,8,10,9,11,6,12 --up":
        (0, "b69e6e05520b68029350f8d87c3d679b4186a8fdb52840234ad70f6e154ae0f4"),
    "pop --lattice j-a --x rfrfrf --up":
        (0, "d2c172ad8bb4a6500d29ad5bb9d1fa308a36c767f914aea206043464c31fe06a"),
    "pop-poly --lattice tam-b --n 5":
        (0, "583ff481f8ef5ae507071d42f05c247800107d82a78ddc860834bfed0a7c188f"),
    "image --lattice tam-a --n 5 --check-predicate --list":
        (0, "81e0e6e2d514dd575f0420fe06678831ca767f6cf8464a39ed880d3b08e2f2a3"),
    "preimage --lattice tam-b --x 1,7,2,4,3,5,8,10,9,11,6,12":
        (0, "85d19d192266ecedd19f6e61575c298256683661bb430a0bb57ad6bea0fd59ba"),
    "census --lattice weak-b --n 3":
        (0, "9e49a4e95907112b4f41322daeb7a0bac0f9bf4db47c545364bbec4409c50baa"),
    "formula --name jay-b --n 4":
        (0, "44c4a6ed126d972c9bc7976bb9c481abadb9e82ae2ea80af435db7bfac97cd04"),
    "verify --theorem tam-b --max-n 5":
        (0, "cae56b7b274e90c017e5defca3629a0537e8b86df602c24ddf458ac0e4bb7ef2"),
    "verify --theorem jay-b --max-n 4 --as-printed":
        (1, "3ef8c0fdb05e57d6afaf5ab08e9db8846bf1483d04a90d8008edf149aa5d2d03"),
    "series --check J --order 12":
        (0, "d1e594babeae39a30bccfb62e5c3ce1fcc4f35ea52ac2bcbf4d18c5c054c5afc"),
    "enumerate --lattice j-b --n 2":
        (0, "fe9265f190037a3a5021f4f58ecf72277a026c0d8f4103b42b45e8535c9a9583"),
}


# sha256 of `poplat --help` and of each `poplat <command> --help` at
# COLUMNS=80, by Python minor version: argparse's layout may change between
# versions, and other versions are not pinned.  3.10 and 3.11 print the same
# bytes.
HELP_SHA256 = {
    "--help": "5321c68348b7120ad290671908ba94ccca6e13116dc0e8743a0bda7068bca2c3",
    "enumerate --help": "d1d47a7c109d5699b4d12b49e01149e845c56c55ff13753b955ef1a7fb3bd732",
    "pop --help": "5e5690ea6d5e621ae21edf82938cef8c159ff2aafac5c145851c52be5e73e5de",
    "pop-poly --help": "999fe8d3bd272e6c1be2860eb100312374512c4740ef8a03dfbd66eebb1d2ffc",
    "image --help": "cc1c699ac91ff45bd95cd3c2bea41d6bdbcc6bb7f428b6a86ef193e9a8d736ec",
    "preimage --help": "4b93096e2bf2e2ccc452adcedcab6e4fe92f3251c9fe1cca6c02cb8bdaaedd6f",
    "census --help": "509da11a0c288a8279ea2ec0bb5cd3b538d1edcb84e9dda3506cec91850c6fd1",
    "formula --help": "783d04b3678f2bd519b6b309c1d826140b4e43170dca23f7de35be3b486e03a4",
    "verify --help": "6458ab47cc6fed064eb6f8bfe560dc0b0fc57da60d2adf346120b2f4c446ec3b",
    "series --help": "002cd6e2526ef2ab33c7d7291999e48337ecbe85b4aaf5fac62d5bafda4a360f",
}
HELP_BY_VERSION = {(3, 10): HELP_SHA256, (3, 11): HELP_SHA256}


@pytest.mark.skipif(sys.version_info[:2] not in HELP_BY_VERSION,
                    reason="help texts are pinned on Python 3.10 and 3.11 only")
@pytest.mark.parametrize("argv", ["--help", *(f"{name} --help" for name in cli._SUBCOMMANDS)])
def test_help_texts_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == HELP_BY_VERSION[sys.version_info[:2]][argv]


def readme_examples():
    """argv of each `poplat` line in the README's CLI block, without --json."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    for line in block.splitlines():
        if line.startswith("poplat "):
            yield [arg for arg in shlex.split(line, comments=True)[1:] if arg != "--json"]


def test_readme_examples_json_bytes_are_pinned(capsys):
    seen = {}
    for argv in readme_examples():
        code, out, _ = run(capsys, *argv, "--json")
        seen[" ".join(argv)] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == README_JSON

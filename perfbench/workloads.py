"""The benchmark's workloads: fixed job lists and, for each, the end-to-end
metric each layer metric should move on it.  Why each workload was chosen is
recorded next to its name in BENCHMARK.json.

A job is one `poplat` CLI invocation with `--json`, given as its argv.  The
lists are fixed so that the committed references in `references.json` hold;
the run seed only shuffles the order of the jobs inside each round.
"""
from __future__ import annotations

from dataclasses import dataclass


# Layers the traced run times, in pipeline order.  Each is reported as
# `<layer>_s`; the counts and ratios beside them are listed in run.py.
LAYERS = (
    "signed.enumerate",
    "words.pattern_filter",
    "dyck.paths",
    "weak.covers",
    "tamari.covers",
    "dyck.covers",
    "lattice.closure",
    "lattice.validate",
    "lattice.census",
    "dyck.census",
    "words.predicate",
    "formulas.eval",
    "series.solve",
)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[tuple[str, ...], ...]
    # layer metric -> the end-to-end metric it should move on this workload
    layers: dict[str, str]


def _jobs(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) + ("--json",) for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-validated",
            _jobs(
                "pop-poly --lattice weak-b --n 5",
                "pop-poly --lattice j-a --semilength 8",
                "pop-poly --lattice weak-a --n 6",
                "pop-poly --lattice j-b --n 4",
            ),
            {
                "lattice.validate_s": "wall_s",
                "lattice.closure_s": "wall_s",
                "lattice.census_s": "wall_s",
                "cli.self_s": "wall_s",
            },
        ),
        Workload(
            "tamari-verify",
            _jobs(
                "verify --theorem tam-a --max-n 7",
                "verify --theorem tam-b --max-n 6",
                "image --lattice tam-b --n 5 --check-predicate",
                "image --lattice tam-a --n 6 --check-predicate",
            ),
            {
                "signed.enumerate_s": "wall_s",
                "words.pattern_filter_s": "wall_s",
                "words.pattern_tests": "wall_s",
                "words.carrier_keep_ratio": "wall_s",
                "words.predicate_s": "wall_s",
                "tamari.covers_s": "wall_s",
                "lattice.validate_s": "wall_s",
                "cli.self_s": "wall_s",
            },
        ),
        Workload(
            "bulk-unvalidated",
            _jobs(
                "pop-poly --lattice j-a --semilength 10 --no-validate",
                "pop-poly --lattice weak-b --n 5 --no-validate",
                "pop-poly --lattice weak-a --n 7 --no-validate",
                "verify --theorem jay-a --max-n 8",
                "verify --theorem jay-b --max-n 5",
                "verify --theorem weak --max-n 5",
                "verify --theorem jay-b --max-n 4 --as-printed",
            ),
            {
                "weak.covers_s": "wall_s",
                "dyck.covers_s": "wall_s",
                "dyck.paths_s": "wall_s",
                "lattice.closure_s": "wall_s, peak_rss_mb",
                "lattice.elements": "wall_s, peak_rss_mb",
                "lattice.covers": "wall_s, peak_rss_mb",
                "lattice.census_s": "wall_s",
                "lattice.image_ratio": "wall_s",
                "dyck.census_s": "wall_s",
                "cli.self_s": "wall_s",
            },
        ),
        Workload(
            "series-lab",
            _jobs(*(f"series --check {name} --order 16" for name in "GFHIJMNK")),
            {
                "formulas.eval_s": "wall_s",
                "series.solve_s": "wall_s",
                "series.coefficients": "wall_s",
                "cli.self_s": "wall_s",
            },
        ),
    )
}

"""Benchmark of the poplat verification pipeline.

usage: python3 perfbench/run.py [--workload NAME|all] [--seed N]
                                [--seconds S] [--trace 0|1]

A job is one `poplat ... --json` invocation.  Each job runs in a fresh
child process (child.py), one child at a time, so the builders' memos start
cold as they do for a user.  The run repeats its workload's job list in
rounds, each round in an order shuffled by `--seed`, until the next round
would end after `--seconds`; every job's exit code and stdout bytes are
checked against references.json.

Times are reported in reference seconds: each measured time is multiplied
by speed.REFERENCE_S over the run's median speed-probe time, which takes the
host's minute-long speed swings out of the figures (see speed.py).  Each
time's measured value is printed beside it.

`--trace 0` reports the end-to-end metrics, medians over the rounds:
  wall_s         sum of `main(argv)` times over the round's jobs (time to
                 verdict, imports excluded)
  slowest_job_s  the longest `main(argv)` time of the round
  setup_s        per-job interpreter start plus `import poplat.cli`
                 (median over every job of the run)
  peak_rss_mb    the largest peak resident set (VmHWM) of any child
It also prints fail_ratio (failed / attempted jobs), which the result line
carries as `failed` and `attempted`.

`--trace 1` runs every job in traced mode: after the timed `main(argv)` the
child clears the memos and runs the job again layer by layer with spans, and
the parent checks that this reaches the reference verdict.  It reports the
per-layer metrics, with the tracing overhead (traced minus untraced time of
the same job), and writes the spans to .bench_out/ when the run ends.

Every run first prints an `env` line (Python version, nproc, CPU model),
which the spans file carries too.  All timings come from the benchmark's own
clocks; the CLI's text-mode per-case timings are never read.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  Exit status 0 when every job was correct, 1 when one was not, 2
when the poplat sources are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from workloads import LAYERS, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed at this

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    "words.pattern_tests": "count",
    "words.carrier_keep_ratio": "ratio",
    "lattice.elements": "count",
    "lattice.covers": "count",
    "lattice.image_ratio": "ratio",
    "series.coefficients": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def job_key(argv) -> str:
    return " ".join(argv)


@dataclass
class JobResult:
    argv: tuple[str, ...]
    code: int | None
    stdout: bytes
    report: dict | None
    setup_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def run_child(mode: str, argv, deadline: float) -> JobResult:
    """Run one job in a fresh interpreter; kill it at `deadline`."""
    OUT.mkdir(exist_ok=True)
    report_path = OUT / "job-report.json"
    report_path.unlink(missing_ok=True)
    spawned = _now()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), mode, str(report_path), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return JobResult(tuple(argv), None, b"", None, errors=["killed at the run limit"])
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    result = JobResult(tuple(argv), proc.returncode, stdout, report)
    if report is None:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        result.errors.append(f"crashed: {tail}")
    else:
        result.setup_s = report["imported"] - spawned
    return result


def run_job(argv, reference: dict, trace: bool, deadline: float) -> JobResult:
    """Run one job and check its exit code and stdout bytes.

    With `trace` the child also runs the job layer by layer, and the verdict
    fields that pipeline produced must equal those of the reference report.
    """
    result = run_child("traced" if trace else "plain", argv, deadline)
    if result.report is None:
        return result
    if result.code != reference["exit"]:
        result.errors.append(f"exit {result.code}, expected {reference['exit']}")
    if result.stdout != reference["stdout"].encode():
        result.errors.append("stdout differs from the reference")
    if trace:
        expected = json.loads(reference["stdout"])
        wrong = sorted(k for k, v in result.report["fields"].items()
                       if expected.get(k) != v)
        if wrong:
            result.errors.append(f"traced pipeline disagrees on {wrong}")
    return result


def run_rounds(workload: Workload, seed: int, seconds: float, trace: bool,
               references: dict) -> list[list[JobResult]]:
    """Repeat the job list in shuffled rounds until the next would overrun."""
    rng = random.Random(seed)
    start = _now()
    deadline = start + RUN_LIMIT_S
    rounds: list[list[JobResult]] = []
    while True:
        order = list(workload.jobs)
        rng.shuffle(order)
        round_start = _now()
        results = []
        for argv in order:
            result = run_job(argv, references[job_key(argv)], trace, deadline)
            results.append(result)
            if result.code is None:
                return rounds + [results]
        rounds.append(results)
        now = _now()
        if now - start + (now - round_start) > seconds:
            return rounds


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _reported(results: list[JobResult]) -> list[JobResult]:
    """The jobs whose child finished and wrote its report."""
    return [r for r in results if r.report]


def speed_scale(rounds: list[list[JobResult]]) -> float:
    """REFERENCE_S over the run's median probe time (see speed.py)."""
    probes = [p for rnd in rounds for r in _reported(rnd) for p in r.report["probe_s"]]
    return speed.REFERENCE_S / _median(probes) if probes else 1.0


def end_to_end_metrics(rounds: list[list[JobResult]]) -> dict[str, float]:
    """Measured values; times are still in this machine's seconds."""
    timed = [rnd for rnd in map(_reported, rounds) if rnd]
    return {
        "wall_s": _median(sum(r.report["main_s"] for r in rnd) for rnd in timed),
        "slowest_job_s": _median(max(r.report["main_s"] for r in rnd) for rnd in timed),
        "setup_s": _median(r.setup_s for rnd in timed for r in rnd),
        "peak_rss_mb": max(
            (r.report["peak_rss_kb"] / 1024 for rnd in timed for r in rnd), default=0.0
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _round_layers(results: list[JobResult]) -> dict[str, float]:
    layer_s = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    main_s = traced_s = 0.0
    for r in results:
        for layer, seconds in r.report["layer_s"].items():
            layer_s[layer] += seconds
        for name, count in r.report["counts"].items():
            counts[name] = counts.get(name, 0) + count
        main_s += r.report["main_s"]
        traced_s += r.report["traced_s"]
    count = lambda name: counts.get(name, 0)  # noqa: E731
    return {
        **{f"{layer}_s": seconds for layer, seconds in layer_s.items()},
        "words.pattern_tests": count("words.pattern_tests"),
        "words.carrier_keep_ratio": _ratio(count("words.carrier_kept"),
                                           count("words.pattern_tests")),
        "lattice.elements": count("lattice.elements"),
        "lattice.covers": count("lattice.covers"),
        "lattice.image_ratio": _ratio(count("lattice.image"),
                                      count("lattice.census_elements")),
        "series.coefficients": count("series.coefficients"),
        "cli.self_s": main_s - sum(layer_s.values()),
        "trace.overhead_s": traced_s - main_s,
    }


def per_layer_metrics(rounds: list[list[JobResult]]) -> dict[str, float]:
    per_round = [_round_layers(_reported(rnd)) for rnd in rounds]
    return {name: _median(values[name] for values in per_round) for name in PER_LAYER}


def write_spans(path: Path, workload: Workload, seed: int, stamp: dict,
                rounds: list[list[JobResult]]) -> None:
    jobs = [
        {
            "id": f"r{i}j{j}",
            "argv": list(r.argv),
            "main_s": r.report["main_s"],
            "traced_s": r.report["traced_s"],
            "layer_s": r.report["layer_s"],
            "counts": r.report["counts"],
            "spans": r.report["spans"],
        }
        for i, rnd in enumerate(rounds)
        for j, r in enumerate(_reported(rnd))
    ]
    path.write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "env": stamp, "jobs": jobs}, indent=1
    ))


def outputs_digest(rounds: list[list[JobResult]]) -> str:
    """Hash of each job's exit code and stdout; independent of job order."""
    seen = {job_key(r.argv): [r.code, r.stdout.decode(errors="replace")]
            for rnd in rounds for r in rnd}
    return hashlib.sha256(json.dumps(seen, sort_keys=True).encode()).hexdigest()


def env_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 references: dict, stamp: dict) -> dict:
    mode = "traced" if trace else "plain"
    rounds = run_rounds(workload, seed, seconds, trace, references)
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if not r.ok]
    print(f"workload {workload.name}  seed {seed}  mode {mode}  "
          f"rounds {len(rounds)}  jobs/round {len(workload.jobs)}")
    for r in failed:
        print(f"FAILED {job_key(r.argv)}: {'; '.join(r.errors)}")
    if trace:
        measured, units = per_layer_metrics(rounds), PER_LAYER
    else:
        measured, units = end_to_end_metrics(rounds), END_TO_END
    scale = speed_scale(rounds)
    print(f"  speed probe median {speed.REFERENCE_S / scale * 1e3:.2f} ms; times "
          f"are scaled by {scale:.4f} to a {speed.REFERENCE_S * 1e3:.0f} ms probe")
    metrics = {}
    for name, value in measured.items():
        note = ""
        if units[name] == "s":
            metrics[name] = value * scale
            note = f"  (measured {value:.6g} s)"
        else:
            metrics[name] = value
        if trace and name in workload.layers:
            note += f"  (should move {workload.layers[name]})"
        print(f"  {name:26s} {metrics[name]:.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':26s} {len(failed) / len(results):.6g} ratio "
          f"({len(failed)}/{len(results)} jobs)")
    print(f"  outputs_sha256 {outputs_digest(rounds)}")
    if trace:
        spans = OUT / f"spans-{workload.name}-seed{seed}.json"
        write_spans(spans, workload, seed, stamp, rounds)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "poplat" / "cli.py").is_file():
        print(f"error: no poplat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    stamp = env_stamp()
    print(f"env {json.dumps(stamp)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           references, stamp)
        for name in names
    }
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

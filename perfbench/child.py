"""Run one poplat job in this fresh process and write a report file.

usage: python3 perfbench/child.py plain|traced REPORT_PATH JOB_ARGV...

Both modes import `poplat.cli` and time `poplat.cli.main(argv)`, whose
stdout and return value are this process's own, so the parent checks the
job's real output bytes and exit code.  `traced` then clears every memoised
builder and runs the job again layer by layer (see layers.py); pairing the
two in one process keeps machine-speed drift out of their difference.  The
import time is a CLOCK_MONOTONIC reading, a clock the parent shares, so the
parent can measure interpreter start plus import.  After the job, and after
reading its peak memory, the child times the speed probe (speed.py) twice.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """Peak resident set of this process since exec.

    ru_maxrss would also count the parent's peak, which a child started by
    vfork and exec inherits, so read the kernel's high-water mark instead.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, report_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import poplat.cli

    report: dict = {"imported": _now()}
    start = _now()
    code = poplat.cli.main(argv)
    report["main_s"] = _now() - start
    sys.stdout.flush()
    report["peak_rss_kb"] = _peak_rss_kb()
    report["probe_s"] = [speed.probe(), speed.probe()]
    if mode == "traced":
        import layers

        layers.clear_memos()
        tracer = layers.Tracer()
        start = time.perf_counter()
        report["fields"] = layers.run_job(tracer, argv)
        report["traced_s"] = time.perf_counter() - start
        report["layer_s"] = dict(tracer.layer_s)
        report["counts"] = dict(tracer.counts)
        report["spans"] = [
            {"name": name, "start": s - start, "end": e - start}
            for name, s, e in tracer.spans
        ]
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate references.json: the exit code and `--json` stdout of every job.

usage: python3 perfbench/make_refs.py

Run it only when a change is meant to alter a report; the benchmark counts
any byte difference from these references as a failed job.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCES, ROOT, RUN_LIMIT_S, _now, job_key, run_child
from workloads import WORKLOADS


def main() -> int:
    references = {}
    for workload in WORKLOADS.values():
        for argv in workload.jobs:
            result = run_child("plain", argv, _now() + RUN_LIMIT_S)
            if result.report is None:
                print(f"error: {job_key(argv)}: {result.errors}", file=sys.stderr)
                return 1
            references[job_key(argv)] = {"exit": result.code,
                                         "stdout": result.stdout.decode()}
            print(f"exit {result.code}  {job_key(argv)}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

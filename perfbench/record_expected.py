"""Rewrite the expected reports in perfbench/expected/ for the default seed.

    python3 perfbench/record_expected.py

Each job runs in-process and its report is stored byte for byte.  A job
that exhausts its budget gets the report its identity fixes instead: the
README quotient-counts job is stored with the trace powers of its
right-reduced matrix, so the day the program emits them the benchmark
counts the job as a success.  Run this only when a report is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import sys

import check
import corpus
import plain
from run import SRC


def identity_report(job, version: str) -> bytes:
    inp = job.doc["input"]
    a = inp["matrix"]
    orbs = plain.orbits([plain.parse_cycles(t, len(a)) for t in inp["group"]["generators"]], len(a))
    counts = plain.traces(plain.right_reduced(a, orbs), job.doc["parameters"].get("max_n", 6))
    doc = {
        "format": check.REPORT_FORMAT,
        "version": version,
        "command": job.command,
        "input": job.doc,
        "result": {"counts": counts},
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def main() -> int:
    sys.path.insert(0, str(SRC))
    import sftact
    from sftact import cli
    from sftact.errors import CapExceededError

    for workload in corpus.WORKLOADS:
        for job in corpus.build(workload, check.DEFAULT_SEED):
            try:
                output = cli.emit_report(cli.run_job(cli.parse_job(json.dumps(job.doc)))).encode()
            except CapExceededError:
                if job.command != "quotient-counts":
                    raise
                output = identity_report(job, sftact.__version__)
            path = check.expected_path(workload, job)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(output)
            problems = check.check(workload, job, check.DEFAULT_SEED, output)
            print(f"{workload}/{job.id}: {len(output)} bytes {'; '.join(problems) or 'ok'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

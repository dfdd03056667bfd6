"""Job-corpus benchmark of the sftact command line.

    python3 perfbench/run.py --workload counting --seed 0 --seconds 25 --trace 0

With ``--trace 0`` a single closed-loop client runs the workload's jobs one
at a time, each as its own ``python -m sftact.cli`` process, repeating whole
passes for about ``--seconds`` (and at least ``MIN_PASSES`` passes), and
reports the end-to-end metrics.  With ``--trace 1`` the same jobs run
in-process through parse_job -> run_job -> emit_report, alternating
untraced and traced passes, and the per-layer metrics come from the spans
(see spans.py).  Every report is checked outside the timed region (see
check.py).  Human-readable lines go first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import check
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Whole passes a run always makes.  The tail percentile of a workload is
# fixed as the highest one with 10 samples beyond it at this many passes,
# so it stays the same percentile when faster code fits more passes.
MIN_PASSES = {"cli-small": 5, "counting": 4, "symmetry": 2}
# Imports timed before the first pass and after each pass, so set-up time
# is sampled across the whole run rather than in one burst.
SETUP_RUNS = 2
RUN_LIMIT_S = 170.0


def more_time(start: float, last_pass: float, seconds: float) -> bool:
    """Whether one more pass brings the run's length closer to ``seconds``."""
    return perf_counter() - start + last_pass / 2 < seconds


def tail_level(workload: str, jobs_per_pass: int):
    """(numerator, denominator) of the fixed tail percentile."""
    reference = jobs_per_pass * MIN_PASSES[workload]
    return max(reference - 10, 1), reference


def tail_value(walls, level):
    num, den = level
    ordered = sorted(walls)
    index = -((-num * len(ordered)) // den) - 1  # nearest rank: ceil(q * N) - 1
    return ordered[min(max(index, 0), len(ordered) - 1)]


class Client:
    """Spawns one child at a time and reaps it with os.wait4."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        OUT.mkdir(exist_ok=True)
        self.stdout = open(OUT / "child.stdout", "w+b")
        self.stderr = open(OUT / "child.stderr", "w+b")

    def close(self):
        self.stdout.close()
        self.stderr.close()

    def run(self, argv):
        """(wall seconds, exit code, ru_maxrss in KiB, stdout, stderr)."""
        for fh in (self.stdout, self.stderr):
            fh.seek(0)
            fh.truncate()
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=self.stdout, stderr=self.stderr, env=self.env, cwd=ROOT
        )
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        self.stdout.seek(0)
        self.stderr.seek(0)
        return wall, proc.returncode, usage.ru_maxrss, self.stdout.read(), self.stderr.read()


class Outcomes:
    """Per-job outputs across passes, checked after the timed passes."""

    def __init__(self, workload, seed, jobs):
        self.workload, self.seed, self.jobs = workload, seed, jobs
        self.first = {}
        self.samples = []  # (job index, ok)
        self.problems = []

    def add(self, k, output, error_text):
        """output is the report bytes, or None when the job failed."""
        job = self.jobs[k]
        if output is None:
            lines = error_text.strip().splitlines()
            if len(lines) != 1 or "Traceback" in error_text:
                self.problems.append(f"{job.id}: failure without a one-line message: {error_text[-300:]!r}")
            self.samples.append((k, False))
            return
        if k not in self.first:
            self.first[k] = output
        elif self.first[k] != output:
            self.problems.append(f"{job.id}: report changed between passes")
        self.samples.append((k, self.first[k] == output))

    def finish(self):
        """Check each job's report once; (attempted, failed, correct)."""
        bad = set()
        for k, output in self.first.items():
            found = check.check(self.workload, self.jobs[k], self.seed, output)
            if found:
                bad.add(k)
                self.problems += found
        failed = sum(1 for k, ok in self.samples if not ok or k in bad)
        return len(self.samples), failed, not self.problems


def cli_run(workload, seed, seconds, jobs, begin):
    deadline = begin + RUN_LIMIT_S
    client = Client(deadline)
    try:
        job_dir = OUT / "jobs" / workload
        job_dir.mkdir(parents=True, exist_ok=True)
        argvs = []
        for job in jobs:
            path = job_dir / f"{job.id}.json"
            path.write_text(json.dumps(job.doc, indent=1) + "\n")
            argvs.append([sys.executable, "-m", "sftact.cli", job.command, "--input", str(path)])

        import_argv = [sys.executable, "-c", "import sftact.cli"]
        client.run(import_argv)  # untimed: lets bytecode caches fill
        setup = []

        def time_setup():
            for _ in range(SETUP_RUNS):
                wall, code, _rss, _out, err = client.run(import_argv)
                if code != 0:
                    raise RuntimeError(f"import sftact.cli failed: {err.decode(errors='replace')}")
                setup.append(wall)

        time_setup()

        outcomes = Outcomes(workload, seed, jobs)
        walls, rss, pass_total = [], 0, 0.0
        start = perf_counter()
        passes, pass_time = 0, 0.0
        while passes < MIN_PASSES[workload] or more_time(start, pass_time, seconds):
            pass_start = perf_counter()
            for k, argv in enumerate(argvs):
                wall, code, maxrss, out, err = client.run(argv)
                walls.append(wall)
                rss = max(rss, maxrss)
                outcomes.add(k, out if code == 0 else None, err.decode(errors="replace"))
            pass_time = perf_counter() - pass_start
            pass_total += pass_time
            passes += 1
            time_setup()
            if perf_counter() + pass_time > deadline:
                break
    finally:
        client.close()

    attempted, failed, correct = outcomes.finish()
    level = tail_level(workload, len(jobs))
    metrics = {
        "jobs_per_s": (attempted / pass_total, "1/s"),
        "job_wall_p50_s": (median(walls), "s"),
        "job_wall_tail_s": (tail_value(walls, level), "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (median(setup), "s"),
    }
    print(f"{workload} seed {seed}: {attempted} jobs in {passes} passes of {len(jobs)}, closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_wall_tail_s":
            note = f"  (p{100 * level[0] / level[1]:.1f} of {len(walls)} samples)"
        print(f"  {name:16s} {value:12.6f} {unit}{note}")
    print(f"  {'failed_share':16s} {failed / attempted:12.6f} share  ({failed} of {attempted})")
    return attempted, failed, correct, outcomes.problems, metrics


def traced_run(workload, seed, seconds, jobs, begin):
    sys.path.insert(0, str(SRC))
    from sftact import cli
    from sftact.errors import SftactError

    texts = [json.dumps(job.doc) for job in jobs]
    outcomes = Outcomes(workload, seed, jobs)

    def one_pass(recorder=None):
        start = perf_counter()
        results = []
        for k, text in enumerate(texts):
            if recorder is not None:
                recorder.job = jobs[k].id
            try:
                results.append((k, cli.emit_report(cli.run_job(cli.parse_job(text))).encode(), ""))
            except SftactError as err:
                results.append((k, None, f"{type(err).__name__}: {err}"))
            except Exception:  # a crash is a failed job, reported with its traceback
                results.append((k, None, traceback.format_exc()))
        elapsed = perf_counter() - start
        for k, output, error in results:
            outcomes.add(k, output, error)
        gc.collect()
        return elapsed

    plain_times, traced_times, recorders = [], [], []
    start = perf_counter()
    while not recorders or more_time(start, plain_times[-1] + traced_times[-1], seconds):
        plain_times.append(one_pass())
        recorder = spans.Recorder()
        with recorder.tracing():
            traced_times.append(one_pass(recorder))
        recorders.append(recorder)
        if perf_counter() - begin + plain_times[-1] + traced_times[-1] > RUN_LIMIT_S:
            break

    metrics = {}
    per_pass = [r.self_times() for r in recorders]
    for module, names in spans.LAYERS.items():
        totals = [sum(t[0] for key, t in pp.items() if key.startswith(module + ".")) for pp in per_pass]
        metrics[f"{module}.self_s"] = (median(totals), "s")
        for name in names:
            label = f"{module}.{name}"
            metrics[f"{label}.self_s"] = (median([pp.get(label, (0.0, 0))[0] for pp in per_pass]), "s")
            calls = [pp.get(label, (0.0, 0))[1] for pp in per_pass]
            metrics[f"{label}.calls"] = (median_low(calls), "count")
    counters = [r.counters for r in recorders]
    cycles = sum(c[spans.QUOTIENT_CYCLES] for c in counters)
    metrics[spans.CYCLES] = (median_low([c[spans.CYCLES] for c in counters]), "count")
    metrics[spans.HOMS] = (median_low([c[spans.HOMS] for c in counters]), "count")
    metrics[spans.ORDER_MAX] = (max(c[spans.ORDER_MAX] for c in counters), "count")
    metrics["quotient.orbit_reps_per_cycle"] = (
        sum(c[spans.QUOTIENT_ORBITS] for c in counters) / cycles if cycles else 0.0,
        "ratio",
    )
    untraced = median(plain_times)
    metrics["trace.overhead_share"] = ((median(traced_times) - untraced) / untraced, "share")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for p, recorder in enumerate(recorders):
            for span in recorder.spans:
                fh.write(json.dumps([p] + span) + "\n")

    attempted, failed, correct = outcomes.finish()
    print(f"{workload} seed {seed}: {len(recorders)} untraced and {len(recorders)} traced in-process passes")
    print(f"  untraced pass {untraced:.6f} s, traced pass {median(traced_times):.6f} s")
    ranked = sorted((v for v in metrics.items() if v[0].endswith(".self_s")), key=lambda kv: -kv[1][0])
    for name, (value, unit) in ranked[:16]:
        print(f"  {name:44s} {value:12.6f} {unit}")
    return attempted, failed, correct, outcomes.problems, metrics


def main(argv=None) -> int:
    begin = perf_counter()
    parser = argparse.ArgumentParser(description="job-corpus benchmark of the sftact CLI")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sftact" / "cli.py").is_file():
        print(f"error: {SRC / 'sftact' / 'cli.py'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    jobs = corpus.build(args.workload, args.seed)
    run = traced_run if args.trace else cli_run
    attempted, failed, correct, problems, metrics = run(args.workload, args.seed, args.seconds, jobs, begin)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

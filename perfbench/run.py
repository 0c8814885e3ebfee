"""Pipeline benchmark: time the vcs-effort CLI on seeded inputs and check every result.

Run from the root of a vcseffort checkout:

    python3 perfbench/run.py --workload estimate-sweep --seed 1 --seconds 20 --trace 0

The workloads, their rationale and every metric with its unit are declared in
BENCHMARK.json. A run generates the workload's inputs from the seed, then
runs CLI jobs as a closed loop: one child process at a time, started only
after the previous one exits, until ``--seconds`` have passed (at least
MIN_JOBS jobs). Each job's outputs are checked against the workload's oracle
and against the first job's bytes, outside the timed region.

The box this runs on is shared, and its speed swings by up to 2x in phases
that last tens of seconds, longer than a run. So a short stdlib-only
reference program runs before and after every job, and each job's times are
divided by the mean of the two reference times and multiplied by
REFERENCE_S: the end-to-end times are seconds at the speed at which the
reference takes REFERENCE_S. The raw medians are printed alongside.

With ``--trace 0`` the run reports the end-to-end metrics of untraced jobs.
With ``--trace 1`` it spends half the time on untraced jobs and half on jobs
run under ``tracer.py``, and reports the per-layer metrics of the traced job
with the median wall time, so that its layer times add up to its wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, Plan

BENCH_DIR = Path(__file__).resolve().parent
MIN_JOBS = 3
SETUP_RUNS = 11  # `--version` runs per benchmark run, after one warm-up
JOB_TIMEOUT_S = 60
WORK_DIR = ".perfbench_work"

# Dict updates on string keys, integer arithmetic and Fraction sums: the
# operations the CLI spends its time on, without importing vcseffort.
REFERENCE_PROGRAM = """
from fractions import Fraction
table = {}
total = Fraction(0)
for i in range(120000):
    key = str(i % 977)
    table[key] = table.get(key, 0) + i
    if i % 8 == 0:
        total += Fraction(i % 13, 7)
"""
# The reference program's wall time on an uncontended core of a 2-core
# x86-64 box with Python 3.11.
REFERENCE_S = 0.125
VERSION_ARGV = [sys.executable, "-m", "vcseffort.cli", "--version"]


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    digest: str
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    slowdown: float = 1.0  # mean adjacent reference time / REFERENCE_S

    @property
    def scaled_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def scaled_cpu(self) -> float:
        return self.cpu / self.slowdown


def spawn(argv: list[str], cwd: Path, env: dict, stdout, stderr) -> tuple[float, int, object]:
    """Run one child to completion; returns (wall seconds, exit code, its own rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give the
        # running maximum over every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def digest_outputs(stdout: bytes, out_dir: Path) -> str:
    hasher = hashlib.sha256(stdout)
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(out_dir)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


class Bench:
    """Runs jobs of one workload plan in a work directory and checks each."""

    def __init__(self, plan: Plan, work: Path, env: dict) -> None:
        self.plan = plan
        self.work = work
        self.env = env
        self.first_digest: str | None = None

    def job(self, traced: bool) -> Job:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *self.plan.argv]
        else:
            argv = [sys.executable, "-m", "vcseffort.cli", *self.plan.argv]
        stdout_path, stderr_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            wall, code, usage = spawn(argv, self.work, self.env, stdout, stderr)
        job = Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, "")

        stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            job.problems.append(f"exit code {code}: {stderr_text.strip()[-300:]}")
        if "Traceback (most recent call last)" in stderr_text:
            job.problems.append("traceback on stderr")
        try:
            job.problems += self.plan.check(out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            job.problems.append(f"outputs not in the expected shape: {exc!r}")
        job.digest = digest_outputs(stdout_path.read_bytes(), out)
        if self.first_digest is None:
            self.first_digest = job.digest
        elif job.digest != self.first_digest:
            job.problems.append("output bytes differ from the first job of this run")
        if traced and spans.is_file():
            job.trace = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        elif traced:
            job.problems.append("traced job wrote no spans")
        return job

    def timed(self, argv: list[str]) -> float:
        wall, code, _ = spawn(argv, self.work, self.env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} exited with {code}")
        return wall

    def reference(self) -> float:
        return self.timed([sys.executable, "-c", REFERENCE_PROGRAM])

    def loop(self, seconds: float, traced: bool) -> list[Job]:
        """Closed loop: the next job starts when the previous one has exited."""
        jobs: list[Job] = []
        before = self.reference()
        deadline = time.perf_counter() + seconds
        while len(jobs) < MIN_JOBS or time.perf_counter() < deadline:
            job = self.job(traced)
            after = self.reference()
            job.slowdown = (before + after) / 2 / REFERENCE_S
            jobs.append(job)
            before = after
        return jobs

    def setup_times(self) -> list[float]:
        """Scaled wall time of `vcs-effort --version`: interpreter start, imports, build_parser."""
        times = []
        before = self.reference()
        for _ in range(SETUP_RUNS):
            wall = self.timed(VERSION_ARGV)
            after = self.reference()
            times.append(wall / ((before + after) / 2 / REFERENCE_S))
            before = after
        return times


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has >= 10 samples beyond it at n={n}"
    rank = n - 10
    return f"p{100 * rank // n} {sorted(samples)[rank - 1]:.4f}"


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip()


def end_to_end(jobs: list[Job], setup: list[float], commit_lines: int) -> dict[str, float]:
    wall = statistics.median(job.scaled_wall for job in jobs)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(job.scaled_cpu for job in jobs),
        "commits_per_s": commit_lines / wall,
        "peak_rss_mb": statistics.median(job.rss_mb for job in jobs),
        "setup_s": statistics.median(setup),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, root: Path, work: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    plan = WORKLOADS[args.workload](args.seed, work)
    bench = Bench(plan, work, env)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"env python={platform.python_version()} nproc={nproc} git={git_revision(root)} "
        f"seed={args.seed} workload={args.workload} trace={args.trace}"
    )
    print(f"input {plan.commit_lines} commit lines")
    bench.timed(VERSION_ARGV)  # warm-up: writes the bytecode caches before any timing

    if args.trace:
        untraced = bench.loop(args.seconds / 2, traced=False)
        traced = bench.loop(args.seconds / 2, traced=True)
        jobs = untraced + traced
        median_job = sorted(traced, key=lambda job: job.scaled_wall)[(len(traced) - 1) // 2]
        overhead = statistics.median(job.scaled_wall for job in traced) / statistics.median(
            job.scaled_wall for job in untraced
        )
        values = layer_metrics(median_job.trace or {"spans": [], "counts": {}}, median_job.wall, overhead)
        declared = spec["per_layer"]
        print(f"per-layer metrics of the median of {len(traced)} traced jobs, in raw seconds; "
              f"{len(untraced)} untraced jobs")
        for error in (median_job.trace or {}).get("count_errors", []):
            print(f"count skipped: {error}")
    else:
        jobs = bench.loop(args.seconds, traced=False)
        setup = bench.setup_times()
        values = end_to_end(jobs, setup, plan.commit_lines)
        declared = spec["end_to_end"]
        walls = [job.scaled_wall for job in jobs]
        print(f"wall_s over {len(jobs)} jobs: {tail_percentile(walls)}; setup_s over {len(setup)} runs")
        print(
            f"raw medians: wall {statistics.median(job.wall for job in jobs):.4f} s, "
            f"cpu {statistics.median(job.cpu for job in jobs):.4f} s, "
            f"slowdown {statistics.median(job.slowdown for job in jobs):.3f}"
        )

    failed = [job for job in jobs if job.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {len(failed) / len(jobs):.6g} ({len(failed)} failed of {len(jobs)} attempted)")
    for job in failed[:3]:
        for problem in job.problems[:5]:
            print(f"failure: {problem}")
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }


def _terminate(signum: int, frame: object) -> None:
    sys.exit(128 + signum)  # unwinds, so the running child is killed and the work dir removed


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "vcseffort" / "cli.py").is_file():
        print("error: no src/vcseffort here; run from the root of a vcseffort checkout", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

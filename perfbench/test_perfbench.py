"""Fast checks of the benchmark itself: generators, oracles and tracer arithmetic."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import tail_percentile
from tracer import Tracer, layer_metrics, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=cwd, env=CHILD_ENV, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    written = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / label).mkdir()
        workloads.WORKLOADS[name](seed, tmp_path / label, "tiny")
        written[label] = {path.name: path.read_bytes() for path in (tmp_path / label).iterdir()}
    assert written["a"] == written["b"]
    assert written["a"] != written["c"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_agrees_with_cli_on_tiny_instance(name, tmp_path):
    plan = workloads.WORKLOADS[name](5, tmp_path, "tiny")
    result = run_cli([sys.executable, "-m", "vcseffort.cli", *plan.argv], tmp_path)
    assert result.returncode == 0, result.stderr
    assert plan.check(tmp_path / "out") == []

    # The oracle is not vacuous: one miscounted line is reported.
    run_json = tmp_path / "out" / "run.json"
    record = json.loads(run_json.read_text(encoding="utf-8"))
    record["ingest"]["parsed"] += 1
    run_json.write_text(json.dumps(record), encoding="utf-8")
    assert plan.check(tmp_path / "out") != []


def test_tracer_follows_the_call_graph(tmp_path):
    plan = workloads.estimate_sweep(5, tmp_path, "tiny")
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *plan.argv]
    result = run_cli(argv, tmp_path)
    assert result.returncode == 0, result.stderr
    assert plan.check(tmp_path / "out") == []

    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = trace["spans"]
    callers = {
        spans[parent][0] if parent >= 0 else "cli"
        for name, _, _, parent in spans
        if name == "vcseffort.effort.project_effort"
    }
    # Called from cli's namespace, and through effort's own globals.
    assert callers == {
        "cli",
        "vcseffort.effort.error_table",
        "vcseffort.effort.reports_for_thetas",
    }
    thetas = workloads.SWEEP_THETA_MAX
    assert trace["counts"]["effort.project_calls"] == 2 * thetas + 2
    assert trace["count_errors"] == []


def test_self_time_on_a_nested_fake_call():
    # error_table [0, 10] calls project_effort [1, 3], which calls aggregate
    # [1.5, 2], then calls project_effort again [4, 6].
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "vcseffort.activity.aggregate")
    inner = tracer.wrap(lambda: leaf(), "vcseffort.effort.project_effort")
    second = tracer.wrap(lambda: None, "vcseffort.effort.project_effort")
    outer = tracer.wrap(lambda: (inner(), second()), "vcseffort.effort.error_table")
    outer()
    assert [span[1:] for span in tracer.spans] == [
        [0.0, 10.0, -1], [1.0, 3.0, 0], [1.5, 2.0, 1], [4.0, 6.0, 0],
    ]
    assert self_times(tracer.spans) == [6.0, 1.5, 0.5, 2.0]

    metrics = layer_metrics(tracer.dump(), wall=12.0, overhead_ratio=1.5)
    assert metrics["effort.error_table_s"] == 6.0
    assert metrics["effort.project_s"] == 3.5
    assert metrics["activity.aggregate_s"] == 0.5
    assert metrics["cli.self_s"] == 2.0
    assert metrics["trace.overhead_ratio"] == 1.5


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 10).startswith("no percentile")
    assert tail_percentile([float(i) for i in range(20)]) == "p50 9.0000"


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""

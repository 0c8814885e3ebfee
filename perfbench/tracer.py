"""Per-layer spans for one CLI job, recorded by wrapping vcseffort's layer functions.

Run as a script, this is a drop-in for ``python -m vcseffort.cli``:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json estimate --log ...

It wraps the layer functions of ``_make_layer_functions`` wherever the package
binds them (the defining module, ``vcseffort.cli``, which imports the names
directly, and any other module that imported them), runs the CLI's ``main``,
and writes the spans and work counts to SPANS.json. A function that no
longer exists is skipped, so its metric reads zero calls instead of failing.

Per-cell helpers such as ``developer_effort`` and ``confusion_at`` are left
unwrapped: they run millions of times per job, and a wrapper around each
call would dominate the traced time. Their cost lands in the self time of
the layer function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable

CountHook = Callable[[Counter, tuple, object], None]


def _len(value: object) -> int:
    return len(value) if hasattr(value, "__len__") else 0


class _CellCounter:
    """Non-zero cells of an activity matrix, counted once per matrix object."""

    def __init__(self) -> None:
        self._matrix = None
        self._cells = 0

    def __call__(self, matrix: object) -> int:
        if matrix is not self._matrix:
            self._matrix = matrix
            self._cells = sum(len(row) for row in matrix.counts.values())
        return self._cells


def _count_parse(counts: Counter, args: tuple, result: object) -> None:
    records, malformed = len(result.records), len(result.malformed)
    counts["ingest.records"] += records
    counts["ingest.malformed"] += malformed
    counts["ingest.lines"] += records + malformed


def _count_filter(counts: Counter, args: tuple, result: object) -> None:
    counts["ingest.filter_in"] += _len(args[0])
    counts["ingest.filter_kept"] += len(result[0])


def _count_identity(counts: Counter, args: tuple, result: object) -> None:
    roster = result[1]
    counts["identity.commits"] += _len(args[0])
    counts["identity.pairs"] += sum(len(developer.aliases) for developer in roster)
    counts["identity.developers"] += len(roster)


def _count_triangulate(counts: Counter, args: tuple, result: object) -> None:
    counts["survey.labels"] += len(result[0])
    counts["survey.exclusions"] += len(result[1])


def _count_sweep(counts: Counter, args: tuple, result: object) -> None:
    counts["calibration.thetas"] += len(result)
    counts["calibration.label_evals"] += len(result) * _len(args[1])


def _make_layer_functions() -> dict[str, dict[str, tuple[str, CountHook | None]]]:
    cells = _CellCounter()

    def count_aggregate(counts: Counter, args: tuple, matrix: object) -> None:
        counts["activity.cells"] += cells(matrix)
        counts["activity.periods"] += len(matrix.period_labels)
        counts["activity.overflow"] += matrix.overflow_commits

    def count_project(counts: Counter, args: tuple, result: object) -> None:
        counts["effort.project_calls"] += 1
        counts["effort.cell_evals"] += cells(args[0])

    return {
        "vcseffort.ingest": {
            "parse_log_file": ("ingest.parse_s", None),
            "parse_log_stream": ("ingest.parse_s", _count_parse),
            "read_repository_log": ("ingest.parse_s", None),
            "apply_filters": ("ingest.filter_s", _count_filter),
        },
        "vcseffort.identity": {
            "load_alias_map": ("identity.resolve_s", None),
            "resolve_identities": ("identity.resolve_s", _count_identity),
        },
        "vcseffort.activity": {
            "aggregate": ("activity.aggregate_s", count_aggregate),
            "activity_in_window": ("activity.window_s", None),
        },
        "vcseffort.survey": {
            "load_survey": ("survey.load_s", None),
            "triangulate": ("survey.triangulate_s", _count_triangulate),
        },
        "vcseffort.calibration": {
            "sweep": ("calibration.sweep_s", _count_sweep),
            "select_theta": ("calibration.select_s", None),
        },
        "vcseffort.effort": {
            "project_effort": ("effort.project_s", count_project),
            "reports_for_thetas": ("effort.project_s", None),
            "error_table": ("effort.error_table_s", None),
            "render_json": ("effort.render_s", None),
            "render_csv": ("effort.render_s", None),
            "render_markdown": ("effort.render_s", None),
        },
    }


class Tracer:
    """In-memory spans: [name, start, end, parent index], plus summed work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.count_errors: list[str] = []
        self._stack: list[int] = []

    def wrap(self, function: Callable, name: str, counter: CountHook | None = None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # The function's shape changed; keep timing it, report the count gap.
                    self.count_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded vcseffort module that binds it."""
        for module_name, functions in _make_layer_functions().items():
            module = importlib.import_module(module_name)
            for function_name, (_, counter) in functions.items():
                original = getattr(module, function_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(original, f"{module_name}.{function_name}", counter)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("vcseffort"):
                        for attr, value in list(vars(loaded).items()):
                            if value is original:
                                setattr(loaded, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "count_errors": self.count_errors}


METRIC_OF = {
    f"{module_name}.{function_name}": metric
    for module_name, functions in _make_layer_functions().items()
    for function_name, (metric, _) in functions.items()
}
TIME_METRICS = tuple(dict.fromkeys(METRIC_OF.values()))
COUNT_METRICS = (
    "ingest.lines", "ingest.records", "ingest.malformed", "identity.pairs",
    "identity.developers", "activity.cells", "activity.periods", "activity.overflow",
    "survey.labels", "survey.exclusions", "calibration.thetas", "calibration.label_evals",
    "effort.project_calls", "effort.cell_evals",
)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(trace: dict, wall: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced job whose child ran for ``wall`` seconds."""
    spans = trace["spans"]
    times = {metric: 0.0 for metric in TIME_METRICS}
    for span, own in zip(spans, self_times(spans)):
        times[METRIC_OF[span[0]]] += own
    counts = trace["counts"]
    metrics: dict[str, float] = dict(times)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["ingest.kept_ratio"] = _ratio(counts, "ingest.filter_kept", "ingest.filter_in")
    metrics["identity.commits_per_pair"] = _ratio(counts, "identity.commits", "identity.pairs")
    # Start-up, config, output writing and prints: whatever no layer span covers.
    metrics["cli.self_s"] = wall - sum(times.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def _ratio(counts: dict, numerator: str, denominator: str) -> float:
    base = counts.get(denominator, 0)
    return counts.get(numerator, 0) / base if base else 0.0


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # Imported here: run.py imports this module before it has checked that
    # the checkout holds the package.
    from vcseffort import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

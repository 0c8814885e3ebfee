"""Shared fixtures: a frozen eight-developer reference population and its expected outputs.

The reference population (in ``golden.py``) pairs each developer's survey label with a
one-month activity count. Every expected value below was recomputed by hand from the
definitions, so regressions in the sweep, selection, or effort math surface
as exact mismatches.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from golden import REFERENCE_ACTIVITIES, REFERENCE_FULL_TIME, write_reference_inputs
from vcseffort.activity import ActivityMatrix
from vcseffort.ingest import FilterConfig, apply_filters
from vcseffort.survey import LABEL_FULL, LABEL_NON_FULL, PROVENANCE_SELF, SurveyLabel

# Sweep over thresholds 1..13, rendered/frozen column by column.
EXPECTED_GOODNESS = [
    "0.50", "0.50", "0.50", "0.57", "0.57", "0.67", "0.67", "0.67",
    "0.80", "0.80", "0.80", "0.50", "0.25",
]
EXPECTED_TP = [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2, 2, 1]
EXPECTED_FP = [4, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0]
EXPECTED_FN = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 3]
EXPECTED_TN = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4]

# Total effort for a one-month period at each threshold 1..13, and its
# percent deviation from the effort at the selected threshold (10).
EXPECTED_EFFORT = [
    "8.00", "8.00", "8.00", "7.75", "7.60", "7.33", "7.14", "7.00",
    "6.78", "6.60", "6.27", "5.92", "5.54",
]
EXPECTED_ERROR = [
    "+21.21%", "+21.21%", "+21.21%", "+17.42%", "+15.15%", "+11.11%",
    "+8.23%", "+6.06%", "+2.69%", "--", "-4.96%", "-10.35%", "-16.08%",
]

SELECTED_THETA = 10
ARGMAX_RANGE = (9, 11)

REFERENCE_PERIOD_LABEL = "2013-01-01"


def timelines(commits) -> dict[tuple[str, str], list[int]]:
    """Unfiltered timelines, ``{(name, email): sorted timestamps}``, of a commit list."""
    return apply_filters(commits, FilterConfig())[0]


def line_events(module, run) -> int:
    """Line events in ``module``'s frames while ``run()`` executes.

    Cost-growth guards compare these counts at two input sizes: unlike times,
    they do not depend on the machine's load.
    """
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename == module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return events


def reference_labels() -> list[SurveyLabel]:
    return [
        SurveyLabel(
            developer_id,
            LABEL_FULL if developer_id in REFERENCE_FULL_TIME else LABEL_NON_FULL,
            PROVENANCE_SELF,
            True,
        )
        for developer_id in REFERENCE_ACTIVITIES
    ]


@pytest.fixture
def ref_counts() -> dict[str, int]:
    return dict(REFERENCE_ACTIVITIES)


@pytest.fixture
def ref_labels() -> list[SurveyLabel]:
    return reference_labels()


@pytest.fixture
def ref_matrix() -> ActivityMatrix:
    return ActivityMatrix(
        metric="commits",
        period_months=1,
        period_labels=[REFERENCE_PERIOD_LABEL],
        counts={
            developer_id: {REFERENCE_PERIOD_LABEL: count}
            for developer_id, count in REFERENCE_ACTIVITIES.items()
        },
    )


@pytest.fixture(scope="session")
def reference_inputs(tmp_path_factory) -> dict[str, Path]:
    return write_reference_inputs(tmp_path_factory.mktemp("reference"))


ACCEPTANCE_CRITERIA = {
    "test_c1_goodness_sweep": "threshold sweep reproduces the reference goodness column",
    "test_c2_effort_table": "effort totals match the reference table at all thresholds",
    "test_c3_error_column": "percent deviations from the selected threshold match",
    "test_c4_goodness_vs_f": "goodness rewards compensating errors where F does not",
    "test_c5_ks_oracle": "KS statistic matches an independent ECDF oracle, p monotone",
    "test_c6_triangulation": "survey triangulation follows the rule table with full accounting",
    "test_c7_cli_pipeline": "CLI calibrate/estimate reproduce the reference summary lines",
    "test_c8_determinism": "repeated runs produce byte-identical outputs",
    "test_c9_scale_and_recovery": "planted thresholds recovered; 500K-record ingest under 60s",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.rsplit("::", 1)[-1]
            if name not in ACCEPTANCE_CRITERIA:
                continue
            if getattr(report, "when", "call") in ("call", "setup"):
                current = outcomes.get(name)
                outcome = "PASS" if status == "passed" else "FAIL"
                if current != "FAIL":
                    outcomes[name] = outcome
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, description in ACCEPTANCE_CRITERIA.items():
        if name in outcomes:
            terminalreporter.write_line(f"{outcomes[name]} {name}: {description}")

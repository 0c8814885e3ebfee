"""Person-month effort from activity matrices, with full-time saturation.

A developer active at or above the full-time threshold in a period contributes
the whole period length in person-months; below it, the contribution scales
linearly with activity. All arithmetic is exact (rationals); rounding happens
only at rendering, to two decimals with ties to even.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .activity import ActivityMatrix
from .errors import ParameterError


def _check_parameters(theta: int, period_months: int) -> None:
    if theta < 1:
        raise ParameterError(f"theta must be >= 1, got {theta}")
    if period_months < 1:
        raise ParameterError(f"period length must be >= 1, got {period_months}")


def developer_effort(activity: int, theta: int, period_months: int) -> Fraction:
    """Effort in person-months for one developer in one period."""
    _check_parameters(theta, period_months)
    if activity < 0:
        raise ParameterError(f"activity must be >= 0, got {activity}")
    if activity >= theta:
        return Fraction(period_months)
    return Fraction(period_months) * Fraction(activity, theta)


class EffortReport(NamedTuple):
    theta: int
    period_months: int
    per_period: dict[str, Fraction]  # keyed by period label, chronological
    total: Fraction
    upper_bound: Fraction


def upper_bound(matrix: ActivityMatrix) -> Fraction:
    """Effort ceiling: every active developer-period counts as fully dedicated.

    Equals the estimate at theta = 1, since any activity then saturates, and
    raises ParameterError on the same matrices as ``project_effort``.
    """
    return project_effort(matrix, 1).upper_bound


class _EffortCurve(NamedTuple):
    """Every period's non-zero counts in ascending order, for effort at any theta.

    ``prefix[label][k]`` sums the ``k`` smallest counts of ``counts[label]``;
    ``active`` is the number of non-zero cells. ``counts`` is named as in
    ActivityMatrix because perfbench/tracer.py sizes every ``project_effort``
    call by ``args[0].counts``.
    """

    period_months: int
    counts: dict[str, list[int]]
    prefix: dict[str, list[int]]
    active: int


def _effort_curve(matrix: ActivityMatrix) -> _EffortCurve:
    """One pass over the matrix's cells, then one sort per period.

    A zero cell is skipped wherever it sits; a non-zero one under a label
    missing from ``period_labels`` raises KeyError.
    """
    counts: dict[str, list[int]] = {label: [] for label in matrix.period_labels}
    for row in matrix.counts.values():
        for label, count in row.items():
            if count < 1:
                if count:
                    raise ParameterError(f"activity must be >= 0, got {count}")
            else:
                counts[label].append(count)
    prefix = {}
    for label, cells in counts.items():
        cells.sort()
        prefix[label] = list(accumulate(cells, initial=0))
    return _EffortCurve(matrix.period_months, counts, prefix, sum(map(len, counts.values())))


def project_effort(matrix: ActivityMatrix | _EffortCurve, theta: int) -> EffortReport:
    """Sum developer efforts per period and overall. An empty matrix yields zero.

    Each period's effort is ``months * weight / theta``, where the integer
    weight sums ``min(count, theta)`` over its cells: the same exact rational
    as summing ``developer_effort`` cell by cell, with one Fraction per period.
    From the period's sorted counts, the weight is the sum of the ``k`` counts
    below theta plus ``theta`` for each of the rest. The upper bound is the
    period length times the active cells.
    """
    months = matrix.period_months
    _check_parameters(theta, months)
    curve = matrix if isinstance(matrix, _EffortCurve) else _effort_curve(matrix)
    weights = {}
    for label, cells in curve.counts.items():
        below = bisect_left(cells, theta)
        weights[label] = curve.prefix[label][below] + theta * (len(cells) - below)
    per_period = {label: Fraction(months * weight, theta) for label, weight in weights.items()}
    total = Fraction(months * sum(weights.values()), theta)
    return EffortReport(theta, months, per_period, total, Fraction(months * curve.active))


def error_table(
    matrix: ActivityMatrix, selected_theta: int, thetas: Sequence[int]
) -> dict[int, Fraction]:
    """Percent deviation of total effort at each theta from the selected theta's total."""
    # The baseline comes first, so its parameter and cell errors win over the table's.
    baseline = project_effort(matrix, selected_theta).total
    if baseline == 0:
        raise ParameterError("error table undefined: zero total effort at the selected theta")
    curve = _effort_curve(matrix)
    table: dict[int, Fraction] = {}
    for theta in thetas:
        total = project_effort(curve, theta).total
        table[theta] = (total - baseline) / baseline * 100
    return table


def render_quantity(value: Fraction) -> str:
    """Exact two-decimal rendering with ties to even (1.005 -> '1.00', 1.015 -> '1.02')."""
    value = Fraction(value)
    denominator = value.denominator
    # Floor division leaves 0 <= rest < denominator, for either sign.
    cents, rest = divmod(value.numerator * 100, denominator)
    twice = 2 * rest
    if twice > denominator or (twice == denominator and cents & 1):
        cents += 1
    sign = "-" if cents < 0 else ""
    whole, part = divmod(abs(cents), 100)
    return f"{sign}{whole}.{part:02d}"


def render_percent(value: Fraction) -> str:
    """Signed two-decimal percentage, e.g. '+21.21%' or '-4.96%'."""
    rendered = render_quantity(value)
    if not rendered.startswith("-"):
        rendered = "+" + rendered
    return rendered + "%"


def _error_cell(errors: Mapping[int, Fraction] | None, theta: int, selected: int) -> str:
    if theta == selected:
        return "--"
    if errors is None or theta not in errors:
        return ""
    return render_percent(errors[theta])


def reports_for_thetas(matrix: ActivityMatrix, thetas: Sequence[int]) -> list[EffortReport]:
    if not thetas:
        return []
    # The first theta is checked before the cells, as project_effort(matrix, theta) would.
    _check_parameters(thetas[0], matrix.period_months)
    curve = _effort_curve(matrix)
    return [project_effort(curve, theta) for theta in thetas]


def render_markdown(
    reports: Sequence[EffortReport],
    selected_theta: int,
    errors: Mapping[int, Fraction] | None = None,
) -> str:
    """Markdown table: one row per threshold, with per-period columns and the error column."""
    if not reports:
        return ""
    labels = list(reports[0].per_period)
    header = ["theta", "total_pm", *labels, "error_vs_selected"]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for report in reports:
        cells = [
            str(report.theta),
            render_quantity(report.total),
            *(render_quantity(report.per_period[label]) for label in labels),
            _error_cell(errors, report.theta, selected_theta),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(f"Upper bound: {render_quantity(reports[0].upper_bound)} PM")
    return "\n".join(lines) + "\n"


def render_csv(
    reports: Sequence[EffortReport],
    selected_theta: int,
    errors: Mapping[int, Fraction] | None = None,
) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    labels = list(reports[0].per_period) if reports else []
    writer.writerow(["theta", "total_pm", *labels, "error_vs_selected"])
    for report in reports:
        writer.writerow(
            [
                report.theta,
                render_quantity(report.total),
                *(render_quantity(report.per_period[label]) for label in labels),
                _error_cell(errors, report.theta, selected_theta),
            ]
        )
    return buffer.getvalue()


def report_payload(
    reports: Sequence[EffortReport],
    selected_theta: int,
    errors: Mapping[int, Fraction] | None = None,
) -> dict:
    """JSON-ready structure; quantities appear as exact two-decimal strings."""
    rows = []
    for report in reports:
        rows.append(
            {
                "theta": report.theta,
                "total_pm": render_quantity(report.total),
                "per_period_pm": {
                    label: render_quantity(value)
                    for label, value in report.per_period.items()
                },
                "error_vs_selected": _error_cell(errors, report.theta, selected_theta),
            }
        )
    payload = {
        "selected_theta": selected_theta,
        "period_months": reports[0].period_months if reports else None,
        "upper_bound_pm": render_quantity(reports[0].upper_bound) if reports else "0.00",
        "thresholds": rows,
    }
    return payload


def render_json(
    reports: Sequence[EffortReport],
    selected_theta: int,
    errors: Mapping[int, Fraction] | None = None,
) -> str:
    return json.dumps(report_payload(reports, selected_theta, errors), indent=2, sort_keys=True) + "\n"

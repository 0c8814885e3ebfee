"""Effort arithmetic: saturation, exact rationals, rendering, and report emitters."""

from __future__ import annotations

import csv
import io
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import reference_model
from conftest import (
    EXPECTED_EFFORT,
    EXPECTED_ERROR,
    REFERENCE_PERIOD_LABEL,
    SELECTED_THETA,
    line_events,
)
from vcseffort import effort
from vcseffort.activity import ActivityMatrix
from vcseffort.effort import (
    developer_effort,
    error_table,
    project_effort,
    render_csv,
    render_json,
    render_markdown,
    render_percent,
    render_quantity,
    reports_for_thetas,
    upper_bound,
)
from vcseffort.errors import ParameterError


def matrix_from(counts: dict[str, dict[str, int]], months: int = 6) -> ActivityMatrix:
    labels: list[str] = []
    for row in counts.values():
        for label in row:
            if label not in labels:
                labels.append(label)
    return ActivityMatrix("commits", months, sorted(labels), counts)


def test_saturation_at_and_above_threshold():
    assert developer_effort(10, 10, 6) == 6
    assert developer_effort(25, 10, 6) == 6
    assert developer_effort(9, 10, 6) == Fraction(54, 10)
    assert developer_effort(0, 10, 6) == 0
    assert developer_effort(1, 3, 1) == Fraction(1, 3)


def test_developer_effort_parameter_errors():
    with pytest.raises(ParameterError):
        developer_effort(5, 0, 6)
    with pytest.raises(ParameterError):
        developer_effort(-1, 3, 6)
    with pytest.raises(ParameterError):
        developer_effort(5, 3, 0)


def test_effort_is_exact_rational():
    matrix = matrix_from({f"d{i}": {"p": 1} for i in range(3)}, months=1)
    report = project_effort(matrix, 3)
    assert report.total == 1  # three developers at a third each, exactly
    assert isinstance(report.total, Fraction)


def test_reference_effort_column(ref_matrix):
    reports = reports_for_thetas(ref_matrix, range(1, 14))
    assert [render_quantity(r.total) for r in reports] == EXPECTED_EFFORT
    assert render_quantity(reports[0].upper_bound) == "8.00"
    for report in reports:
        assert report.per_period[REFERENCE_PERIOD_LABEL] == report.total


def test_reference_error_column(ref_matrix):
    errors = error_table(ref_matrix, SELECTED_THETA, range(1, 14))
    rendered = [
        "--" if theta == SELECTED_THETA else render_percent(errors[theta])
        for theta in range(1, 14)
    ]
    assert rendered == EXPECTED_ERROR


def test_upper_bound_equals_effort_at_theta_one():
    rng = random.Random(8080)
    for _ in range(50):
        counts = {
            f"d{i}": {
                f"p{j}": rng.randrange(0, 40)
                for j in range(rng.randrange(1, 4))
            }
            for i in range(rng.randrange(1, 10))
        }
        months = rng.choice([1, 6, 12])
        matrix = matrix_from(counts, months)
        assert upper_bound(matrix) == project_effort(matrix, 1).total
        assert upper_bound(matrix) == reference_model.effort(counts, [], months, 1)[4]


def test_effort_monotone_and_bounded():
    rng = random.Random(9090)
    for _ in range(50):
        counts = {
            f"d{i}": {"p": rng.randrange(0, 30)} for i in range(rng.randrange(1, 12))
        }
        matrix = matrix_from(counts, rng.choice([1, 6]))
        totals = [project_effort(matrix, theta).total for theta in range(1, 35)]
        bound = upper_bound(matrix)
        assert all(total <= bound for total in totals)
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert all(total >= 0 for total in totals)


def test_empty_matrix_is_zero():
    matrix = ActivityMatrix("commits", 6, [], {})
    report = project_effort(matrix, 10)
    assert report.total == 0
    assert report.upper_bound == 0
    assert report.per_period == {}


def test_project_effort_matches_per_cell_oracle():
    rng = random.Random(4242)
    for _ in range(80):
        theta = rng.randrange(1, 12)
        labels = [f"p{j}" for j in range(rng.randrange(1, 6))]
        counts = {}
        for i in range(rng.randrange(0, 10)):
            # Some periods stay empty; counts cluster around theta so ties occur.
            row = {
                label: rng.choice([1, theta - 1, theta, theta + 1, rng.randrange(1, 3 * theta + 2)])
                for label in rng.sample(labels, rng.randrange(0, len(labels) + 1))
            }
            counts[f"d{i}"] = {label: count for label, count in row.items() if count >= 1}
        months = rng.choice([1, 3, 4, 6, 12])
        matrix = ActivityMatrix("commits", months, labels, counts)

        report = project_effort(matrix, theta)
        assert report == reference_model.effort(counts, labels, months, theta)
        assert list(report.per_period) == labels


def test_project_effort_counts_zero_cells_empty_rows_and_unused_labels():
    rng = random.Random(5151)
    for _ in range(120):
        theta = rng.randrange(1, 12)
        months = rng.choice([1, 3, 6, 12])
        labels = [f"p{j}" for j in range(rng.randrange(1, 7))]
        counts: dict[str, dict[str, int]] = {}
        for i in range(rng.randrange(0, 10)):
            # Zero cells, empty rows and labels no row holds all occur.
            counts[f"d{i}"] = {
                label: rng.choice([0, 0, 1, theta - 1, theta, theta + 1, rng.randrange(0, 3 * theta)])
                for label in rng.sample(labels, rng.randrange(0, len(labels) + 1))
            }
        matrix = ActivityMatrix("commits", months, labels, counts)

        report = project_effort(matrix, theta)
        assert report == reference_model.effort(counts, labels, months, theta)
        assert upper_bound(matrix) == report.upper_bound

        cells = [(dev, label) for dev, row in counts.items() for label in row]
        if cells:
            # The last cell goes negative, after every other cell is set to zero.
            dev, label = cells[-1]
            negative = -rng.randrange(1, 50)
            zeroed = {other: dict.fromkeys(row, 0) for other, row in counts.items()}
            zeroed[dev][label] = negative
            with pytest.raises(ParameterError, match=f"^activity must be >= 0, got {negative}$"):
                project_effort(ActivityMatrix("commits", months, labels, zeroed), theta)


def test_reports_and_error_table_match_per_cell_oracle():
    rng = random.Random(7373)
    for _ in range(100):
        months = rng.choice([1, 3, 6, 12])
        labels = [f"p{j}" for j in range(rng.randrange(1, 6))]
        pool = [rng.randrange(1, 25) for _ in range(4)]  # repeats within and across periods
        counts: dict[str, dict[str, int]] = {}
        for i in range(rng.randrange(0, 12)):
            # Zero cells, empty rows, unused labels and zeros under a label no period has.
            row = {
                label: rng.choice([0, 0, 1, *pool, rng.randrange(0, 30)])
                for label in rng.sample(labels, rng.randrange(0, len(labels) + 1))
            }
            if rng.random() < 0.1:
                row["elsewhere"] = 0
            counts[f"d{i}"] = row
        matrix = ActivityMatrix("commits", months, labels, counts)
        max_count = max((c for row in counts.values() for c in row.values()), default=0)
        thetas = range(1, max_count + 3)  # every count is some theta; the last two exceed all

        reports = reports_for_thetas(matrix, thetas)
        assert reports == [reference_model.effort(counts, labels, months, t) for t in thetas]
        assert all(list(report.per_period) == labels for report in reports)

        selected = rng.choice(thetas)
        baseline = reports[selected - 1].total
        if baseline == 0:
            with pytest.raises(ParameterError, match="zero total effort"):
                error_table(matrix, selected, thetas)
            continue
        assert list(error_table(matrix, selected, thetas).items()) == [
            (report.theta, (report.total - baseline) / baseline * 100) for report in reports
        ]


def test_table_functions_raise_theta_then_period_then_first_negative():
    def bad(months: int) -> ActivityMatrix:
        return ActivityMatrix("commits", months, ["p", "q"], {"a": {"p": 2, "q": -3}, "b": {"p": -7}})

    theta_error = "^theta must be >= 1, got 0$"
    period_error = "^period length must be >= 1, got 0$"
    negative_error = "^activity must be >= 0, got -3$"
    with pytest.raises(ParameterError, match=theta_error):
        error_table(bad(0), 0, [1, 2])
    with pytest.raises(ParameterError, match=period_error):
        error_table(bad(0), 5, [0, 1])
    with pytest.raises(ParameterError, match=negative_error):
        error_table(bad(6), 5, [0, 1])
    with pytest.raises(ParameterError, match=theta_error):
        error_table(matrix_from({"d": {"p": 3}}), 5, [1, 0])
    with pytest.raises(ParameterError, match=theta_error):
        reports_for_thetas(bad(0), [0, 5])
    with pytest.raises(ParameterError, match=period_error):
        reports_for_thetas(bad(0), [5, 0])
    with pytest.raises(ParameterError, match=negative_error):
        reports_for_thetas(bad(6), [5, 0])
    with pytest.raises(ParameterError, match=theta_error):
        reports_for_thetas(matrix_from({"d": {"p": 3}}), [5, 0])
    # A non-zero cell under a label the matrix does not list is a KeyError, in row order.
    unlisted = ActivityMatrix("commits", 6, ["p"], {"a": {"p": 1, "x": 0}, "b": {"x": 4, "p": -1}})
    with pytest.raises(KeyError):
        reports_for_thetas(unlisted, [5])
    assert reports_for_thetas(bad(0), []) == []
    assert reports_for_thetas(bad(6), []) == []


def test_threshold_table_cost_grows_slower_than_its_thetas():
    # The matrix's cells are read a fixed number of times whatever the number
    # of thetas; each theta adds only a bisection per period. Measured ratios
    # of the counts at 160 and 40 thetas: 3.96 when every theta walked every
    # cell, 1.63 with one sorted curve per matrix.
    rng = random.Random(2222)
    labels = [f"p{j:02d}" for j in range(12)]
    counts = {
        f"d{i}": {label: rng.randrange(1, 200) for label in rng.sample(labels, 6)}
        for i in range(300)
    }
    matrix = ActivityMatrix("commits", 6, labels, counts)

    def table(top: int) -> None:
        thetas = range(1, top + 1)
        error_table(matrix, 10, thetas)
        reports_for_thetas(matrix, thetas)

    table(40)  # warm-up, untraced
    small = line_events(effort, lambda: table(40))
    large = line_events(effort, lambda: table(160))
    assert large / small < 2, (small, large)


def test_upper_bound_validates_like_project_effort():
    with pytest.raises(ParameterError, match="period length must be >= 1, got 0"):
        upper_bound(matrix_from({"d": {"p": 3}}, months=0))
    with pytest.raises(ParameterError, match="activity must be >= 0, got -2"):
        upper_bound(matrix_from({"d": {"p": 0, "q": -2}}))
    assert upper_bound(matrix_from({"d": {"p": 0, "q": 4}, "e": {}}, months=6)) == 6


def test_project_effort_validates_parameters_up_front():
    with pytest.raises(ParameterError, match="theta"):
        project_effort(ActivityMatrix("commits", 6, [], {}), 0)
    with pytest.raises(ParameterError, match="period length"):
        project_effort(matrix_from({"d": {"p": 3}}, months=0), 5)
    with pytest.raises(ParameterError, match="activity"):
        project_effort(matrix_from({"d": {"p": -1}}), 5)


def test_error_table_takes_a_generator_and_repeated_thetas():
    rng = random.Random(4141)
    matrix = matrix_from(
        {f"d{i}": {label: rng.randrange(0, 30) for label in ("p", "q", "r")} for i in range(20)}
    )
    baseline = project_effort(matrix, 7).total
    thetas = [5, 1, 9, 5, 31, 1, 9]
    expected = {
        theta: (project_effort(matrix, theta).total - baseline) / baseline * 100
        for theta in thetas
    }
    assert list(expected) == [5, 1, 9, 31]
    assert error_table(matrix, 7, (theta for theta in thetas)) == expected
    assert list(error_table(matrix, 7, iter(thetas))) == [5, 1, 9, 31]
    assert error_table(matrix, 7, iter(())) == {}


def test_error_table_zero_baseline_rejected():
    matrix = matrix_from({"d": {"p": 0}}, months=1)
    with pytest.raises(ParameterError, match="zero total effort"):
        error_table(matrix, 5, [1, 2])


def test_render_quantity_two_decimals_ties_to_even():
    assert render_quantity(Fraction(33, 5)) == "6.60"
    assert render_quantity(Fraction(1, 200)) == "0.00"    # 0.005 rounds to even 0.00
    assert render_quantity(Fraction(3, 200)) == "0.02"    # 0.015 rounds to even 0.02
    assert render_quantity(Fraction(201, 100)) == "2.01"
    assert render_quantity(Fraction(-1, 200)) == "0.00"   # no negative zero
    assert render_quantity(Fraction(-3, 200)) == "-0.02"
    assert render_quantity(Fraction(535, 200)) == "2.68"  # 2.675
    assert render_quantity(Fraction(0)) == "0.00"
    assert render_quantity(Fraction(12345, 1)) == "12345.00"


def test_render_percent_is_signed():
    assert render_percent(Fraction(700, 33)) == "+21.21%"
    assert render_percent(Fraction(-1061, 214)) == "-4.96%"
    assert render_percent(Fraction(0)) == "+0.00%"


def test_rendering_matches_the_round_reference():
    rng = random.Random(6262)
    values = [Fraction(k, 200) for k in range(-4000, 4001)]
    values += [
        Fraction(rng.randrange(-10**12, 10**12 + 1), rng.randrange(1, 10**6 + 1))
        for _ in range(2000)
    ]
    values += [0, 7, -13, 10**15]
    values += map(Fraction, [2.675, -0.125, 1e-3, "1.005", "-2.675", "355/113",
                             Decimal("-0.015"), Decimal("12.345")])
    for value in values:
        assert render_quantity(value) == reference_model.render_quantity(value), value
        assert render_percent(value) == reference_model.render_percent(value), value


def test_markdown_report(ref_matrix):
    reports = reports_for_thetas(ref_matrix, [9, 10, 11])
    errors = error_table(ref_matrix, 10, [9, 10, 11])
    text = render_markdown(reports, 10, errors)
    lines = text.splitlines()
    assert lines[0] == "| theta | total_pm | 2013-01-01 | error_vs_selected |"
    assert lines[2] == "| 9 | 6.78 | 6.78 | +2.69% |"
    assert lines[3] == "| 10 | 6.60 | 6.60 | -- |"
    assert lines[4] == "| 11 | 6.27 | 6.27 | -4.96% |"
    assert lines[-1] == "Upper bound: 8.00 PM"


def test_csv_report(ref_matrix):
    reports = reports_for_thetas(ref_matrix, [10])
    text = render_csv(reports, 10)
    lines = text.splitlines()
    assert lines[0] == "theta,total_pm,2013-01-01,error_vs_selected"
    assert lines[1] == "10,6.60,6.60,--"


def test_json_report_round_trips(ref_matrix):
    reports = reports_for_thetas(ref_matrix, [1, 10])
    errors = error_table(ref_matrix, 10, [1, 10])
    payload = json.loads(render_json(reports, 10, errors))
    assert payload["selected_theta"] == 10
    assert payload["upper_bound_pm"] == "8.00"
    assert payload["period_months"] == 1
    rows = {row["theta"]: row for row in payload["thresholds"]}
    assert rows[10]["total_pm"] == "6.60"
    assert rows[10]["error_vs_selected"] == "--"
    assert rows[1]["total_pm"] == "8.00"
    assert rows[1]["error_vs_selected"] == "+21.21%"
    assert rows[1]["per_period_pm"] == {REFERENCE_PERIOD_LABEL: "8.00"}


def test_renderers_of_no_reports():
    assert render_markdown([], 10) == ""
    assert render_csv([], 10) == "theta,total_pm,error_vs_selected\n"
    assert json.loads(render_json([], 10)) == {
        "selected_theta": 10, "period_months": None, "upper_bound_pm": "0.00", "thresholds": [],
    }


def test_renderers_are_stable():
    # Two periods, and error maps that lack theta 12 or are missing altogether: every
    # format carries the same cells, "--" at the selected theta and "" without an error.
    matrix = matrix_from({"a": {"p1": 3, "p2": 12}, "b": {"p1": 10}, "c": {"p2": 1}})
    reports = reports_for_thetas(matrix, [5, 10, 12])
    header = ["theta", "total_pm", "p1", "p2", "error_vs_selected"]
    rows = [["5", "16.80", "9.60", "7.20"], ["10", "14.40", "7.80", "6.60"],
            ["12", "13.00", "6.50", "6.50"]]
    for errors, error_cells in ((error_table(matrix, 10, [5, 10]), ["+16.67%", "--", ""]),
                                (None, ["", "--", ""])):
        expected = [header] + [[*row, cell] for row, cell in zip(rows, error_cells)]
        for renderer in (render_markdown, render_csv, render_json):
            assert renderer(reports, 10, errors) == renderer(reports, 10, errors)
        assert list(csv.reader(io.StringIO(render_csv(reports, 10, errors)))) == expected
        lines = render_markdown(reports, 10, errors).splitlines()
        assert lines[1] == "| --- | --- | --- | --- | --- |"
        assert lines[-2:] == ["", "Upper bound: 24.00 PM"]
        assert [line[2:-2].split(" | ") for line in lines[:1] + lines[2:-2]] == expected
        thresholds = json.loads(render_json(reports, 10, errors))["thresholds"]
        assert [
            [str(row["theta"]), row["total_pm"], *row["per_period_pm"].values(),
             row["error_vs_selected"]]
            for row in thresholds
        ] == expected[1:]
        assert all(list(row["per_period_pm"]) == ["p1", "p2"] for row in thresholds)

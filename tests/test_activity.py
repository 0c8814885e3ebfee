"""Period bucketing: month arithmetic, half-year labels, rolling windows, metrics."""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from calendar import monthrange, timegm
from datetime import date, datetime, timedelta, timezone

import pytest

from conftest import line_events, timelines
from vcseffort import activity
from vcseffort.activity import (
    ACTIVITY_CSV_HEADER,
    METRIC_ACTIVE_DAYS,
    METRIC_COMMITS,
    ActivityMatrix,
    PeriodSpec,
    activity_in_window,
    _semester_start,
    aggregate,
    date_to_epoch,
    epoch_to_utc_date,
    rolling_windows,
    semester_index,
    semester_label,
    subtract_months,
)
from vcseffort.errors import ConfigError, ParameterError
from vcseffort.identity import resolve_identities
from vcseffort.ingest import MAX_TIMESTAMP, CommitRecord


def ts(year, month, day, hour=12, minute=0, second=0) -> int:
    return int(datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc).timestamp())


def commit(i: int, timestamp: int, email: str = "a@x.org") -> CommitRecord:
    return CommitRecord(f"h{i}", "Dev", email, timestamp, False)


def simple_assignments(commits):
    return {(c.author_name, c.author_email): c.author_email for c in commits}


def test_subtract_months_clamps_to_month_end():
    assert subtract_months(date(2013, 3, 31), 1) == date(2013, 2, 28)
    assert subtract_months(date(2012, 3, 31), 1) == date(2012, 2, 29)
    assert subtract_months(date(2013, 7, 31), 6) == date(2013, 1, 31)
    assert subtract_months(date(2013, 1, 15), 1) == date(2012, 12, 15)
    assert subtract_months(date(2013, 1, 15), 13) == date(2011, 12, 15)
    assert subtract_months(date(2013, 5, 1), 0) == date(2013, 5, 1)


def test_date_helpers_match_the_calendar_module():
    # The package computes from date.toordinal() and its own month lengths; the stdlib
    # calendar module is the oracle, over both ends of date's range and 1900 and 2000.
    for year in (*range(1, 31), *range(1890, 2111), *range(9970, 10000)):
        for month in range(1, 13):
            last = monthrange(year, month)[1]
            for day in (1, 28, 29, 30, 31):
                if day > last:
                    continue
                start = date(year, month, day)
                assert date_to_epoch(start) == timegm(start.timetuple())
                back_year, back_month = year, month
                for months in range(26):
                    if back_year < 1:
                        with pytest.raises(ParameterError):
                            subtract_months(start, months)
                    else:
                        clamped = min(day, monthrange(back_year, back_month)[1])
                        assert subtract_months(start, months) == date(back_year, back_month, clamped)
                    back_month -= 1
                    if back_month == 0:
                        back_year, back_month = back_year - 1, 12
    # The last half-year ingest accepts starts on 9999-07-01 and ends after MAX_TIMESTAMP.
    last_half = semester_index(date(9999, 12, 31))
    assert _semester_start(last_half) == timegm(date(9999, 7, 1).timetuple())
    assert _semester_start(last_half + 1) == MAX_TIMESTAMP + 1


def test_semester_labels():
    assert semester_label(semester_index(date(2013, 1, 1))) == "13s1"
    assert semester_label(semester_index(date(2013, 6, 30))) == "13s1"
    assert semester_label(semester_index(date(2013, 7, 1))) == "13s2"
    assert semester_label(semester_index(date(2013, 12, 31))) == "13s2"
    assert semester_label(semester_index(date(2005, 3, 1))) == "05s1"
    assert semester_label(semester_index(date(1999, 8, 1))) == "99s2"


def test_calendar_aggregate_spans_gaps():
    commits = [
        commit(1, ts(2013, 2, 1)),
        commit(2, ts(2013, 2, 2)),
        commit(3, ts(2014, 3, 1)),
    ]
    matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec())
    assert matrix.period_labels == ["13s1", "13s2", "14s1"]
    assert matrix.cell("a@x.org", "13s1") == 2
    assert matrix.cell("a@x.org", "13s2") == 0
    assert matrix.cell("a@x.org", "14s1") == 1
    assert matrix.overflow_commits == 0
    assert matrix.total() == 3


def test_calendar_boundary_joins_later_period():
    # Midnight UTC on July 1 is the first instant of the second half-year.
    boundary = int(datetime(2013, 7, 1, 0, 0, 0, tzinfo=timezone.utc).timestamp())
    commits = [commit(1, boundary), commit(2, boundary - 1)]
    matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec())
    assert matrix.cell("a@x.org", "13s2") == 1
    assert matrix.cell("a@x.org", "13s1") == 1


def test_rolling_windows_are_contiguous_and_labeled_by_start():
    windows = rolling_windows(date(2013, 2, 1), 1, date_to_epoch(date(2012, 11, 15)))
    labels = [label for label, _, _ in windows]
    assert labels == ["2012-11-01", "2012-12-01", "2013-01-01"]
    for (_, _, earlier_end), (_, later_start, _) in zip(windows, windows[1:]):
        assert earlier_end == later_start


def test_rolling_aggregate_boundaries_and_overflow():
    anchor = date(2013, 2, 1)
    commits = [
        commit(1, date_to_epoch(date(2013, 1, 1))),      # first instant of newest window
        commit(2, date_to_epoch(date(2013, 1, 1)) - 1),  # last instant of previous window
        commit(3, date_to_epoch(anchor)),                # at the anchor: overflow
        commit(4, date_to_epoch(anchor) + 5),            # past the anchor: overflow
    ]
    spec = PeriodSpec(1, "rolling", anchor)
    matrix = aggregate(timelines(commits), simple_assignments(commits), spec)
    assert matrix.cell("a@x.org", "2013-01-01") == 1
    assert matrix.cell("a@x.org", "2012-12-01") == 1
    assert matrix.overflow_commits == 2
    assert matrix.total() + matrix.overflow_commits == len(commits)


def test_rolling_aggregate_all_overflow():
    anchor = date(2013, 2, 1)
    commits = [commit(1, date_to_epoch(anchor) + 10)]
    matrix = aggregate(
        timelines(commits), simple_assignments(commits), PeriodSpec(6, "rolling", anchor)
    )
    assert matrix.period_labels == []
    assert matrix.overflow_commits == 1


def test_active_days_metric_counts_distinct_utc_days():
    commits = [
        commit(1, ts(2013, 3, 5, hour=1)),
        commit(2, ts(2013, 3, 5, hour=23)),
        commit(3, ts(2013, 3, 6, hour=0)),
        # 23:59 UTC and 00:01 UTC the next day are different active days.
        commit(4, ts(2013, 4, 1, hour=23, minute=59)),
        commit(5, ts(2013, 4, 2, hour=0, minute=1)),
    ]
    matrix = aggregate(
        timelines(commits), simple_assignments(commits), PeriodSpec(), METRIC_ACTIVE_DAYS
    )
    assert matrix.cell("a@x.org", "13s1") == 4
    commit_matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec())
    assert commit_matrix.cell("a@x.org", "13s1") == 5


def test_activity_in_window_half_open():
    end = date(2013, 2, 1)
    start_epoch = date_to_epoch(date(2013, 1, 1))
    end_epoch = date_to_epoch(end)
    commits = [
        commit(1, start_epoch),      # included: window start
        commit(2, end_epoch - 1),    # included: last second
        commit(3, end_epoch),        # excluded: window end
        commit(4, start_epoch - 1),  # excluded: before start
    ]
    counts = activity_in_window(timelines(commits), simple_assignments(commits), end, 1)
    assert counts == {"a@x.org": 2}


def test_activity_in_window_active_days():
    end = date(2013, 2, 1)
    commits = [
        commit(1, ts(2013, 1, 10, hour=2)),
        commit(2, ts(2013, 1, 10, hour=20)),
        commit(3, ts(2013, 1, 11)),
    ]
    counts = activity_in_window(
        timelines(commits), simple_assignments(commits), end, 1, METRIC_ACTIVE_DAYS
    )
    assert counts == {"a@x.org": 2}


def test_commits_sharing_a_hash_count_for_their_own_authors():
    # Logs of two repositories, concatenated in library use, can repeat a hash.
    t = ts(2013, 3, 5)
    commits = [
        CommitRecord("h1", "A", "a@x.org", t, False),
        CommitRecord("h1", "B", "b@x.org", t + 100, False),
    ]
    assignments, _ = resolve_identities(timelines(commits))
    matrix = aggregate(timelines(commits), assignments, PeriodSpec())
    assert matrix.counts == {"a@x.org": {"13s1": 1}, "b@x.org": {"13s1": 1}}
    assert activity_in_window(timelines(commits), assignments, date(2013, 4, 1), 1) == {
        "a@x.org": 1, "b@x.org": 1,
    }


def test_empty_input_gives_empty_matrix():
    matrix = aggregate({}, {}, PeriodSpec())
    assert matrix.period_labels == []
    assert matrix.counts == {}
    assert matrix.total() == 0


def test_matrix_csv_layout():
    commits = [
        commit(1, ts(2013, 2, 1), "b@x.org"),
        commit(2, ts(2013, 8, 1), "a@x.org"),
        commit(3, ts(2013, 2, 2), "b@x.org"),
    ]
    matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec())
    lines = matrix.to_csv().splitlines()
    assert lines[0] == ",".join(ACTIVITY_CSV_HEADER)
    assert lines[1:] == ["a@x.org,13s2,1", "b@x.org,13s1,2"]


def test_matrix_csv_ids_round_trip_through_a_csv_reader():
    ids = ["name:Cy\rRo", "cr\r\nlf@x.org", "name:Ann\nLee", "a,b@x.org", 'q"uote@x.org',
           "name:Spaced Out ", "plain@x.org"]
    counts = {developer_id: {"13s1": i + 1, "13s2": 2 * i + 1} for i, developer_id in enumerate(ids)}
    matrix = ActivityMatrix(METRIC_COMMITS, 6, ["13s1", "13s2"], counts)
    header, *rows = csv.reader(io.StringIO(matrix.to_csv(), newline=""))
    assert tuple(header) == ACTIVITY_CSV_HEADER
    assert rows == [[d, label, str(counts[d][label])] for d in sorted(ids) for label in ("13s1", "13s2")]
    # An id without a carriage return keeps its plain, minimally quoted cell.
    assert "plain@x.org,13s1,7\n" in matrix.to_csv()


@pytest.mark.parametrize("field, value", [
    ("metric", METRIC_ACTIVE_DAYS),
    ("period_months", 1),
    ("period_labels", ["13s1"]),
    ("counts", {"a@x.org": {"13s1": 1}}),
    ("overflow_commits", 1),
])
def test_matrices_differing_in_one_field_are_not_equal(field, value):
    matrix = ActivityMatrix("commits", 6, [], {})
    assert matrix == ActivityMatrix("commits", 6, [], {})
    assert matrix != matrix._replace(**{field: value})


def test_period_spec_validation():
    with pytest.raises(ConfigError, match=">= 1"):
        aggregate({}, {}, PeriodSpec(0))
    with pytest.raises(ConfigError, match="alignment"):
        aggregate({}, {}, PeriodSpec(6, "weekly"))
    with pytest.raises(ConfigError, match="anchor"):
        aggregate({}, {}, PeriodSpec(6, "rolling"))
    with pytest.raises(ConfigError, match="6-month"):
        aggregate({}, {}, PeriodSpec(3, "calendar"))
    with pytest.raises(ConfigError, match="metric"):
        aggregate({}, {}, PeriodSpec(), "lines-changed")
    with pytest.raises(ConfigError, match="metric"):
        activity_in_window({}, {}, date(2013, 1, 1), 6, metric="lines")
    with pytest.raises(ParameterError):
        activity_in_window({}, {}, date(2013, 1, 1), 0)


def _window_contains(window_start: date, window_end: date, timestamp: int) -> bool:
    return date_to_epoch(window_start) <= timestamp < date_to_epoch(window_end)


def test_rolling_aggregate_matches_interval_oracle():
    """Each commit lands in the unique window whose [start, end) holds its timestamp."""
    rng = random.Random(777)
    for _ in range(40):
        anchor = date(2014, rng.randrange(1, 13), rng.choice([1, 15, 28]))
        months = rng.choice([1, 2, 6, 12])
        commits = []
        for i in range(rng.randrange(1, 60)):
            offset = rng.randrange(-400 * 86400, 30 * 86400)
            commits.append(
                commit(i, date_to_epoch(anchor) + offset, f"d{rng.randrange(4)}@x.org")
            )
        spec = PeriodSpec(months, "rolling", anchor)
        matrix = aggregate(timelines(commits), simple_assignments(commits), spec)

        # Rebuild window bounds independently via month subtraction.
        bounds = {}
        end = anchor
        for _ in range(30):
            start = subtract_months(end, months)
            bounds[start.isoformat()] = (start, end)
            end = start
        recount: dict[tuple[str, str], int] = {}
        overflow = 0
        for c in commits:
            if c.author_timestamp >= date_to_epoch(anchor):
                overflow += 1
                continue
            matches = [
                label
                for label, (s, e) in bounds.items()
                if _window_contains(s, e, c.author_timestamp)
            ]
            assert len(matches) == 1
            key = (c.author_email, matches[0])
            recount[key] = recount.get(key, 0) + 1
        assert overflow == matrix.overflow_commits
        for (developer_id, label), expected in recount.items():
            assert matrix.cell(developer_id, label) == expected
        assert matrix.total() == sum(recount.values())


def test_calendar_aggregate_matches_date_oracle():
    rng = random.Random(31337)
    for _ in range(30):
        commits = [
            commit(i, rng.randrange(ts(2010, 1, 1), ts(2015, 12, 30)), f"d{rng.randrange(3)}@x.org")
            for i in range(rng.randrange(1, 50))
        ]
        matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec())
        recount: dict[tuple[str, str], int] = {}
        for c in commits:
            day = epoch_to_utc_date(c.author_timestamp)
            label = f"{day.year % 100:02d}s{1 if day.month <= 6 else 2}"
            key = (c.author_email, label)
            recount[key] = recount.get(key, 0) + 1
        for (developer_id, label), expected in recount.items():
            assert matrix.cell(developer_id, label) == expected
        # Labels run contiguously from the earliest to the latest semester.
        assert len(matrix.period_labels) == len(set(matrix.period_labels))
        assert matrix.total() == len(commits)


def _random_commits(rng: random.Random, low: int, high: int, developers: int = 4):
    return [
        commit(i, rng.randrange(low, high), f"d{rng.randrange(developers)}@x.org")
        for i in range(rng.randrange(1, 80))
    ]


def _day_oracle(commits, label_of) -> dict[tuple[str, str], int]:
    """Distinct UTC dates per (developer, period), from ``epoch_to_utc_date``."""
    days: dict[tuple[str, str], set[date]] = {}
    for c in commits:
        label = label_of(c.author_timestamp)
        if label is not None:
            key = (c.author_email, label)
            days.setdefault(key, set()).add(epoch_to_utc_date(c.author_timestamp))
    return {key: len(dates) for key, dates in days.items()}


def _assert_matrix_equals(matrix, expected: dict[tuple[str, str], int]) -> None:
    found = {
        (developer_id, label): count
        for developer_id, row in matrix.counts.items()
        for label, count in row.items()
    }
    assert found == expected


def test_calendar_active_days_match_date_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        # Forty days around the July 1 boundary, so that many commits share a day.
        commits = _random_commits(rng, ts(2013, 6, 10), ts(2013, 7, 20))
        matrix = aggregate(
            timelines(commits), simple_assignments(commits), PeriodSpec(), METRIC_ACTIVE_DAYS
        )

        def label_of(timestamp):
            day = epoch_to_utc_date(timestamp)
            return f"{day.year % 100:02d}s{1 if day.month <= 6 else 2}"

        _assert_matrix_equals(matrix, _day_oracle(commits, label_of))
        assert matrix.overflow_commits == 0


def test_rolling_active_days_match_date_oracle():
    rng = random.Random(2424)
    for _ in range(30):
        anchor = date(2014, rng.randrange(1, 13), rng.choice([1, 15, 28]))
        months = rng.choice([1, 2])
        anchor_epoch = date_to_epoch(anchor)
        commits = _random_commits(rng, anchor_epoch - 70 * 86400, anchor_epoch + 10 * 86400)
        matrix = aggregate(
            timelines(commits),
            simple_assignments(commits),
            PeriodSpec(months, "rolling", anchor),
            METRIC_ACTIVE_DAYS,
        )

        def label_of(timestamp):
            end = anchor
            while date_to_epoch(end) > timestamp:
                start = subtract_months(end, months)
                if _window_contains(start, end, timestamp):
                    return start.isoformat()
                end = start
            return None  # at or after the anchor

        _assert_matrix_equals(matrix, _day_oracle(commits, label_of))
        assert matrix.overflow_commits == sum(
            1 for c in commits if c.author_timestamp >= anchor_epoch
        )


def test_activity_in_window_matches_interval_oracle():
    rng = random.Random(9090)
    for _ in range(40):
        end = date(rng.randrange(2012, 2016), rng.randrange(1, 13), rng.choice([1, 15, 28]))
        months = rng.choice([1, 3, 6, 12])
        start_epoch = date_to_epoch(subtract_months(end, months))
        end_epoch = date_to_epoch(end)
        commits = _random_commits(rng, start_epoch - 90 * 86400, end_epoch + 90 * 86400)
        commits.append(commit(998, start_epoch, "first-instant@x.org"))
        commits.append(commit(999, end_epoch, "window-end@x.org"))
        assignments = simple_assignments(commits)

        inside = [c for c in commits if start_epoch <= c.author_timestamp < end_epoch]
        expected_commits: dict[str, int] = {}
        for c in inside:
            expected_commits[c.author_email] = expected_commits.get(c.author_email, 0) + 1
        expected_days = {
            email: len({epoch_to_utc_date(c.author_timestamp) for c in inside if c.author_email == email})
            for email in expected_commits
        }
        assert activity_in_window(timelines(commits), assignments, end, months) == expected_commits
        assert (
            activity_in_window(timelines(commits), assignments, end, months, METRIC_ACTIVE_DAYS)
            == expected_days
        )


def test_commit_order_does_not_change_buckets():
    rng = random.Random(5150)
    anchor = date(2014, 3, 15)
    commits = _random_commits(rng, ts(2012, 1, 1), ts(2014, 6, 1), developers=6)
    assignments = simple_assignments(commits)
    specs = [PeriodSpec(), PeriodSpec(2, "rolling", anchor)]
    for metric in ("commits", METRIC_ACTIVE_DAYS):
        matrices = [aggregate(timelines(commits), assignments, spec, metric) for spec in specs]
        window = activity_in_window(timelines(commits), assignments, anchor, 6, metric)
        for _ in range(5):
            shuffled = list(commits)
            rng.shuffle(shuffled)
            for spec, matrix in zip(specs, matrices):
                again = aggregate(timelines(shuffled), assignments, spec, metric)
                assert again.period_labels == matrix.period_labels
                assert again.counts == matrix.counts
                assert again.overflow_commits == matrix.overflow_commits
                assert again.to_csv() == matrix.to_csv()
            assert activity_in_window(timelines(shuffled), assignments, anchor, 6, metric) == window


def test_last_accepted_timestamp_lands_in_last_half_year():
    last = 253402300799  # 9999-12-31T23:59:59Z, the largest timestamp ingest accepts
    commits = [commit(1, last), commit(2, last - 150 * 86400)]
    for metric in ("commits", METRIC_ACTIVE_DAYS):
        matrix = aggregate(timelines(commits), simple_assignments(commits), PeriodSpec(), metric)
        assert matrix.period_labels == ["99s2"]
        assert matrix.cell("a@x.org", "99s2") == 2
        assert matrix.overflow_commits == 0


def test_window_start_before_year_one_is_a_parameter_error():
    assert subtract_months(date(1, 7, 31), 6) == date(1, 1, 31)
    with pytest.raises(ParameterError, match="before year 1"):
        subtract_months(date(1, 6, 30), 6)
    with pytest.raises(ParameterError):
        activity_in_window([], {}, date(2013, 1, 1), 100000)
    commits = [commit(1, ts(2013, 1, 5))]
    with pytest.raises(ParameterError):
        aggregate(
            timelines(commits),
            simple_assignments(commits),
            PeriodSpec(30000, "rolling", date(2020, 1, 1)),
        )


def _per_commit_bucket(commits, assignments, bounds, metric):
    """The per-commit bucketing loop that timelines replaced, kept as the reference."""
    last = len(bounds) - 1
    by_day = metric == METRIC_ACTIVE_DAYS
    windows = [{} for _ in range(last)]
    seen_days = [set() for _ in range(last)]
    overflow = 0
    for commit in commits:
        timestamp = commit.author_timestamp
        index = bisect_right(bounds, timestamp) - 1
        if index == last:
            overflow += 1
            continue
        if index < 0:
            continue
        developer_id = assignments[commit.author_name, commit.author_email]
        if by_day:
            day = (developer_id, timestamp // 86400)
            if day in seen_days[index]:
                continue
            seen_days[index].add(day)
        row = windows[index]
        row[developer_id] = row.get(developer_id, 0) + 1
    return windows, overflow


def _per_commit_aggregate(commits, assignments, spec, metric):
    if not commits:
        return ActivityMatrix(metric, spec.length_months, [], {})
    earliest = min(c.author_timestamp for c in commits)
    if spec.alignment == "calendar":
        low = semester_index(epoch_to_utc_date(earliest))
        high = semester_index(epoch_to_utc_date(max(c.author_timestamp for c in commits)))
        labels = [semester_label(i) for i in range(low, high + 1)]
        bounds = [_semester_start(i) for i in range(low, high + 2)]
    else:
        windows = rolling_windows(spec.anchor, spec.length_months, earliest)
        labels = [label for label, _, _ in windows]
        bounds = [start for _, start, _ in windows] + [date_to_epoch(spec.anchor)]
    per_window, overflow = _per_commit_bucket(commits, assignments, bounds, metric)
    counts = {}
    for label, row in zip(labels, per_window):
        for developer_id, count in row.items():
            counts.setdefault(developer_id, {})[label] = count
    return ActivityMatrix(metric, spec.length_months, labels, counts, overflow)


def _multi_pair_log(rng, anchor, months, all_after_anchor=False):
    """Commits of developers with several (name, email) pairs each, and their assignments.

    Timestamps hit the rolling bounds, the anchor, two half-year starts, one
    second before each, and a UTC day on which two pairs of one developer commit.
    """
    anchor_epoch = date_to_epoch(anchor)
    assignments = {}
    for d in range(rng.randrange(1, 5)):
        for p in range(rng.randrange(1, 4)):
            assignments[f"Dev {d}", f"d{d}.{p}@x.org"] = f"dev{d}"
    pairs = list(assignments)
    if all_after_anchor:
        special = [anchor_epoch, anchor_epoch + 1]
        low, high = anchor_epoch, anchor_epoch + 400 * 86400
    else:
        bounds = [start for _, start, _ in rolling_windows(anchor, months, anchor_epoch - 500 * 86400)]
        bounds += [anchor_epoch, ts(2013, 7, 1, hour=0), ts(2014, 1, 1, hour=0)]
        special = [t - k for t in bounds for k in (0, 1)]
        low, high = anchor_epoch - 500 * 86400, anchor_epoch + 40 * 86400
    stamps = [rng.choice(special) if rng.random() < 0.3 else rng.randrange(low, high)
              for _ in range(rng.randrange(0, 80))]
    commits = [CommitRecord(f"h{i}", *rng.choice(pairs), t, False) for i, t in enumerate(stamps)]
    # Two pairs of one developer commit hours apart on one UTC day.
    day = rng.randrange(low, high) // 86400 * 86400
    same_developer = [pair for pair in pairs if assignments[pair] == assignments[pairs[-1]]]
    if len(same_developer) > 1:
        commits.append(CommitRecord("x1", *same_developer[0], day + 3600, False))
        commits.append(CommitRecord("x2", *same_developer[1], day + 7200, False))
    rng.shuffle(commits)
    return commits, assignments


def test_timeline_bucketing_matches_per_commit_loop():
    rng = random.Random(8080)
    for trial in range(160):
        # Month ends exercise the day clamping of rolling windows.
        month = rng.randrange(1, 13)
        anchor = date(2014, month, rng.choice([1, 15, 28, monthrange(2014, month)[1]]))
        months = rng.choice([1, 2, 3, 6])
        commits, assignments = _multi_pair_log(rng, anchor, months, all_after_anchor=trial % 8 == 0)
        if trial % 40 == 0:
            commits = []
        elif trial % 80 == 20:
            # The last accepted second stretches the calendar span to 99s2: ~16,000 periods.
            commits.append(CommitRecord("last", *next(iter(assignments)), 253402300799, False))
        grouped = timelines(commits)
        specs = [PeriodSpec(), PeriodSpec(months, "rolling", anchor)]
        for metric in (METRIC_COMMITS, METRIC_ACTIVE_DAYS):
            for spec in specs:
                assert aggregate(grouped, assignments, spec, metric) == _per_commit_aggregate(
                    commits, assignments, spec, metric
                )
            bounds = [date_to_epoch(subtract_months(anchor, months)), date_to_epoch(anchor)]
            (expected,), _ = _per_commit_bucket(commits, assignments, bounds, metric)
            assert activity_in_window(grouped, assignments, anchor, months, metric) == expected


def test_bucketing_cost_grows_linearly_with_commits_and_windows():
    # n commits by n // 10 authors, two authors per developer, each author active
    # for one year inside a span of n // 1250 years, so windows grow with n while
    # cells per commit stay level. Measured ratios of the counts at 20,000 and
    # 5,000 commits: 4.03 (64,577 to 259,994 events), and 4.06 when _bucket kept
    # one dict per window. Finding each cell's window by a linear scan of the
    # bounds reads 8.96.
    start, year = date(2000, 1, 1), 365 * 86400

    def seeded(n: int):
        rng = random.Random(n)
        years = n // 1250
        origin = date_to_epoch(start)
        firsts: dict[int, int] = {}
        grouped: dict[tuple[str, str], list[int]] = {}
        for _ in range(n):
            k = rng.randrange(n // 10)
            first = firsts.setdefault(k, origin + rng.randrange((years - 1) * year))
            grouped.setdefault((f"Dev {k}", f"d{k}@x.org"), []).append(first + rng.randrange(year))
        for stamps in grouped.values():
            stamps.sort()
        assignments = {(name, email): f"dev{int(name[4:]) // 2}" for name, email in grouped}
        return grouped, assignments, start + timedelta(days=365 * years)

    inputs = {n: seeded(n) for n in (5000, 20000)}

    def bucket(n: int) -> None:
        grouped, assignments, anchor = inputs[n]
        aggregate(grouped, assignments, PeriodSpec())
        aggregate(grouped, assignments, PeriodSpec(3, "rolling", anchor), METRIC_ACTIVE_DAYS)
        activity_in_window(grouped, assignments, anchor, 6)
        activity_in_window(grouped, assignments, anchor, 6, METRIC_ACTIVE_DAYS)

    bucket(5000)  # warm-up, untraced
    small = line_events(activity, lambda: bucket(5000))
    large = line_events(activity, lambda: bucket(20000))
    assert large / small < 6, (small, large)

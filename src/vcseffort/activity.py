"""Activity aggregation: bucketing commit timestamps into fixed-length periods per developer."""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from datetime import date, datetime, timezone
from itertools import chain, islice
from typing import Mapping, NamedTuple, Sequence

# The CLI's parser needs these names on every run, so they live in the package root.
from . import ALIGNMENT_CALENDAR, ALIGNMENT_ROLLING, METRIC_ACTIVE_DAYS, METRIC_COMMITS, METRICS
from .errors import ConfigError, ParameterError

ACTIVITY_CSV_HEADER = ("developer_id", "period_label", "count")

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _days_in_month(year: int, month: int) -> int:
    if month == 2:
        return 29 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 28
    return 30 if month in (4, 6, 9, 11) else 31


def subtract_months(day: date, months: int) -> date:
    """Calendar-month subtraction with day clamping (Mar 31 - 1 month = Feb 28/29)."""
    total = day.year * 12 + (day.month - 1) - months
    year, month_index = divmod(total, 12)
    if year < 1:
        raise ParameterError(f"{months} months before {day.isoformat()} falls before year 1")
    month = month_index + 1
    return date(year, month, min(day.day, _days_in_month(year, month)))


def date_to_epoch(day: date) -> int:
    """Midnight UTC at the start of the given day, as epoch seconds."""
    return (day.toordinal() - _EPOCH_ORDINAL) * 86400


def epoch_to_utc_date(timestamp: int) -> date:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


class PeriodSpec(NamedTuple):
    """Period layout: calendar half-years, or rolling windows ending at an anchor date."""

    length_months: int = 6
    alignment: str = ALIGNMENT_CALENDAR
    anchor: date | None = None

    def validate(self) -> None:
        if self.length_months < 1:
            raise ConfigError(f"period length must be >= 1 month, got {self.length_months}")
        if self.alignment not in (ALIGNMENT_CALENDAR, ALIGNMENT_ROLLING):
            raise ConfigError(f"unknown alignment {self.alignment!r}")
        if self.alignment == ALIGNMENT_CALENDAR and self.length_months != 6:
            raise ConfigError("calendar alignment supports only 6-month periods")
        if self.alignment == ALIGNMENT_ROLLING and self.anchor is None:
            raise ConfigError("rolling alignment requires an anchor date")


class ActivityMatrix(NamedTuple):
    """Per-developer, per-period activity counts.

    ``period_labels`` is chronological; rows hold only non-zero cells.
    ``overflow_commits`` counts commits at or after the rolling anchor, which
    belong to no period; with calendar alignment it is always zero.
    """

    metric: str
    period_months: int
    period_labels: list[str]
    counts: dict[str, dict[str, int]]
    overflow_commits: int = 0

    def cell(self, developer_id: str, period_label: str) -> int:
        return self.counts.get(developer_id, {}).get(period_label, 0)

    def developers(self) -> list[str]:
        return sorted(self.counts)

    def total(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    def to_csv(self) -> str:
        order = {label: i for i, label in enumerate(self.period_labels)}
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        # Under "\n" line ends, Python 3.11's writer leaves a "\r" unquoted, and a reader
        # then splits the row there; such an id's rows have their text cells quoted.
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(ACTIVITY_CSV_HEADER)
        for developer_id in self.developers():
            row = self.counts[developer_id]
            write = (quoted if "\r" in developer_id else writer).writerow
            for label in sorted(row, key=order.__getitem__):
                write([developer_id, label, row[label]])
        return buffer.getvalue()


def semester_index(day: date) -> int:
    return day.year * 2 + (0 if day.month <= 6 else 1)


def semester_label(index: int) -> str:
    """Half-year label like ``13s2``: two-digit year and semester number."""
    year, half = divmod(index, 2)
    return f"{year % 100:02d}s{half + 1}"


def _semester_start(index: int) -> int:
    """Epoch seconds at which a half-year begins: the day after the previous one ends.

    ``date`` cannot hold 10000-01-01, the end of the last half-year ingest accepts.
    """
    year, half = divmod(index - 1, 2)
    return date_to_epoch(date(year, 12, 31) if half else date(year, 6, 30)) + 86400


def rolling_windows(
    anchor: date, length_months: int, earliest: int
) -> list[tuple[str, int, int]]:
    """Contiguous [start, end) windows walking back from the anchor.

    Windows are returned chronologically, labeled by ISO start date, and cover
    every timestamp from ``earliest`` up to (not including) the anchor.
    """
    windows: list[tuple[str, int, int]] = []
    end = anchor
    while date_to_epoch(end) > earliest:
        start = subtract_months(end, length_months)
        windows.append((start.isoformat(), date_to_epoch(start), date_to_epoch(end)))
        end = start
    return windows[::-1]


def _bucket(
    timelines: Mapping[tuple[str, str], Sequence[int]],
    assignments: Mapping[tuple[str, str], str],
    bounds: Sequence[int],
    metric: str,
) -> tuple[dict[str, dict[int, int]], int]:
    """``{developer_id: {i: activity}}`` for each active window ``[bounds[i], bounds[i + 1])``.

    ``timelines`` maps each (author_name, author_email) pair to its sorted
    timestamps, which count for the developer ``assignments[pair]``. Also
    returns the number of commits at or after ``bounds[-1]``; commits before
    ``bounds[0]`` are dropped. An active day is a distinct UTC day,
    ``timestamp // 86400``. Each developer's sorted points are walked with
    bisect, one step per window the developer is active in and, under
    ``active-days``, one per active day: a window without activity costs nothing.
    """
    first, end = bounds[0], bounds[-1]
    overflow = 0
    # developer_id -> the (timestamps, lo, hi) ranges of its pairs inside [first, end).
    ranges: dict[str, list[tuple[Sequence[int], int, int]]] = {}
    for pair, stamps in timelines.items():
        hi = bisect_left(stamps, end)
        overflow += len(stamps) - hi
        lo = bisect_left(stamps, first, 0, hi)
        if lo < hi:
            developer_id = assignments[pair]
            found = ranges.get(developer_id)
            if found is None:
                ranges[developer_id] = [(stamps, lo, hi)]
            else:
                found.append((stamps, lo, hi))

    by_day = metric == METRIC_ACTIVE_DAYS
    rows: dict[str, dict[int, int]] = {}
    for developer_id, found in ranges.items():
        row = rows[developer_id] = {}
        if len(found) == 1:
            points, start, stop = found[0]
        else:
            points = sorted(
                chain.from_iterable(islice(stamps, lo, hi) for stamps, lo, hi in found)
            )
            start, stop = 0, len(points)
        while start < stop:
            index = bisect_right(bounds, points[start]) - 1
            cut = bisect_left(points, bounds[index + 1], start, stop)
            if by_day:
                count = 0
                while start < cut:
                    count += 1
                    start = bisect_left(points, points[start] // 86400 * 86400 + 86400, start, cut)
            else:
                count = cut - start
            row[index] = count
            start = cut
    return rows, overflow


def aggregate(
    timelines: Mapping[tuple[str, str], Sequence[int]],
    assignments: Mapping[tuple[str, str], str],
    spec: PeriodSpec,
    metric: str = METRIC_COMMITS,
) -> ActivityMatrix:
    """Bucket timelines, ``{(name, email): sorted timestamps}``, into periods.

    A timestamp on a boundary joins the later period.
    """
    spec.validate()
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")

    if not timelines:
        return ActivityMatrix(metric, spec.length_months, [], {})

    earliest = min(stamps[0] for stamps in timelines.values())
    if spec.alignment == ALIGNMENT_CALENDAR:
        latest = max(stamps[-1] for stamps in timelines.values())
        low = semester_index(epoch_to_utc_date(earliest))
        high = semester_index(epoch_to_utc_date(latest))
        labels = [semester_label(i) for i in range(low, high + 1)]
        bounds = [_semester_start(i) for i in range(low, high + 2)]
    else:
        windows = rolling_windows(spec.anchor, spec.length_months, earliest)
        labels = [label for label, _, _ in windows]
        bounds = [start for _, start, _ in windows] + [date_to_epoch(spec.anchor)]

    rows, overflow = _bucket(timelines, assignments, bounds, metric)
    counts = {developer: {labels[i]: n for i, n in row.items()} for developer, row in rows.items()}
    return ActivityMatrix(metric, spec.length_months, labels, counts, overflow)


def activity_in_window(
    timelines: Mapping[tuple[str, str], Sequence[int]],
    assignments: Mapping[tuple[str, str], str],
    window_end: date,
    length_months: int,
    metric: str = METRIC_COMMITS,
) -> dict[str, int]:
    """Per-developer activity of the timelines in the half-open window [end - length, end)."""
    if length_months < 1:
        raise ParameterError(f"window length must be >= 1 month, got {length_months}")
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    bounds = [date_to_epoch(subtract_months(window_end, length_months)), date_to_epoch(window_end)]
    rows, _ = _bucket(timelines, assignments, bounds, metric)
    return {developer_id: row[0] for developer_id, row in rows.items()}

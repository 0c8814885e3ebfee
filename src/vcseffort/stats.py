"""Sample representativeness: two-sample Kolmogorov-Smirnov tests over activity counts."""

from __future__ import annotations

import csv
import io
import math
import sys
from bisect import bisect_right
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import DEFAULT_CUTOFFS
from .errors import ParameterError

REPRESENTATIVENESS_CSV_HEADER = (
    "cutoff",
    "population",
    "n",
    "min",
    "q1",
    "median",
    "mean",
    "q3",
    "max",
    "D",
    "p",
)

_SERIES_EPS = 1e-12
_SERIES_MAX_TERMS = 100
_MIN_P = sys.float_info.min

STATUS_OK = "ok"
STATUS_INSUFFICIENT = "insufficient-data"


class KsResult(NamedTuple):
    d_statistic: float
    p_value: float
    n1: int
    n2: int


class PopulationSummary(NamedTuple):
    n: int
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float


class RepresentativenessRow(NamedTuple):
    cutoff: int
    status: str
    all_summary: PopulationSummary | None
    surveyed_summary: PopulationSummary | None
    ks: KsResult | None


def _ks_significance(lambda_value: float) -> float:
    """Asymptotic tail probability 2 * sum_k (-1)^(k-1) exp(-2 k^2 lambda^2).

    The alternating series is truncated once a term drops below 1e-12. Near
    lambda = 0 it does not converge within the iteration cap; the probability
    tends to 1 there, so 1 is returned.
    """
    acc = 0.0
    sign = 1.0
    exponent = -2.0 * lambda_value * lambda_value
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = math.exp(exponent * k * k)
        acc += sign * term
        if term < _SERIES_EPS:
            p = 2.0 * acc
            # Clamp: underflow may drive the sum to zero, but a probability of
            # exactly zero would be wrong for any finite sample.
            return min(1.0, max(p, _MIN_P))
        sign = -sign
    return 1.0


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float]) -> KsResult:
    """Two-sample KS statistic and asymptotic p-value.

    D is the supremum over pooled distinct values of the absolute difference
    of the two right-continuous empirical distribution functions.
    """
    if not sample_a or not sample_b:
        raise ParameterError("KS test requires two non-empty samples")
    xs = sorted(sample_a)
    ys = sorted(sample_b)
    n1, n2 = len(xs), len(ys)
    d = 0.0
    for value in sorted(set(xs) | set(ys)):
        ecdf_a = bisect_right(xs, value) / n1
        ecdf_b = bisect_right(ys, value) / n2
        gap = abs(ecdf_a - ecdf_b)
        if gap > d:
            d = gap
    effective = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(effective) + 0.12 + 0.11 / math.sqrt(effective)) * d
    return KsResult(d, _ks_significance(lam), n1, n2)


def summarize(values: Sequence[float]) -> PopulationSummary:
    """Five-number summary plus mean; quartiles use linear interpolation."""
    if not values:
        raise ParameterError("cannot summarize an empty sample")
    xs = sorted(values)
    n = len(xs)

    def quantile(p: float) -> float:
        position = (n - 1) * p
        lower = math.floor(position)
        fraction = position - lower
        if fraction == 0.0 or lower + 1 >= n:
            return float(xs[lower])
        return xs[lower] * (1.0 - fraction) + xs[lower + 1] * fraction

    return PopulationSummary(
        n,
        float(xs[0]),
        quantile(0.25),
        quantile(0.5),
        sum(xs) / n,
        quantile(0.75),
        float(xs[-1]),
    )


def representativeness_table(
    all_counts: Mapping[str, int],
    surveyed_counts: Mapping[str, int],
    cutoffs: Iterable[int] = DEFAULT_CUTOFFS,
) -> list[RepresentativenessRow]:
    """Compare surveyed developers against the whole population at activity cutoffs.

    Surveyed developers must be a subset of the population. At each cutoff
    only developers with activity >= cutoff remain; if either side empties,
    the row is marked insufficient-data instead of running the test.
    """
    missing = set(surveyed_counts) - set(all_counts)
    if missing:
        sample = ", ".join(sorted(missing)[:3])
        raise ParameterError(f"surveyed developers not in population: {sample}")
    rows = []
    for cutoff in cutoffs:
        population = [count for count in all_counts.values() if count >= cutoff]
        surveyed = [count for count in surveyed_counts.values() if count >= cutoff]
        ks = ks_two_sample(population, surveyed) if population and surveyed else None
        rows.append(
            RepresentativenessRow(
                cutoff,
                STATUS_OK if ks is not None else STATUS_INSUFFICIENT,
                summarize(population) if population else None,
                summarize(surveyed) if surveyed else None,
                ks,
            )
        )
    return rows


def _number(value: float) -> str:
    return f"{value:.6g}"


def _summary_cells(summary: PopulationSummary | None) -> list[str]:
    """``n``, then the six numbers in ``PopulationSummary``'s field order."""
    if summary is None:
        return ["0"] + [""] * (len(PopulationSummary._fields) - 1)
    return [str(summary.n), *map(_number, summary[1:])]


def representativeness_to_csv(rows: Sequence[RepresentativenessRow]) -> str:
    """Two CSV lines per cutoff (population, then surveyed); D and p sit on the first."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPRESENTATIVENESS_CSV_HEADER)
    for row in rows:
        if row.ks is not None:
            d_cell, p_cell = _number(row.ks.d_statistic), _number(row.ks.p_value)
        else:
            d_cell, p_cell = STATUS_INSUFFICIENT, STATUS_INSUFFICIENT
        writer.writerow([row.cutoff, "all", *_summary_cells(row.all_summary), d_cell, p_cell])
        writer.writerow([row.cutoff, "surveyed", *_summary_cells(row.surveyed_summary), "", ""])
    return buffer.getvalue()

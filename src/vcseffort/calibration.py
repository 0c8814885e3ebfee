"""Threshold calibration: confusion counts, retrieval measures, and goodness sweeps."""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Mapping, NamedTuple, Sequence

from . import SELECT_LOWER_MEDIAN, SELECT_MAX, SELECT_MIN, SELECTION_POLICIES
from .errors import CalibrationError, ConfigError, ParameterError
from .survey import LABEL_FULL, SurveyLabel


class ThresholdMetrics(NamedTuple):
    theta: int
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    accuracy: float
    f_measure: float
    goodness: float
    compensation: int  # fn - fp: positive when misses outweigh false alarms


SWEEP_CSV_HEADER = ThresholdMetrics._fields

# Builds a ThresholdMetrics from one 11-tuple without the named tuple's Python-level __new__.
_new_metrics = partial(tuple.__new__, ThresholdMetrics)


class ThetaSelection(NamedTuple):
    argmax_thetas: tuple[int, ...]
    argmax_range: tuple[int, int]
    selected_theta: int
    max_goodness: float
    policy: str


def confusion_at(
    theta: int,
    counts: Mapping[str, int],
    labels: Sequence[SurveyLabel],
) -> tuple[int, int, int, int]:
    """Confusion counts (tp, fp, fn, tn) for predicting full-time as activity >= theta.

    Developers missing from ``counts`` have zero activity.
    """
    if theta < 1:
        raise ParameterError(f"theta must be >= 1, got {theta}")
    tp = fp = fn = tn = 0
    for label in labels:
        predicted_full = counts.get(label.developer_id, 0) >= theta
        if label.label == LABEL_FULL:
            if predicted_full:
                tp += 1
            else:
                fn += 1
        else:
            if predicted_full:
                fp += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def metrics_at(
    theta: int,
    counts: Mapping[str, int],
    labels: Sequence[SurveyLabel],
) -> ThresholdMetrics:
    """All measures at one threshold.

    Precision and recall default to 1 on a zero denominator (nothing retrieved,
    or nothing to retrieve, is not an error). F is 0 when both are 0. Goodness
    1 - |fp - fn| / (tp + fn + fp) rewards compensating errors and is defined
    as 1 when its denominator is zero.
    """
    return _measures(theta, *confusion_at(theta, counts, labels))


def _measures(theta: int, tp: int, fp: int, fn: int, tn: int) -> ThresholdMetrics:
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 1.0
    f_measure = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    involved = tp + fn + fp
    goodness = 1.0 - abs(fp - fn) / involved if involved else 1.0
    return ThresholdMetrics(
        theta, tp, fp, fn, tn, precision, recall, accuracy, f_measure, goodness, fn - fp
    )


def sweep(
    counts: Mapping[str, int],
    labels: Sequence[SurveyLabel],
    theta_max: int | None = None,
) -> list[ThresholdMetrics]:
    """Metrics for every integer threshold 1..theta_max.

    The default upper bound is one past the highest labeled developer's
    activity, so the sweep always reaches the degenerate nobody-is-full-time
    end.

    Predicting full-time as activity >= theta, the confusion counts change only
    at theta = c + 1 for a labeled count c, so the sweep is a run of steps. The
    measures are computed once per step, at its first threshold, and every
    threshold in the step shares them. At a step's start, the misses (fn) and
    true negatives (tn) are the labeled counts below it, found by bisection in
    each class's sorted counts, and tp and fp are their complements.
    """
    if not labels:
        raise CalibrationError("cannot sweep thresholds without labeled developers")
    full: list[int] = []
    other: list[int] = []
    for label in labels:
        (full if label.label == LABEL_FULL else other).append(counts.get(label.developer_id, 0))
    full.sort()
    other.sort()
    if theta_max is None:
        theta_max = max(full[-1:] + other[-1:]) + 1
    if theta_max < 1:
        raise ParameterError(f"theta_max must be >= 1, got {theta_max}")
    starts = sorted({1, *(c + 1 for c in full + other if 0 < c < theta_max)})
    metrics: list[ThresholdMetrics] = []
    for start, end in zip(starts, starts[1:] + [theta_max + 1]):
        fn = bisect_left(full, start)
        tn = bisect_left(other, start)
        tail = _measures(start, len(full) - fn, len(other) - tn, fn, tn)[1:]
        metrics += [_new_metrics((theta,) + tail) for theta in range(start, end)]
    return metrics


def select_theta(
    metrics: Sequence[ThresholdMetrics],
    policy: str = SELECT_LOWER_MEDIAN,
) -> ThetaSelection:
    """Pick a threshold from the goodness argmax set.

    The argmax set is reported in full; the policy picks min, max, or the
    lower median (the default breaks even-sized ties toward the smaller
    threshold).
    """
    if not metrics:
        raise CalibrationError("cannot select a threshold from an empty sweep")
    if policy not in SELECTION_POLICIES:
        raise ConfigError(f"unknown selection policy {policy!r}")
    best = max(m.goodness for m in metrics)
    argmax = tuple(m.theta for m in metrics if m.goodness == best)
    if policy == SELECT_MIN:
        selected = argmax[0]
    elif policy == SELECT_MAX:
        selected = argmax[-1]
    else:
        selected = argmax[(len(argmax) - 1) // 2]
    return ThetaSelection(argmax, (argmax[0], argmax[-1]), selected, best, policy)


def sweep_to_csv(metrics: Sequence[ThresholdMetrics]) -> str:
    """One CSV row per threshold. No field ever needs quoting: ints, ``%.6f`` floats.

    A sweep's rows repeat their ten measures across a step, so each distinct
    run of measures is formatted once.
    """
    rows = [",".join(SWEEP_CSV_HEADER)]
    tail = None
    for m in metrics:
        if m[1:] != tail:
            tail = m[1:]
            text = (
                f"{m.tp},{m.fp},{m.fn},{m.tn},{m.precision:.6f},{m.recall:.6f},"
                f"{m.accuracy:.6f},{m.f_measure:.6f},{m.goodness:.6f},{m.compensation}"
            )
        rows.append(f"{m.theta},{text}")
    rows.append("")
    return "\n".join(rows)

"""Threshold sweeps: confusion counts, measure definitions, and selection policy."""

from __future__ import annotations

import random

import pytest

import reference_model
from conftest import (
    ARGMAX_RANGE,
    EXPECTED_FN,
    EXPECTED_FP,
    EXPECTED_GOODNESS,
    EXPECTED_TN,
    EXPECTED_TP,
    SELECTED_THETA,
)
from vcseffort.calibration import (
    SELECTION_POLICIES,
    SWEEP_CSV_HEADER,
    ThresholdMetrics,
    confusion_at,
    metrics_at,
    select_theta,
    sweep,
    sweep_to_csv,
)
from vcseffort.errors import CalibrationError, ConfigError, ParameterError
from vcseffort.survey import LABEL_FULL, LABEL_NON_FULL, SurveyLabel


def label(developer_id: str, full: bool) -> SurveyLabel:
    return SurveyLabel(developer_id, LABEL_FULL if full else LABEL_NON_FULL, "self", True)


def population(full_counts, other_counts):
    """Build (counts, labels) from two activity lists."""
    counts = {}
    labels = []
    for i, value in enumerate(full_counts):
        counts[f"f{i}"] = value
        labels.append(label(f"f{i}", True))
    for i, value in enumerate(other_counts):
        counts[f"o{i}"] = value
        labels.append(label(f"o{i}", False))
    return counts, labels


def test_reference_sweep_confusion_columns(ref_counts, ref_labels):
    metrics = sweep(ref_counts, ref_labels, theta_max=13)
    assert [m.theta for m in metrics] == list(range(1, 14))
    assert [m.tp for m in metrics] == EXPECTED_TP
    assert [m.fp for m in metrics] == EXPECTED_FP
    assert [m.fn for m in metrics] == EXPECTED_FN
    assert [m.tn for m in metrics] == EXPECTED_TN


def test_reference_sweep_goodness_column(ref_counts, ref_labels):
    metrics = sweep(ref_counts, ref_labels, theta_max=13)
    assert [f"{m.goodness:.2f}" for m in metrics] == EXPECTED_GOODNESS


def test_reference_selection(ref_counts, ref_labels):
    metrics = sweep(ref_counts, ref_labels, theta_max=13)
    selection = select_theta(metrics)
    assert selection.argmax_thetas == (9, 10, 11)
    assert selection.argmax_range == ARGMAX_RANGE
    assert selection.selected_theta == SELECTED_THETA
    assert f"{selection.max_goodness:.2f}" == "0.80"
    assert select_theta(metrics, "min").selected_theta == 9
    assert select_theta(metrics, "max").selected_theta == 11


def test_default_sweep_bound_reaches_past_all_activity(ref_counts, ref_labels):
    metrics = sweep(ref_counts, ref_labels)
    assert metrics[-1].theta == max(ref_counts.values()) + 1
    assert metrics[-1].tp == 0
    assert metrics[-1].fp == 0


def test_unlabeled_developers_are_ignored_in_sweep(ref_counts, ref_labels):
    counts = dict(ref_counts, stranger=99)
    metrics = sweep(counts, ref_labels, theta_max=13)
    base = sweep(ref_counts, ref_labels, theta_max=13)
    assert metrics == base


def test_missing_counts_mean_zero_activity():
    labels = [label("present", True), label("absent", True)]
    tp, fp, fn, tn = confusion_at(1, {"present": 5}, labels)
    assert (tp, fp, fn, tn) == (1, 0, 1, 0)


def test_degenerate_denominators_default_to_one():
    # Nobody is predicted full and nobody is labeled full: all measures are 1.
    counts, labels = population([], [2, 3])
    m = metrics_at(10, counts, labels)
    assert (m.tp, m.fp, m.fn, m.tn) == (0, 0, 0, 2)
    assert (m.precision, m.recall, m.accuracy, m.goodness) == (1.0, 1.0, 1.0, 1.0)
    assert m.f_measure == 1.0


def test_f_measure_zero_when_precision_and_recall_zero():
    counts, labels = population([0], [5])
    m = metrics_at(1, counts, labels)
    assert (m.tp, m.fp, m.fn, m.tn) == (0, 1, 1, 0)
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f_measure == 0.0
    assert m.goodness == 1.0  # fp == fn compensate exactly


def test_no_labels_rejected():
    with pytest.raises(CalibrationError, match="label"):
        sweep({"a": 3}, [])
    with pytest.raises(CalibrationError, match="empty"):
        select_theta([])


def test_bad_parameters_rejected(ref_counts, ref_labels):
    with pytest.raises(ParameterError, match="theta"):
        confusion_at(0, ref_counts, ref_labels)
    with pytest.raises(ParameterError, match="theta_max"):
        sweep(ref_counts, ref_labels, theta_max=0)
    metrics = sweep(ref_counts, ref_labels, theta_max=3)
    with pytest.raises(ConfigError, match="policy"):
        select_theta(metrics, "random")


def fabricated(theta: int, goodness: float) -> ThresholdMetrics:
    return ThresholdMetrics(theta, 0, 0, 0, 0, 1.0, 1.0, 1.0, 1.0, goodness, 0)


def test_lower_median_tie_breaking():
    # Odd tie: the middle threshold; even tie: the lower of the two middles.
    odd = [fabricated(t, g) for t, g in [(1, 0.5), (2, 0.9), (3, 0.9), (4, 0.9), (5, 0.1)]]
    assert select_theta(odd).selected_theta == 3
    even = [fabricated(t, g) for t, g in [(1, 0.9), (2, 0.9), (3, 0.9), (4, 0.9)]]
    assert select_theta(even).selected_theta == 2
    single = [fabricated(1, 0.3), fabricated(2, 0.8)]
    assert select_theta(single).selected_theta == 2


def test_noncontiguous_argmax_reported_in_full():
    metrics = [fabricated(t, g) for t, g in [(1, 0.9), (2, 0.4), (3, 0.9), (4, 0.9)]]
    selection = select_theta(metrics)
    assert selection.argmax_thetas == (1, 3, 4)
    assert selection.argmax_range == (1, 4)
    assert selection.selected_theta == 3  # lower median of the argmax set


def test_goodness_one_iff_errors_compensate():
    rng = random.Random(555)
    for _ in range(200):
        counts, labels = population(
            [rng.randrange(0, 15) for _ in range(rng.randrange(0, 6))],
            [rng.randrange(0, 15) for _ in range(rng.randrange(0, 6))],
        )
        if not labels:
            continue
        theta = rng.randrange(1, 17)
        m = metrics_at(theta, counts, labels)
        if m.tp + m.fn + m.fp == 0:
            assert m.goodness == 1.0
        else:
            assert (m.goodness == 1.0) == (m.fp == m.fn)
        assert m.compensation == m.fn - m.fp
        assert 0.0 <= m.goodness <= 1.0


def test_goodness_prefers_compensating_errors_over_f():
    """Two confusion outcomes where F and goodness rank oppositely."""
    # Outcome A: tp=8, fn=2, fp=4. Outcome B: tp=7, fn=3, fp=4.
    counts_a, labels_a = population([10] * 8 + [0] * 2, [10] * 4)
    counts_b, labels_b = population([10] * 7 + [0] * 3, [10] * 4)
    a = metrics_at(10, counts_a, labels_a)
    b = metrics_at(10, counts_b, labels_b)
    assert (a.tp, a.fn, a.fp) == (8, 2, 4)
    assert (b.tp, b.fn, b.fp) == (7, 3, 4)
    assert f"{a.f_measure:.2f}" == "0.73"
    assert f"{b.f_measure:.2f}" == "0.67"
    assert round(a.goodness, 3) == 0.857
    assert round(b.goodness, 3) == 0.929
    assert a.f_measure > b.f_measure
    assert b.goodness > a.goodness
    assert abs(b.compensation) < abs(a.compensation)


def test_sweep_matches_brute_force_oracle():
    rng = random.Random(2718)
    for _ in range(60):
        counts, labels = population(
            [rng.randrange(0, 30) for _ in range(rng.randrange(1, 8))],
            [rng.randrange(0, 30) for _ in range(rng.randrange(1, 20))],
        )
        assert sweep(counts, labels) == reference_model.sweep(counts, labels)


def test_sweep_matches_per_threshold_oracle():
    rng = random.Random(5151)
    for case in range(90):
        shape = case % 3  # mixed, all full-time, all non-full-time
        n_full = rng.randrange(1, 8) if shape != 2 else 0
        n_other = rng.randrange(1, 12) if shape != 1 else 0
        counts, labels = population(
            [rng.randrange(0, 40) for _ in range(n_full)],
            [rng.randrange(0, 40) for _ in range(n_other)],
        )
        for absent in rng.sample(labels, rng.randrange(0, len(labels) + 1) // 2):
            del counts[absent.developer_id]  # labeled but absent: zero activity
        counts["unlabeled"] = rng.randrange(0, 60)
        top = max([counts.get(l.developer_id, 0) for l in labels])
        theta_max = rng.choice([None, 1, top, top + rng.randrange(1, 20)])

        metrics = sweep(counts, labels, theta_max)
        assert metrics == reference_model.sweep(counts, labels, theta_max)
        for policy in SELECTION_POLICIES:
            assert select_theta(metrics, policy) == reference_model.select(metrics, policy)


def test_confusion_monotone_in_theta():
    rng = random.Random(161803)
    for _ in range(40):
        counts, labels = population(
            [rng.randrange(0, 25) for _ in range(5)],
            [rng.randrange(0, 25) for _ in range(10)],
        )
        metrics = sweep(counts, labels)
        for earlier, later in zip(metrics, metrics[1:]):
            assert later.tp <= earlier.tp
            assert later.fp <= earlier.fp
            assert later.fn >= earlier.fn
            assert later.tn >= earlier.tn
        selection = select_theta(metrics)
        assert selection.selected_theta in selection.argmax_thetas
        assert selection.max_goodness == max(m.goodness for m in metrics)


def test_sweep_csv_layout(ref_counts, ref_labels):
    text = sweep_to_csv(sweep(ref_counts, ref_labels, theta_max=2))
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert lines[1] == "1,4,4,0,0,0.500000,1.000000,0.500000,0.666667,0.500000,-4"
    assert len(lines) == 3


def _stepped_populations():
    """Tied counts, a missing class, and heavy tails whose steps spread over thousands."""
    rng = random.Random(7321)
    populations = [
        population([5, 5, 5], [5, 5]),
        population([], [0, 3, 3, 9]),
        population([0, 2, 2, 30_000], []),
    ]
    for _ in range(4):
        populations.append(
            population(
                [min(int(rng.paretovariate(0.6)), 30_000) for _ in range(rng.randrange(1, 12))],
                [min(int(rng.paretovariate(0.9)) - 1, 30_000) for _ in range(rng.randrange(1, 25))],
            )
        )
    return populations


def test_sweep_steps_match_metrics_at_every_threshold():
    """The measures computed once per step equal metrics_at at every theta of the step."""
    for counts, labels in _stepped_populations():
        for theta_max in (1, None, 20_000):
            metrics = sweep(counts, labels, theta_max)
            bound = max(counts.values()) + 1 if theta_max is None else theta_max
            assert metrics == [metrics_at(theta, counts, labels) for theta in range(1, bound + 1)]
            assert {type(m) for m in metrics} == {ThresholdMetrics}


def test_sweep_csv_matches_the_csv_writer_rows():
    sweeps = [sweep(counts, labels, 20_000) for counts, labels in _stepped_populations()]
    # Rows not from a sweep: equal confusion counts with other measures, a run that recurs.
    sweeps += [[], [fabricated(1, 0.5), fabricated(2, 0.25), fabricated(3, 0.25), fabricated(4, 0.5)]]
    for metrics in sweeps:
        assert sweep_to_csv(metrics) == reference_model.sweep_csv(metrics)

"""Synthetic populations: determinism, support bounds, separability, fixture round trips."""

from __future__ import annotations

import hashlib
import io
import random
from datetime import date

import pytest

from conftest import timelines
from vcseffort.activity import activity_in_window
from vcseffort.calibration import confusion_at, metrics_at, select_theta, sweep
from vcseffort.errors import GenerationError
from vcseffort.identity import resolve_identities
from vcseffort.ingest import parse_log_stream
from vcseffort.survey import LABEL_FULL, LABEL_NON_FULL, load_survey, triangulate
from vcseffort.synth import PopulationSpec, _power_law_values, fixture_files, generate

ANCHOR = date(2020, 7, 1)


def spec(**overrides) -> PopulationSpec:
    base = dict(n_fulltime=6, n_other=30, theta_true=10, skew_exponent=2.0,
                label_noise=0.0, seed=7)
    base.update(overrides)
    return PopulationSpec(**base)


def test_generation_is_deterministic():
    first = generate(spec())
    second = generate(spec())
    assert first.counts == second.counts
    assert first.labels == second.labels
    assert first.ground_truth == second.ground_truth


def test_seeds_change_the_population():
    assert generate(spec(seed=1)).counts != generate(spec(seed=2)).counts


def test_support_bounds_and_label_split():
    population = generate(spec(n_fulltime=40, n_other=200, theta_true=8))
    truth = population.ground_truth
    full_ids = {label.developer_id for label in population.labels if label.label == LABEL_FULL}
    assert len(full_ids) == 40
    for developer_id, count in population.counts.items():
        if developer_id in full_ids:
            assert 8 <= count <= 80
        else:
            assert 1 <= count <= 7
    assert truth.min_fulltime_activity >= 8
    assert truth.max_other_activity <= 7


def test_planted_threshold_separates_before_noise():
    population = generate(spec(n_fulltime=12, n_other=60, theta_true=15, seed=3))
    counts, labels = population.counts, list(population.labels)
    tp, fp, fn, tn = confusion_at(15, counts, labels)
    assert (fp, fn) == (0, 0)
    assert tp == 12 and tn == 60
    assert metrics_at(15, counts, labels).goodness == 1.0
    low, high = population.ground_truth.separating_range()
    assert low <= 15 <= high


def test_selection_recovers_planted_range():
    population = generate(spec(seed=11))
    selection = select_theta(sweep(population.counts, list(population.labels)))
    low, high = population.ground_truth.separating_range()
    assert low <= selection.selected_theta <= high
    assert selection.max_goodness == 1.0


def test_skew_concentrates_low_activity():
    population = generate(spec(n_fulltime=0, n_other=3000, theta_true=10, seed=5))
    values = sorted(population.counts.values())
    # A power law over [1, 9] puts most of the mass at the bottom.
    assert values[len(values) // 2] <= 2
    assert sum(values) / len(values) < 5.0


def _scan_power_law_values(rng, low, high, exponent, size):
    """Reference: a linear scan of the cumulative weights for each draw."""
    support = range(low, high + 1)
    cumulative = []
    acc = 0.0
    for k in support:
        acc += k**-exponent
        cumulative.append(acc)
    values = []
    for _ in range(size):
        target = rng.random() * cumulative[-1]
        for k, bound in zip(support, cumulative):
            if target <= bound:
                values.append(k)
                break
        else:
            values.append(high)
    return values


def test_power_law_values_match_a_linear_scan():
    specs = random.Random(3)
    for _ in range(300):
        low = specs.randint(1, 50)
        high = low + specs.randint(0, 300)
        exponent = 10 ** specs.uniform(-2, 3)
        size = specs.randint(0, 200)
        seed = specs.randrange(2**32)
        fast, slow = random.Random(seed), random.Random(seed)
        assert _power_law_values(fast, low, high, exponent, size) == _scan_power_law_values(
            slow, low, high, exponent, size
        )
        assert fast.random() == slow.random()  # both consumed exactly one draw per value


def test_label_noise_flips_are_recorded():
    population = generate(spec(n_fulltime=50, n_other=250, theta_true=6,
                               label_noise=0.2, seed=13))
    truth = population.ground_truth
    flipped = set(truth.flipped)
    assert 0 < len(flipped) < 150  # loose: around 20% of 300
    by_id = {label.developer_id: label for label in population.labels}
    full_ids = {f"dev{i:05d}@synth.example" for i in range(50)}
    for developer_id in flipped:
        expected = LABEL_NON_FULL if developer_id in full_ids else LABEL_FULL
        assert by_id[developer_id].label == expected
    for developer_id, label in by_id.items():
        if developer_id not in flipped:
            expected = LABEL_FULL if developer_id in full_ids else LABEL_NON_FULL
            assert label.label == expected


def test_noise_rate_is_roughly_respected():
    rng = random.Random(77)
    for _ in range(10):
        noise = rng.choice([0.05, 0.1, 0.3])
        population = generate(spec(n_fulltime=100, n_other=400, theta_true=5,
                                   label_noise=noise, seed=rng.randrange(1 << 16)))
        rate = len(population.ground_truth.flipped) / 500
        assert abs(rate - noise) < 0.08


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(n_fulltime=-1), "sizes"),
        (dict(n_fulltime=0, n_other=0), "at least one"),
        (dict(theta_true=0), "theta_true"),
        (dict(theta_true=1), "theta_true"),
        (dict(label_noise=1.5), "label_noise"),
        (dict(skew_exponent=0.0), "skew_exponent"),
        (dict(skew_exponent=float("nan")), "skew_exponent"),
        (dict(n_other=-1), "sizes"),
        (dict(n_other=1, theta_true=1), "theta_true must be >= 2"),
    ],
)
def test_invalid_specs_rejected(overrides, message):
    with pytest.raises(GenerationError, match=message):
        generate(spec(**overrides))


def test_theta_one_allowed_without_others():
    population = generate(spec(n_fulltime=4, n_other=0, theta_true=1))
    assert population.ground_truth.separating_range() == (1, population.ground_truth.min_fulltime_activity)
    assert all(count >= 1 for count in population.counts.values())


def test_separating_range_none_without_fulltimers():
    population = generate(spec(n_fulltime=0, n_other=5, theta_true=4))
    assert population.ground_truth.separating_range() is None


@pytest.mark.parametrize(
    "overrides,digest",
    [
        (dict(n_fulltime=0, n_other=9, theta_true=4),
         "744641fcc234302e83a0f4d7c6e10430990d79fd3b991036f09c5a34b0c07f80"),
        (dict(n_fulltime=6, n_other=0, theta_true=1),
         "764ca2d3ba43b263af0b04905ef59a9389f7d5fe07a1f58a566f1b0e80553a15"),
        (dict(label_noise=1.0),
         "fd43732ef7d233236a9738f9befc887f3db70d6bf5992439e4071ce14aa72328"),
    ],
)
def test_edge_populations_match_their_frozen_digests(overrides, digest):
    # Counts, labels and ground truth, draw for draw, as generated when each group
    # kept its own id list and label map.
    population = generate(spec(**overrides))
    assert hashlib.sha256(repr(tuple(population)).encode("utf-8")).hexdigest() == digest


def test_fixture_files_round_trip(tmp_path):
    population = generate(spec(seed=21))
    files = fixture_files(population, ANCHOR, period_months=6)
    assert list(files) == ["commits.log", "survey.csv", "ground_truth.json"]

    result = parse_log_stream(io.StringIO(files["commits.log"]))
    assert result.malformed == []
    assert len(result.records) == sum(population.counts.values())
    assignments, roster = resolve_identities(timelines(result.records))
    counts = activity_in_window(timelines(result.records), assignments, ANCHOR, 6)
    assert counts == population.counts

    survey = tmp_path / "survey.csv"
    survey.write_text(files["survey.csv"], encoding="utf-8")
    labels, exclusions = triangulate(load_survey(str(survey)), roster)
    assert exclusions == []
    assert {(l.developer_id, l.label) for l in labels} == {
        (l.developer_id, l.label) for l in population.labels
    }

    truth = files["ground_truth.json"]
    assert truth["theta_true"] == 10
    assert truth["counts"] == population.counts
    assert truth["separating_range"] == population.ground_truth.separating_range()


def test_fixture_files_jsonl():
    population = generate(spec(n_fulltime=3, n_other=5, seed=2))
    files = fixture_files(population, ANCHOR, log_format="jsonl")
    assert list(files) == ["commits.jsonl", "survey.csv", "ground_truth.json"]
    result = parse_log_stream(io.StringIO(files["commits.jsonl"]), fmt="jsonl")
    assert result.malformed == []
    assert len(result.records) == sum(population.counts.values())


def test_fixture_files_rejects_unknown_format():
    with pytest.raises(GenerationError, match="format"):
        fixture_files(generate(spec()), ANCHOR, log_format="csv")


def test_commit_timestamps_stay_inside_window():
    population = generate(spec(seed=9))
    files = fixture_files(population, ANCHOR, period_months=1)
    records = parse_log_stream(io.StringIO(files["commits.log"])).records
    from vcseffort.activity import date_to_epoch, subtract_months

    start = date_to_epoch(subtract_months(ANCHOR, 1))
    end = date_to_epoch(ANCHOR)
    assert all(start <= record.author_timestamp < end for record in records)

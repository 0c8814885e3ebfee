"""Seeded synthetic developer populations with a planted full-time threshold.

Generated activity is skewed (discrete power law): full-timers draw from
[theta_true, 10 * theta_true], everyone else from [1, theta_true - 1], so the
planted threshold separates the two groups perfectly before label noise.

``fixture_files`` writes nothing: ``vcs-effort synth`` writes the three files it
returns, then ``run.json``, through the CLI's one writer.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from datetime import date
from itertools import accumulate
from typing import NamedTuple

from .activity import date_to_epoch, subtract_months
from .errors import GenerationError
from .ingest import CommitRecord, to_jsonl_line, to_pipe_line
from .survey import (
    LABEL_FULL,
    LABEL_NON_FULL,
    PROVENANCE_SELF,
    SURVEY_HEADER,
    SurveyLabel,
)


class PopulationSpec(NamedTuple):
    n_fulltime: int
    n_other: int
    theta_true: int
    skew_exponent: float = 2.0
    label_noise: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_fulltime < 0 or self.n_other < 0:
            raise GenerationError("population sizes must be >= 0")
        if self.n_fulltime + self.n_other == 0:
            raise GenerationError("population must contain at least one developer")
        if self.theta_true < 1:
            raise GenerationError(f"theta_true must be >= 1, got {self.theta_true}")
        if self.n_other > 0 and self.theta_true < 2:
            raise GenerationError(
                "theta_true must be >= 2 when non-full-time developers exist"
            )
        if not 0.0 <= self.label_noise <= 1.0:
            raise GenerationError(f"label_noise must be in [0, 1], got {self.label_noise}")
        if not self.skew_exponent > 0:
            raise GenerationError(f"skew_exponent must be > 0, got {self.skew_exponent}")


class GroundTruth(NamedTuple):
    theta_true: int
    min_fulltime_activity: int | None
    max_other_activity: int | None
    flipped: tuple[str, ...]  # developer ids whose label was noise-inverted

    def separating_range(self) -> tuple[int, int] | None:
        """Thresholds that classify the pre-noise population perfectly."""
        if self.min_fulltime_activity is None:
            return None
        low = (self.max_other_activity or 0) + 1
        return (low, self.min_fulltime_activity)


class SyntheticPopulation(NamedTuple):
    spec: PopulationSpec
    counts: dict[str, int]  # developer id -> activity in the generation window
    labels: tuple[SurveyLabel, ...]
    ground_truth: GroundTruth


def _power_law_values(rng: random.Random, low: int, high: int, exponent: float, size: int) -> list[int]:
    """Inverse-CDF sampling of integers in [low, high] with weight k^-exponent."""
    cumulative = list(accumulate(k**-exponent for k in range(low, high + 1)))
    total = cumulative[-1]
    # random() < 1, so the target never exceeds total and always finds a bound.
    return [low + bisect_left(cumulative, rng.random() * total) for _ in range(size)]


def _developer_id(index: int) -> str:
    return f"dev{index:05d}@synth.example"


def generate(spec: PopulationSpec) -> SyntheticPopulation:
    """Deterministically generate a labeled population from the spec's seed."""
    spec.validate()
    rng = random.Random(spec.seed)

    ids = [_developer_id(i) for i in range(spec.n_fulltime + spec.n_other)]
    values = _power_law_values(
        rng, spec.theta_true, spec.theta_true * 10, spec.skew_exponent, spec.n_fulltime
    )
    if spec.n_other:
        values += _power_law_values(rng, 1, spec.theta_true - 1, spec.skew_exponent, spec.n_other)
    counts = dict(zip(ids, values))

    flipped = []
    labels = []
    for index, developer_id in enumerate(ids):
        label = LABEL_FULL if index < spec.n_fulltime else LABEL_NON_FULL
        if spec.label_noise > 0 and rng.random() < spec.label_noise:
            label = LABEL_NON_FULL if label == LABEL_FULL else LABEL_FULL
            flipped.append(developer_id)
        labels.append(SurveyLabel(developer_id, label, PROVENANCE_SELF, True))

    ground_truth = GroundTruth(
        spec.theta_true,
        min(values[: spec.n_fulltime], default=None),
        max(values[spec.n_fulltime :], default=None),
        tuple(flipped),
    )
    return SyntheticPopulation(spec, counts, tuple(labels), ground_truth)


def fixture_files(
    population: SyntheticPopulation, anchor: date, period_months: int = 6, log_format: str = "pipe"
) -> dict[str, str | dict]:
    """A population's fixture by file name, in write order: the log and survey CSV as text,
    then the ground truth as a dict, which the CLI writes as JSON.

    Commits land inside [anchor - period_months, anchor); the survey is dated
    at the anchor, so calibrating on these files reproduces the generated
    activity counts exactly.
    """
    if log_format not in ("pipe", "jsonl"):
        raise GenerationError(f"unknown log format {log_format!r}")
    start_epoch = date_to_epoch(subtract_months(anchor, period_months))
    span = date_to_epoch(anchor) - start_epoch
    to_line = to_pipe_line if log_format == "pipe" else to_jsonl_line
    log = []
    for index, (developer_id, count) in enumerate(population.counts.items()):
        name = f"Synth Dev {index:05d}"
        for k in range(count):
            # Spread commits evenly across the window, away from both edges.
            timestamp = start_epoch + ((2 * k + 1) * span) // (2 * count)
            record = CommitRecord(f"{index:06x}{k:08x}", name, developer_id, timestamp)
            log.append(to_line(record) + "\n")

    survey = [",".join(SURVEY_HEADER) + "\n"]
    for label in population.labels:
        self_class = "full" if label.label == LABEL_FULL else "part"
        survey.append(f"{label.developer_id},{self_class},,{anchor.isoformat()},\n")

    truth = population.ground_truth
    return {
        "commits.log" if log_format == "pipe" else "commits.jsonl": "".join(log),
        "survey.csv": "".join(survey),
        "ground_truth.json": {
            **truth._asdict(),
            "separating_range": truth.separating_range(),
            "seed": population.spec.seed,
            "counts": population.counts,
        },
    }

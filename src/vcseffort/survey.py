"""Survey ingestion and triangulation into binary full-time labels."""

from __future__ import annotations

import csv
from datetime import date
from typing import Iterable, NamedTuple, Sequence

from .errors import IngestionError
from .identity import CanonicalDeveloper, email_index
from .ingest import iso_date, open_input

SELF_CLASSES = ("full", "part", "occasional", "")
HOURS_BUCKETS = ("gt40", "40", "30", "20", "10", "lt5", "")

FULL_TIME_HOURS = ("gt40", "40")
LOW_HOURS = ("10", "lt5")

LABEL_FULL = "full-time"
LABEL_NON_FULL = "non-full-time"

PROVENANCE_SELF = "self"
PROVENANCE_TRIANGULATED = "triangulated"
PROVENANCE_AMENDED = "amended"

EXCLUDE_SUSPECT = "suspect"
EXCLUDE_EMPTY = "empty"
EXCLUDE_UNMATCHED = "unmatched"
EXCLUDE_DUPLICATE = "duplicate"
EXCLUDE_INCONSISTENT = "inconsistent"

SURVEY_HEADER = ("email", "self_class", "hours_bucket", "survey_date", "suspect")

# A suspect cell, lowered -> whether it flags the response.
_SUSPECT_FLAGS = {
    "1": True, "true": True, "yes": True, "": False, "0": False, "false": False, "no": False,
}


class SurveyResponse(NamedTuple):
    respondent_email: str
    self_class: str
    hours_bucket: str
    survey_date: date
    free_text_flag: bool = False  # set when free-text answers mark the response suspect


class SurveyLabel(NamedTuple):
    developer_id: str
    label: str  # LABEL_FULL or LABEL_NON_FULL
    provenance: str  # self | triangulated | amended
    consistent: bool = True


class Exclusion(NamedTuple):
    respondent_email: str
    reason: str


def load_survey(path: str) -> list[SurveyResponse]:
    """Read survey responses from CSV with the exact five-column header."""
    responses = []
    with open_input(path, "survey file", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"survey file {path} is empty") from None
        if tuple(cell.strip() for cell in header) != SURVEY_HEADER:
            raise IngestionError(
                f"survey file {path} must start with header "
                f"{','.join(SURVEY_HEADER)}, got {','.join(header)}"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            where = f"survey file {path} row {row_no}"
            if len(row) != len(SURVEY_HEADER):
                raise IngestionError(f"{where}: expected {len(SURVEY_HEADER)} columns, got {len(row)}")
            email, self_class, hours, date_text, suspect = (cell.strip() for cell in row)
            if self_class not in SELF_CLASSES:
                raise IngestionError(f"{where}: bad self_class {self_class!r}")
            if hours not in HOURS_BUCKETS:
                raise IngestionError(f"{where}: bad hours_bucket {hours!r}")
            try:
                when = iso_date(date_text)
            except ValueError:
                raise IngestionError(f"{where}: bad survey_date {date_text!r}") from None
            flagged = _SUSPECT_FLAGS.get(suspect.lower())
            if flagged is None:
                raise IngestionError(f"{where}: bad suspect flag {suspect!r}")
            responses.append(SurveyResponse(email, self_class, hours, when, flagged))
    return responses


def _classify(response: SurveyResponse) -> tuple[str, str]:
    """Apply the ordered labeling rules; returns (label, provenance)."""
    if response.self_class in ("full", "part", "occasional"):
        label = LABEL_FULL if response.self_class == "full" else LABEL_NON_FULL
        return label, PROVENANCE_TRIANGULATED if response.hours_bucket else PROVENANCE_SELF
    # No recognised self classification: the hours bucket alone decides, marked amended.
    if response.hours_bucket in FULL_TIME_HOURS:
        return LABEL_FULL, PROVENANCE_AMENDED
    return LABEL_NON_FULL, PROVENANCE_AMENDED


def _is_consistent(response: SurveyResponse) -> bool:
    if response.self_class == "full" and response.hours_bucket in LOW_HOURS:
        return False
    if response.self_class in ("part", "occasional") and response.hours_bucket in FULL_TIME_HOURS:
        return False
    return True


def triangulate(
    responses: Sequence[SurveyResponse],
    roster: Iterable[CanonicalDeveloper],
    drop_inconsistent: bool = False,
) -> tuple[list[SurveyLabel], list[Exclusion]]:
    """Turn survey responses into one label per matched developer.

    Every response lands in exactly one bucket: a label, or an exclusion with
    a reason (suspect, empty, unmatched, duplicate, or inconsistent when
    ``drop_inconsistent`` is set). The first response for a developer wins.
    """
    index = email_index(roster)
    labels: list[SurveyLabel] = []
    exclusions: list[Exclusion] = []
    labeled: set[str] = set()
    for response in responses:
        if response.free_text_flag:
            exclusions.append(Exclusion(response.respondent_email, EXCLUDE_SUSPECT))
            continue
        if not response.self_class and not response.hours_bucket:
            exclusions.append(Exclusion(response.respondent_email, EXCLUDE_EMPTY))
            continue
        developer_id = index.get(response.respondent_email.lower())
        if developer_id is None:
            exclusions.append(Exclusion(response.respondent_email, EXCLUDE_UNMATCHED))
            continue
        if developer_id in labeled:
            exclusions.append(Exclusion(response.respondent_email, EXCLUDE_DUPLICATE))
            continue
        label, provenance = _classify(response)
        consistent = _is_consistent(response)
        if drop_inconsistent and not consistent:
            exclusions.append(Exclusion(response.respondent_email, EXCLUDE_INCONSISTENT))
            continue
        labeled.add(developer_id)
        labels.append(SurveyLabel(developer_id, label, provenance, consistent))
    return labels, exclusions

"""Survey loading and label triangulation rules."""

from __future__ import annotations

import random
from datetime import date

import pytest

from vcseffort.errors import IngestionError
from vcseffort.identity import AliasMap, CanonicalDeveloper, resolve_identities
from vcseffort.survey import (
    EXCLUDE_DUPLICATE,
    EXCLUDE_EMPTY,
    EXCLUDE_INCONSISTENT,
    EXCLUDE_SUSPECT,
    EXCLUDE_UNMATCHED,
    HOURS_BUCKETS,
    LABEL_FULL,
    LABEL_NON_FULL,
    PROVENANCE_AMENDED,
    PROVENANCE_SELF,
    PROVENANCE_TRIANGULATED,
    SELF_CLASSES,
    SurveyResponse,
    load_survey,
    triangulate,
)

WHEN = date(2013, 2, 1)


def developer(email: str) -> CanonicalDeveloper:
    return CanonicalDeveloper(email, email, frozenset({("Dev", email)}))


def response(email="d@x.org", self_class="", hours="", suspect=False) -> SurveyResponse:
    return SurveyResponse(email, self_class, hours, WHEN, suspect)


ROSTER = [developer("d@x.org"), developer("e@x.org")]


@pytest.mark.parametrize(
    "self_class,hours,label,provenance",
    [
        ("full", "", LABEL_FULL, PROVENANCE_SELF),
        ("full", "gt40", LABEL_FULL, PROVENANCE_TRIANGULATED),
        ("full", "10", LABEL_FULL, PROVENANCE_TRIANGULATED),
        ("part", "", LABEL_NON_FULL, PROVENANCE_SELF),
        ("part", "20", LABEL_NON_FULL, PROVENANCE_TRIANGULATED),
        ("occasional", "", LABEL_NON_FULL, PROVENANCE_SELF),
        ("occasional", "lt5", LABEL_NON_FULL, PROVENANCE_TRIANGULATED),
        ("", "gt40", LABEL_FULL, PROVENANCE_AMENDED),
        ("", "40", LABEL_FULL, PROVENANCE_AMENDED),
        ("", "30", LABEL_NON_FULL, PROVENANCE_AMENDED),
        ("", "20", LABEL_NON_FULL, PROVENANCE_AMENDED),
        ("", "10", LABEL_NON_FULL, PROVENANCE_AMENDED),
        ("", "lt5", LABEL_NON_FULL, PROVENANCE_AMENDED),
        # load_survey rejects other classes; a hand-built one falls to the hours rule.
        ("Full", "gt40", LABEL_FULL, PROVENANCE_AMENDED),
        ("Full", "", LABEL_NON_FULL, PROVENANCE_AMENDED),
        ("contractor", "40", LABEL_FULL, PROVENANCE_AMENDED),
        ("contractor", "10", LABEL_NON_FULL, PROVENANCE_AMENDED),
    ],
)
def test_labeling_rules(self_class, hours, label, provenance):
    labels, exclusions = triangulate([response(self_class=self_class, hours=hours)], ROSTER)
    assert exclusions == []
    assert len(labels) == 1
    assert labels[0].developer_id == "d@x.org"
    assert labels[0].label == label
    assert labels[0].provenance == provenance


@pytest.mark.parametrize(
    "self_class,hours,consistent",
    [
        ("full", "10", False),
        ("full", "lt5", False),
        ("part", "gt40", False),
        ("part", "40", False),
        ("occasional", "gt40", False),
        ("occasional", "40", False),
        ("full", "gt40", True),
        ("full", "30", True),
        ("full", "", True),
        ("part", "10", True),
        ("", "gt40", True),
        ("", "lt5", True),
    ],
)
def test_consistency_flag(self_class, hours, consistent):
    labels, _ = triangulate([response(self_class=self_class, hours=hours)], ROSTER)
    assert labels[0].consistent is consistent


def test_inconsistent_kept_by_default_dropped_on_request():
    inconsistent = response(self_class="full", hours="lt5")
    labels, exclusions = triangulate([inconsistent], ROSTER)
    assert len(labels) == 1 and labels[0].consistent is False
    labels, exclusions = triangulate([inconsistent], ROSTER, drop_inconsistent=True)
    assert labels == []
    assert exclusions[0].reason == EXCLUDE_INCONSISTENT


def test_exclusion_reasons():
    responses = [
        response(self_class="full", suspect=True),
        response(),  # both answers empty
        response(email="stranger@x.org", self_class="full"),
        response(self_class="full"),
        response(self_class="part"),  # same developer again
    ]
    labels, exclusions = triangulate(responses, ROSTER)
    assert [label.developer_id for label in labels] == ["d@x.org"]
    assert [e.reason for e in exclusions] == [
        EXCLUDE_SUSPECT,
        EXCLUDE_EMPTY,
        EXCLUDE_UNMATCHED,
        EXCLUDE_DUPLICATE,
    ]
    assert len(labels) + len(exclusions) == len(responses)


def test_suspect_checked_before_empty_and_match():
    labels, exclusions = triangulate([response(email="stranger@x.org", suspect=True)], ROSTER)
    assert labels == []
    assert exclusions[0].reason == EXCLUDE_SUSPECT


def test_email_match_is_case_insensitive_and_covers_aliases():
    roster = [
        CanonicalDeveloper(
            "a@x.org", "a@x.org", frozenset({("Dev", "a@x.org"), ("Dev", "OLD@y.org")})
        )
    ]
    labels, exclusions = triangulate(
        [response(email="A@X.ORG", self_class="full"),
         response(email="old@y.org", self_class="part")],
        roster,
    )
    assert [label.developer_id for label in labels] == ["a@x.org"]
    assert [e.reason for e in exclusions] == [EXCLUDE_DUPLICATE]


def test_response_from_a_directive_canonical_email_matches_its_developer():
    # The directive joins zz@x.org to Dee's group, which the smaller d@x.org names.
    _, roster = resolve_identities([("Dee", "d@x.org")], AliasMap((("d@x.org", "zz@x.org"),)))
    labels, exclusions = triangulate([response("ZZ@x.org", "full", "40")], roster)
    assert labels == [("d@x.org", LABEL_FULL, PROVENANCE_TRIANGULATED, True)]
    assert exclusions == []


def test_accounting_property():
    """Labels plus exclusions always partition the responses; one label per developer."""
    rng = random.Random(1234)
    roster = [developer(f"d{i}@x.org") for i in range(6)]
    emails = [f"d{i}@x.org" for i in range(6)] + ["nobody@x.org"]
    for _ in range(100):
        responses = [
            SurveyResponse(
                rng.choice(emails),
                rng.choice(SELF_CLASSES),
                rng.choice(HOURS_BUCKETS),
                WHEN,
                rng.random() < 0.15,
            )
            for _ in range(rng.randrange(0, 25))
        ]
        drop = rng.random() < 0.5
        labels, exclusions = triangulate(responses, roster, drop_inconsistent=drop)
        assert len(labels) + len(exclusions) == len(responses)
        ids = [label.developer_id for label in labels]
        assert len(ids) == len(set(ids))
        if drop:
            assert all(label.consistent for label in labels)


def survey_text(rows: list[str]) -> str:
    return "email,self_class,hours_bucket,survey_date,suspect\n" + "".join(
        row + "\n" for row in rows
    )


def test_load_survey(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        survey_text(
            [
                "d@x.org,full,gt40,2013-02-01,",
                "e@x.org,,10,2013-02-01,0",
                "f@x.org,part,,2013-01-15,1",
            ]
        ),
        encoding="utf-8",
    )
    responses = load_survey(str(path))
    assert len(responses) == 3
    assert responses[0] == SurveyResponse("d@x.org", "full", "gt40", WHEN, False)
    assert responses[1].hours_bucket == "10"
    assert responses[2].free_text_flag is True
    assert responses[2].survey_date == date(2013, 1, 15)


def test_load_survey_requires_exact_header(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("email,class,hours,date,flag\nd@x.org,full,,2013-02-01,\n")
    with pytest.raises(IngestionError, match="header"):
        load_survey(str(path))


@pytest.mark.parametrize(
    "row,message",
    [
        ("d@x.org,boss,,2013-02-01,", "self_class"),
        ("d@x.org,full,55,2013-02-01,", "hours_bucket"),
        ("d@x.org,full,,02/01/2013,", "survey_date"),
        ("d@x.org,full,,2013-02-01,maybe", "suspect"),
        ("d@x.org,full,,2013-02-01", "columns"),
    ],
)
def test_load_survey_rejects_bad_values(tmp_path, row, message):
    path = tmp_path / "survey.csv"
    path.write_text(survey_text([row]), encoding="utf-8")
    with pytest.raises(IngestionError, match=message):
        load_survey(str(path))


@pytest.mark.parametrize(
    "row,error",
    [
        ("d@x.org,boss,,2013-02-01,", "bad self_class 'boss'"),
        ("d@x.org,full, 55 ,2013-02-01,", "bad hours_bucket '55'"),
        ("d@x.org,full,,02/01/2013,", "bad survey_date '02/01/2013'"),
        ("d@x.org,full,,2013-02-01,maybe", "bad suspect flag 'maybe'"),
        ("d@x.org,full,,2013-02-01", "expected 5 columns, got 4"),
    ],
)
def test_load_survey_error_names_the_file_and_row(tmp_path, row, error):
    path = tmp_path / "survey.csv"
    path.write_text(survey_text(["e@x.org,part,10,2013-02-01,no", row]), encoding="utf-8")
    with pytest.raises(IngestionError) as caught:
        load_survey(str(path))
    assert str(caught.value) == f"survey file {path} row 3: {error}"


@pytest.mark.parametrize(
    "cell,flagged",
    [
        ("TRUE", True), ("Yes", True), ("1", True),
        ("", False), ("0", False), ("False", False), ("NO", False),
        ("y", None), ("2", None),
    ],
)
def test_load_survey_suspect_vocabulary(tmp_path, cell, flagged):
    path = tmp_path / "survey.csv"
    path.write_text(survey_text([f"d@x.org,full,,2013-02-01,{cell}"]), encoding="utf-8")
    if flagged is None:
        with pytest.raises(IngestionError, match=f"row 2: bad suspect flag '{cell}'$"):
            load_survey(str(path))
    else:
        assert load_survey(str(path))[0].free_text_flag is flagged


def test_load_survey_skips_blank_rows(tmp_path):
    path = tmp_path / "survey.csv"
    # Blank lines and rows whose cells are all empty carry no response.
    path.write_text(survey_text(["d@x.org,full,,2013-02-01,", "", ",,,,"]), encoding="utf-8")
    responses = load_survey(str(path))
    assert len(responses) == 1


def test_load_survey_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(IngestionError, match="empty"):
        load_survey(str(path))

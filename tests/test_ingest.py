"""Parsing, loss accounting, and filtering of commit logs."""

from __future__ import annotations

import ast
import csv
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import get_type_hints

import pytest

import reference_model
import vcseffort
from conftest import line_events
from gitrepo import COMMITTER, build_repo, git, linear
from vcseffort import ingest
from vcseffort.cli import main
from vcseffort.errors import ConfigError, IngestionError
from vcseffort.identity import resolve_identities
from vcseffort.ingest import (
    CommitRecord,
    DEFAULT_BOT_PATTERNS,
    DEFAULT_MALFORMED_TOLERANCE,
    FilterConfig,
    JSONL_REQUIRED_KEYS,
    MAX_TIMESTAMP,
    apply_filters,
    compile_bot_patterns,
    drop_bots,
    group_log_stream,
    load_bot_patterns,
    open_log,
    parse_log_file,
    parse_log_stream,
    read_repository_log,
    to_jsonl_line,
    to_pipe_line,
)


def make_record(i: int, name: str = "Ada Author", email: str = "ada@example.org") -> CommitRecord:
    return CommitRecord(f"hash{i:04d}", name, email, 1_600_000_000 + i, i % 3 == 0)


def test_pipe_line_round_trip():
    record = make_record(7)
    parsed = parse_log_stream([to_pipe_line(record)]).records
    assert parsed == [record]


def test_pipe_name_with_pipes_round_trips():
    record = CommitRecord("abc", "weird|name|here", "x@example.org", 1234567, False)
    parsed = parse_log_stream([to_pipe_line(record)]).records
    assert parsed == [record]


def test_jsonl_round_trip():
    record = make_record(3, name="Grace Åström")
    parsed = parse_log_stream([to_jsonl_line(record)], fmt="jsonl").records
    assert parsed == [record]


def test_round_trip_property():
    """Seeded random records survive serialize/parse in both formats."""
    rng = random.Random(20240817)
    names = ["Ada", "Björn B", "c|d| e", "  spaced  ", "X"]
    for trial in range(200):
        record = CommitRecord(
            hash=f"h{trial}-{rng.randrange(1 << 30):x}",
            author_name=rng.choice(names),
            author_email=rng.choice(["a@b.c", "UPPER@x.y", ""]) or "f@g.h",
            author_timestamp=rng.randrange(1, 2_000_000_000),
            is_merge=rng.random() < 0.3,
        )
        assert parse_log_stream([to_pipe_line(record)]).records == [record]
        assert parse_log_stream([to_jsonl_line(record)], fmt="jsonl").records == [record]


def test_blank_lines_are_skipped_silently():
    lines = ["", "   ", to_pipe_line(make_record(1)), "\n", to_pipe_line(make_record(2))]
    result = parse_log_stream(lines)
    assert len(result.records) == 2
    assert result.malformed == []


def test_malformed_lines_reported_with_positions():
    lines = [
        to_pipe_line(make_record(1)),
        "not enough fields",
        "h2|a@b.c|Name|notanumber|0",
        "h3|a@b.c|Name|123|2",
        "|a@b.c|Name|123|0",
        "h5|||123|0",
    ]
    result = parse_log_stream(lines, malformed_tolerance=1.0)
    assert len(result.records) == 1
    assert [m.line_no for m in result.malformed] == [2, 3, 4, 5, 6]
    reasons = " / ".join(m.reason for m in result.malformed)
    assert "fields" in reasons
    assert "timestamp" in reasons
    assert "merge flag" in reasons
    assert "hash" in reasons
    assert "both empty" in reasons


def test_duplicate_hashes_keep_first():
    first = CommitRecord("same", "One", "one@x.y", 100, False)
    second = CommitRecord("same", "Two", "two@x.y", 200, False)
    result = parse_log_stream([to_pipe_line(first), to_pipe_line(second)], malformed_tolerance=1.0)
    assert result.records == [first]
    assert result.malformed[0].reason == "duplicate hash 'same'"


def test_tolerance_boundary():
    good = [to_pipe_line(make_record(i)) for i in range(19)]
    # 1 of 20 is exactly 5%: not OVER the default tolerance, so it passes.
    parse_log_stream(good + ["bad line"])
    with pytest.raises(IngestionError, match="malformed"):
        parse_log_stream(good[:9] + ["bad line"])  # 1 of 10 exceeds 5%


def test_zero_tolerance_takes_a_clean_log_and_rejects_one_bad_line(tmp_path, capsys):
    good = [to_pipe_line(make_record(i)) for i in range(3)]
    assert len(parse_log_stream(good, malformed_tolerance=0.0).records) == 3
    with pytest.raises(IngestionError, match="1 of 4 lines malformed"):
        parse_log_stream(good + ["bad line"], malformed_tolerance=0.0)

    log = tmp_path / "commits.log"
    log.write_text("".join(line + "\n" for line in good), encoding="utf-8")
    code = main(["estimate", "--log", str(log), "--theta", "1", "--malformed-tolerance", "0",
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith("parsed 3 commits (0 malformed)")


def test_slow_path_pipe_line_takes_timestamp_one():
    (record,) = parse_log_stream(["h1|a@b.c|Ann|Lee|1|0"]).records
    assert (record.author_name, record.author_timestamp) == ("Ann|Lee", 1)


def test_out_of_range_reason_cuts_after_twenty_digits():
    result = parse_log_stream(["h1|a@b.c|N|" + "9" * 20 + "|0", "h2|a@b.c|N|" + "9" * 21 + "|0"],
                              malformed_tolerance=1.0)
    assert [m.reason for m in result.malformed] == [
        "timestamp " + "9" * 20 + " is after 9999-12-31T23:59:59Z",
        "timestamp " + "9" * 20 + "... is after 9999-12-31T23:59:59Z",
    ]


def test_tolerance_error_previews_five_reasons():
    with pytest.raises(IngestionError) as excinfo:
        parse_log_stream([f"bad line {i}" for i in range(7)])
    assert re.findall(r"line (\d+): ", str(excinfo.value)) == ["1", "2", "3", "4", "5"]


def test_negative_and_zero_timestamps_rejected():
    result = parse_log_stream(["h1|a@b.c|N|0|0", "h2|a@b.c|N|-5|0"], malformed_tolerance=1.0)
    assert result.records == []
    assert len(result.malformed) == 2


@pytest.mark.parametrize(
    "field",
    ["1_600_000_000", " 1600000000", "1600000000 ", "+1600000000", "１６" + "0" * 8,
     "١٦" + "0" * 8, "-", "", "--5", "1e9", "0x5f5e1000"],
)
def test_pipe_timestamp_is_ascii_digits(field):
    result = parse_log_stream([f"h1|a@b.c|N|{field}|0"], malformed_tolerance=1.0)
    assert result.records == []
    assert result.malformed[0].reason == f"non-integer timestamp {field!r}"


def test_non_positive_pipe_timestamps_keep_their_reason():
    result = parse_log_stream(["h1|a@b.c|N|0|0", "h2|a@b.c|N|-5|0"], malformed_tolerance=1.0)
    assert [m.reason for m in result.malformed] == [
        "non-positive timestamp 0",
        "non-positive timestamp -5",
    ]


def test_pipe_timestamps_past_year_9999_rejected():
    lines = [
        f"h1|a@b.c|N|{MAX_TIMESTAMP}|0",
        f"h2|a@b.c|N|{MAX_TIMESTAMP + 1}|0",
        "h3|a@b.c|N|99999999999999|0",
    ]
    result = parse_log_stream(lines, malformed_tolerance=1.0)
    assert [r.hash for r in result.records] == ["h1"]
    assert [m.line_no for m in result.malformed] == [2, 3]
    assert all("9999-12-31" in m.reason for m in result.malformed)


def test_jsonl_timestamps_past_year_9999_rejected():
    template = (
        '{{"hash": "{}", "author_name": "N", "author_email": "a@b.c",'
        ' "author_timestamp": {}, "is_merge": false}}'
    )
    lines = [template.format("h1", MAX_TIMESTAMP), template.format("h2", MAX_TIMESTAMP + 1)]
    result = parse_log_stream(lines, fmt="jsonl", malformed_tolerance=1.0)
    assert [r.hash for r in result.records] == ["h1"]
    assert [m.line_no for m in result.malformed] == [2]
    assert "9999-12-31" in result.malformed[0].reason


def test_jsonl_unknown_keys_ignored_and_missing_rejected():
    extra = (
        '{"hash": "h1", "author_name": "N", "author_email": "a@b.c",'
        ' "author_timestamp": 5, "is_merge": false, "tree": "ignored"}'
    )
    missing = '{"hash": "h2", "author_name": "N", "author_email": "a@b.c", "is_merge": false}'
    not_object = '[1, 2, 3]'
    bad_types = (
        '{"hash": "h3", "author_name": "N", "author_email": "a@b.c",'
        ' "author_timestamp": true, "is_merge": false}'
    )
    result = parse_log_stream([extra, missing, not_object, bad_types], fmt="jsonl",
                              malformed_tolerance=1.0)
    assert [r.hash for r in result.records] == ["h1"]
    assert len(result.malformed) == 3


def test_unknown_format_rejected():
    with pytest.raises(ConfigError, match="format"):
        parse_log_stream([], fmt="xml")
    with pytest.raises(ConfigError, match="tolerance"):
        parse_log_stream([], malformed_tolerance=1.5)


def test_parse_log_file_missing(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        parse_log_file(str(tmp_path / "nope.log"))


def test_log_file_records_end_at_line_feeds_only(tmp_path):
    lines = [
        "h1|a@b.org|Ann\rLee|1600000000|0",
        "h2|c@d.org|Cy Ro|1600000001|0",
        "h3|e@f.org|Di|1600000002|1",
    ]
    path = tmp_path / "commits.log"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    result = parse_log_file(str(path))
    assert result.malformed == []
    assert [r.author_name for r in result.records] == ["Ann\rLee", "Cy Ro", "Di"]
    # CRLF line ends are still accepted.
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    assert parse_log_file(str(path)) == result


def test_jsonl_file_raw_carriage_return_is_one_malformed_line(tmp_path):
    good = [to_jsonl_line(make_record(i)) for i in range(40)]
    bad = to_jsonl_line(make_record(99)).replace("Ada Author", "Ada\rAuthor")
    path = tmp_path / "commits.jsonl"
    path.write_bytes(("\n".join([*good, bad]) + "\n").encode("utf-8"))
    result = parse_log_file(str(path), "jsonl")
    assert len(result.records) == 40
    assert [(m.line_no, m.line) for m in result.malformed] == [(41, bad)]
    assert result.malformed[0].reason.startswith("invalid JSON: Invalid control character")


def test_bot_filtering_matches_name_and_email_case_insensitively():
    commits = [
        CommitRecord("h1", "Jenkins CI", "ci@x.y", 1, False),
        CommitRecord("h2", "Ada", "ci-bot@x.y", 2, False),
        CommitRecord("h3", "Ada", "ada@x.y", 3, False),
        CommitRecord("h4", "GERRIT Code Review", "review@x.y", 4, False),
    ]
    kept, bots, merges = apply_filters(commits, FilterConfig(DEFAULT_BOT_PATTERNS))
    assert kept == {("Ada", "ada@x.y"): [3]}
    assert (bots, merges) == (3, 0)


def test_word_boundary_in_default_bot_pattern():
    # "abbot" must not match the \bbot\b pattern, "build bot" must.
    commits = [
        CommitRecord("h1", "Abbot Smith", "abbot@x.y", 1, False),
        CommitRecord("h2", "build bot", "bb@x.y", 2, False),
    ]
    kept, bots, _ = apply_filters(commits, FilterConfig(DEFAULT_BOT_PATTERNS))
    assert kept == {("Abbot Smith", "abbot@x.y"): [1]}
    assert bots == 1


def test_no_filtering_without_patterns_and_merges_kept_by_default():
    commits = [CommitRecord("h1", "robot", "bot@x.y", 1, True)]
    kept, bots, merges = apply_filters(commits, FilterConfig())
    assert kept == {("robot", "bot@x.y"): [1]}
    assert (bots, merges) == (0, 0)


def test_merge_exclusion_is_opt_in():
    commits = [
        CommitRecord("h1", "Ada", "ada@x.y", 1, True),
        CommitRecord("h2", "Ada", "ada@x.y", 2, False),
    ]
    kept, _, merges = apply_filters(commits, FilterConfig(exclude_merges=True))
    assert kept == {("Ada", "ada@x.y"): [2]}
    assert merges == 1


def test_filter_partition_property():
    """Kept + bot-excluded + merge-excluded always partitions the input.

    Every timeline is sorted, whatever the input order.
    """
    rng = random.Random(99)
    for _ in range(50):
        commits = [
            CommitRecord(
                f"h{i}",
                rng.choice(["Ada", "buildbot", "Jenkins"]),
                rng.choice(["a@x.y", "bot@x.y"]),
                i + 1,
                rng.random() < 0.4,
            )
            for i in range(rng.randrange(0, 40))
        ]
        exclude_merges = rng.random() < 0.5
        patterns = DEFAULT_BOT_PATTERNS if rng.random() < 0.5 else ()
        kept, bots, merges = apply_filters(commits, FilterConfig(patterns, exclude_merges))
        assert sum(map(len, kept.values())) + bots + merges == len(commits)
        assert all(stamps == sorted(stamps) for stamps in kept.values())
        shuffled = rng.sample(commits, len(commits))
        again = apply_filters(shuffled, FilterConfig(patterns, exclude_merges))
        assert again == (kept, bots, merges)


def test_pair_seen_only_in_excluded_merges_has_no_timeline():
    commits = [
        CommitRecord("h1", "Ada", "ada@x.y", 1, False),
        CommitRecord("h2", "Mer Ger", "mg@x.y", 2, True),
        CommitRecord("h3", "Mer Ger", "mg@x.y", 3, True),
    ]
    kept, bots, merges = apply_filters(commits, FilterConfig(exclude_merges=True))
    assert kept == {("Ada", "ada@x.y"): [1]}
    assert (bots, merges) == (0, 2)
    _, roster = resolve_identities(kept)
    assert [developer.developer_id for developer in roster] == ["ada@x.y"]


def test_bot_merge_counts_as_a_bot():
    commits = [
        CommitRecord("h1", "build bot", "bb@x.y", 1, True),
        CommitRecord("h2", "build bot", "bb@x.y", 2, False),
        CommitRecord("h3", "Ada", "ada@x.y", 3, True),
    ]
    kept, bots, merges = apply_filters(commits, FilterConfig(DEFAULT_BOT_PATTERNS, True))
    assert kept == {}
    assert (bots, merges) == (2, 1)


def test_bot_pattern_file(tmp_path):
    path = tmp_path / "bots.txt"
    path.write_text("# automation accounts\n\n\\bbot\\b\njenkins\n", encoding="utf-8")
    assert load_bot_patterns(str(path)) == ("\\bbot\\b", "jenkins")


def test_invalid_bot_pattern_rejected():
    with pytest.raises(ConfigError, match="invalid bot pattern"):
        apply_filters([], FilterConfig(("[unclosed",)))


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_read_repository_log(tmp_path):
    # A root, a commit on each of two branches off it, and their merge.
    parents = [(), (0,), (0,), (2, 1)]
    repo = tmp_path / "repo"
    build_repo(repo, [(COMMITTER, 1_600_000_000 + i, p) for i, p in enumerate(parents)])

    lines = read_repository_log(str(repo))
    result = parse_log_stream(lines)
    assert result.malformed == []
    assert len(result.records) == 4
    assert sum(1 for r in result.records if r.is_merge) == 1
    assert all(r.author_email == "test@example.org" for r in result.records)


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_read_repository_log_flags_octopus_merges_and_keeps_pipes_in_names(tmp_path):
    authors = {"root": ("Ann|Lee", "ann@example.org"), "left": ("Bo", "bo@example.org"),
               "right": ("|Cy||Ro|", "cy@example.org"), "octopus": ("Dee", "dee@example.org")}
    parents = [(), (0,), (0,), (0, 1, 2)]
    repo = tmp_path / "repo"
    commits = [(f"{name} <{email}>".encode(), 1_600_000_000 + i, p)
               for i, ((name, email), p) in enumerate(zip(authors.values(), parents))]
    hashes = dict(zip(authors, build_repo(repo, commits)))
    assert len(git(repo, "rev-parse", "HEAD^@").split()) == 3

    result = parse_log_stream(read_repository_log(str(repo)))
    assert result.malformed == []
    by_hash = {record.hash: record for record in result.records}
    # The root has no parent, a plain commit one, and the octopus three.
    assert [by_hash[hashes[c]].is_merge for c in authors] == [False, False, False, True]
    assert {c: (by_hash[h].author_name, by_hash[h].author_email) for c, h in hashes.items()} == authors


@pytest.mark.skipif(
    shutil.which("git") is None or shutil.which("ssh-keygen") is None,
    reason="git or ssh-keygen not installed",
)
def test_read_repository_log_never_reads_signature_lines(tmp_path):
    key = tmp_path / "key"
    subprocess.run(["ssh-keygen", "-q", "-t", "ed25519", "-N", "", "-f", str(key)],
                   check=True, capture_output=True)
    repo = tmp_path / "repo"
    build_repo(repo, [(COMMITTER, 1_600_000_000, ())])
    # Signing is what is tested, so this commit is git commit's own.
    git(repo, "-c", "gpg.format=ssh", "-c", f"user.signingkey={key}.pub",
        "commit", "-q", "--allow-empty", "-S", "-m", "signed")
    git(repo, "config", "log.showSignature", "true")
    # With the setting, a plain log prints the signed commit's signature check on stdout.
    assert len(git(repo, "log", "--pretty=format:%H").splitlines()) > 2

    lines = list(read_repository_log(str(repo)))
    assert len(lines) == 2
    result = parse_log_stream(lines)
    assert result.malformed == []
    assert [record.author_email for record in result.records] == ["test@example.org"] * 2


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_read_repository_log_keeps_line_breaks_in_author_names(tmp_path):
    names = ["Ann\u2028Lee", "Bob\fKay", "Cy\rRo"]
    repo = tmp_path / "repo"
    build_repo(repo, linear((f"{name} <dev@example.org>".encode(), 1_600_000_000 + i)
                            for i, name in enumerate(names)))

    result = parse_log_stream(read_repository_log(str(repo)))
    assert result.malformed == []
    assert sorted(r.author_name for r in result.records) == sorted(names)


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_repository_log_written_to_a_file_parses_the_same(tmp_path):
    authors = [("Ann\rLee", "ann@example.org"), ("Cy Ro", "cy\r@example.org"),
               ("Bob\fKay", ""), ("Dee\u2028Vu", "dee@example.org")]
    repo = tmp_path / "repo"
    build_repo(repo, linear((f"{name} <{email}>".encode(), 1_600_000_000 + i)
                            for i, (name, email) in enumerate(authors)))

    lines = list(read_repository_log(str(repo)))
    path = tmp_path / "repo.log"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    result = parse_log_file(str(path))
    assert result == parse_log_stream(lines)
    assert sorted((r.author_name, r.author_email) for r in result.records) == sorted(authors)


def test_read_repository_log_missing_repo(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git not installed")
    with pytest.raises(IngestionError, match="git log failed"):
        list(read_repository_log(str(tmp_path / "not-a-repo")))


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_repository_stream_groups_as_a_file_of_its_byte_lines(tmp_path):
    # fast-import keeps the name's invalid UTF-8, which git commit would rewrite as Latin-1.
    repo = tmp_path / "repo"
    build_repo(repo, linear((b"F\xff F <ff@example.org>", 1_600_000_000 + i) for i in range(3)))
    path = tmp_path / "repo.log"
    path.write_bytes(b"".join(line + b"\n" for line in read_repository_log(str(repo))))
    with open_log(str(path)) as handle:
        from_file = group_log_stream(handle)
    assert group_log_stream(read_repository_log(str(repo))) == from_file
    assert list(from_file.timelines) == [("F\ufffd F", "ff@example.org")]
    assert from_file.parsed == 3


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_closing_the_repository_stream_early_kills_and_reaps_git(tmp_path, monkeypatch):
    # More log than a pipe holds, so git is still writing when the stream is closed.
    repo = tmp_path / "repo"
    build_repo(repo, linear((COMMITTER, 1_600_000_000 + i) for i in range(2000)))
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    stream = read_repository_log(str(repo))
    assert next(stream).split(b"|")[1:3] == [b"test@example.org", b"Test Dev"]
    stream.close()
    (git_log,) = started
    assert git_log.returncode == -signal.SIGKILL


def test_jsonl_lone_surrogate_is_malformed():
    good = to_jsonl_line(make_record(1))
    bad = good.replace('"Ada Author"', '"Ada \\udc80"')
    result = parse_log_stream([good, bad.replace("hash0001", "hash0002")], "jsonl", 1.0)
    assert len(result.records) == 1
    assert [m.line_no for m in result.malformed] == [2]
    assert "UTF-8" in result.malformed[0].reason


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_read_repository_log_ignores_log_output_encoding(tmp_path):
    repo = tmp_path / "repo"
    build_repo(repo, [("José <jose@example.org>".encode(), 1_600_000_000, ())])
    git(repo, "config", "i18n.logOutputEncoding", "latin1")

    result = parse_log_stream(read_repository_log(str(repo)))
    assert result.malformed == []
    assert [r.author_name for r in result.records] == ["José"]


def test_deeply_nested_json_line_is_malformed():
    lines = [to_jsonl_line(make_record(i)) for i in range(200)]
    result = parse_log_stream([*lines, "[" * 200_000], "jsonl")
    assert len(result.records) == 200
    assert [(m.line_no, m.reason) for m in result.malformed] == [
        (201, "invalid JSON: nested too deeply")
    ]


def test_commit_record_public_surface():
    assert list(get_type_hints(CommitRecord).items()) == [
        ("hash", str),
        ("author_name", str),
        ("author_email", str),
        ("author_timestamp", int),
        ("is_merge", bool),
    ]
    assert CommitRecord("h1", "Ada", "a@x.y", 5).is_merge is False
    record = CommitRecord(
        hash="h1", author_name="Ada", author_email="a@x.y", author_timestamp=5, is_merge=True
    )
    assert record == CommitRecord("h1", "Ada", "a@x.y", 5, True)
    assert len({record, CommitRecord("h1", "Ada", "a@x.y", 5, True)}) == 1
    # A named tuple: iterable, and equal to the plain tuple of its fields.
    assert tuple(record) == ("h1", "Ada", "a@x.y", 5, True) == record
    with pytest.raises(AttributeError):
        record.hash = "h2"


EXPORTED_RECORDS = [
    cls for cls in (getattr(vcseffort, name) for name in vcseffort.__all__)
    if isinstance(cls, type) and not issubclass(cls, Exception)
]


def test_every_exported_record_is_a_tuple():
    assert "ActivityMatrix" in [cls.__name__ for cls in EXPORTED_RECORDS]
    assert [cls.__name__ for cls in EXPORTED_RECORDS if not issubclass(cls, tuple)] == []


@pytest.mark.parametrize(
    "cls", [cls for cls in EXPORTED_RECORDS if issubclass(cls, tuple)], ids=lambda cls: cls.__name__
)
def test_exported_tuple_records_are_immutable(cls):
    record = cls(*[None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    assert record == (None,) * len(cls._fields)


def test_lazy_exports_are_the_defining_modules_objects():
    for name in vcseffort.__all__:
        value = getattr(vcseffort, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
    assert set(vcseffort.__all__) <= set(dir(vcseffort))
    namespace: dict = {}
    exec("from vcseffort import *", namespace)
    assert {name: namespace[name] for name in vcseffort.__all__} == {
        name: getattr(vcseffort, name) for name in vcseffort.__all__
    }
    assert not hasattr(vcseffort, "nope")
    # Each constant is defined once, in the package, and keeps its old module attribute.
    assert vcseffort.calibration.SELECTION_POLICIES is vcseffort.SELECTION_POLICIES
    assert vcseffort.calibration.SELECT_LOWER_MEDIAN is vcseffort.SELECT_LOWER_MEDIAN
    assert vcseffort.stats.DEFAULT_CUTOFFS is vcseffort.DEFAULT_CUTOFFS


def test_a_submodule_is_an_attribute_of_the_imported_package():
    probe = "import vcseffort; print(vcseffort.synth.generate.__module__, vcseffort.ingest.__name__)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(vcseffort.__path__[0])),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "vcseffort.synth vcseffort.ingest\n"


@pytest.mark.parametrize("fmt, to_line", [("pipe", to_pipe_line), ("jsonl", to_jsonl_line)])
def test_parsed_records_are_commit_records_sharing_author_strings(fmt, to_line):
    name, email = "Ada Lovelace-Byron", "ada.lovelace@example.org"
    expected = [CommitRecord(f"h{i}", name, email, 1_600_000_000 + i, i == 1) for i in range(2)]
    records = parse_log_stream([to_line(r) for r in expected], fmt).records
    assert records == expected
    assert [type(r) for r in records] == [CommitRecord, CommitRecord]
    first, second = records
    assert (second.hash, second.author_name, second.author_email) == ("h1", name, email)
    assert (second.author_timestamp, second.is_merge) == (1_600_000_001, True)
    # Each line decodes to its own strings; the parser hands out one per author.
    assert first.author_name is second.author_name
    assert first.author_email is second.author_email


@pytest.mark.parametrize("int_digit_limit", [None, 0], ids=["default-limit", "no-limit"])
def test_long_timestamps_do_not_depend_on_the_int_digit_limit(int_digit_limit):
    """A verdict and its reason do not depend on CPython's limit on int() of long text."""
    pipe_lines = [
        "h1|a@b.c|A|" + "9" * 5000 + "|0",
        "h2|a@b.c|A|" + "0" * 5000 + "1600000000|0",
        "h3|a@b.c|A|-" + "9" * 5000 + "|0",
        "h4|a@b.c|A|" + "0" * 20 + "1600000000|0",
    ]
    json_line = (
        '{"author_email": "a@b.c", "author_name": "A", "author_timestamp": '
        + "9" * 5000 + ', "hash": "h5", "is_merge": false}'
    )
    limit = sys.get_int_max_str_digits()
    if int_digit_limit is not None:
        sys.set_int_max_str_digits(int_digit_limit)
    try:
        pipe = parse_log_stream(pipe_lines, malformed_tolerance=1.0)
        jsonl = parse_log_stream([json_line], "jsonl", 1.0)
    finally:
        sys.set_int_max_str_digits(limit)
    assert [(r.hash, r.author_timestamp) for r in pipe.records] == [
        ("h2", 1_600_000_000), ("h4", 1_600_000_000)
    ]
    assert [(m.line_no, m.reason) for m in pipe.malformed] == [
        (1, "timestamp " + "9" * 20 + "... is after 9999-12-31T23:59:59Z"),
        (3, "non-positive timestamp -" + "9" * 20 + "..."),
    ]
    assert jsonl.records == []
    (reason,) = [m.reason for m in jsonl.malformed]
    if int_digit_limit is None:
        assert reason.startswith("invalid JSON: ") and len(reason) < 200
    else:
        assert reason == "timestamp " + "9" * 20 + "... is after 9999-12-31T23:59:59Z"


_ENCODED_RAW_BYTE = re.compile(rb"\xed[\xb2\xb3][\x80-\xbf]")


def _to_bytes(line: str) -> bytes:
    """A generated line's bytes: U+DC80..U+DCFF stand for the raw bytes 0x80..0xFF, as
    surrogateescape reads them back, and any other lone surrogate is written encoded."""
    return _ENCODED_RAW_BYTE.sub(
        lambda raw: raw[0].decode("utf-8", "surrogatepass").encode("utf-8", "surrogateescape"),
        line.encode("utf-8", "surrogatepass"),
    )


def _layout_line(commit_hash, name, email, stamp, is_merge=False) -> str:
    """A JSON line in to_jsonl_line's layout with each field's text written raw."""
    return (f'{{"author_email": "{email}", "author_name": "{name}", "author_timestamp": '
            f'{stamp}, "hash": "{commit_hash}", "is_merge": {"true" if is_merge else "false"}}}')


# The adversarial logs' fields, as text in which U+DC80..U+DCFF are raw bytes (see
# _to_bytes): invalid, truncated and BOM bytes, which a file and text lines read apart.
# The two A\udcff authors decode alike from a file; RoBot and roBot tell the scoped
# inline flag from the patterns that ignore case.
_PEOPLE = [("Ada", "a@x.y"), ("Lee", "l@x.y"), ("Ada", "a2@x.y"), ("build bot", "ci@x.y"),
           ("Anna", "bot@x.y"), ("", "e@x.y"), ("Mo", ""), ("Lee\rWong", "l@x.y"),
           ("Ann|Pipe", "ann@x.y"), ("A\udcff", "a@x.y"), ("A\udcfe", "a@x.y")]
_NAMES = ["", "Björn B", 'q"uote', "back\\slash", "c|d", "e|f|g", " ", "李雷", "x\u2028y",
          "tab\there", "nul\x00", "del\x7f", "\ud800", "Zoë", "x\udce2\udc82", "bot \udcff",
          "\udcef\udcbb\udcbfB", "RoBot", "roBot", "Bot Team", "Jenkins", "Zo\\u00eb", "\\ud800",
          'q\\"t']
_EMAILS = ["", "a@b.c", "UPPER@x.y", "é@x.y", "tab\t@x.y", "x\udfff@y.z", "e\udcff@x.y",
           "ci@bot.org", "bb@x.y", "Bot@x.y", "ee-ee@x.y", "s\ud800@x.y"]
_ODD_HASHES = ["", "\udcff", "\udcfe", "hé", "ħ", "\udce2\udc82", "h\ud800", "\\ud800", "\\u00e9"]
_PIPE_STAMPS = [
    "²", "１６００００００００", "١٦" + "0" * 8, "1²", "0" * 7 + "1600000000", "1" * 12, "1" * 13,
    str(MAX_TIMESTAMP), str(MAX_TIMESTAMP + 1), "9" * 5000, "0" * 5000 + "5", "-0", "-5", "0", "",
    "-", "--5", " 5", "5 ", "+5", "1_5", "1e9", "0x5f5e1000", "-" + "1" * 21, "9" * 30 + "x",
]
_JSON_STAMPS = ["NaN", "Infinity", "true", "false", "1.0", "1e9", "-1", "0", '"5"', "null", "01",
                str(MAX_TIMESTAMP), str(MAX_TIMESTAMP + 1), "1" * 13, "9" * 25, "9" * 5000]
_JUNK = ["", " ", "\t", " \r", "\x1c", "\xa0", "\u2028", "\udcff", "\x00", "not a commit",
         "{bad json", "h|a@b|A|0|0", "h|a@b|A|1|2", "|a@b|A|1|0", "[1, 2, 3]"]
_WHITESPACE = ["", " ", "\t", "\r", "\n", "\x0c", "\xa0", "  \t "]
_JSON_ALPHABET = '{}[]":,\\/ \t0123456789-+.eEtrufalsnNI\ufeffé\x00'
_BOT_PATTERN_POOL = (r"\bbot\b", r"(?-i:Bot)", r"(\w)\1@", r"^(\w+)-\1@", "jenkins")


def _mutated_pipe_line(rng: random.Random, commit: tuple) -> str:
    """A commit's pipe line with one field edited, emptied, dropped or added."""
    fields = to_pipe_line(CommitRecord(*commit)).split("|")
    roll = rng.randrange(6)
    if roll == 0:
        fields[-2] = rng.choice(_PIPE_STAMPS)
    elif roll == 1:
        fields[-1] = rng.choice(["2", " 1", "1 ", "", "01", "true", "\t0"])
    elif roll == 2:
        fields[0] = ""
    elif roll == 3:
        fields[1:-2] = ["", ""]
    elif roll == 4:
        del fields[rng.randrange(len(fields))]
    else:
        fields[2:2] = ["x"] * rng.randrange(1, 4)
    return "|".join(fields)


def _json_line(rng: random.Random, commit: tuple) -> str:
    """A commit in the written layout with raw fields, or as json.dumps writes it: the
    layout escaped, with raw control characters, reordered, or compact."""
    obj = dict(zip(JSONL_REQUIRED_KEYS, commit))
    roll = rng.randrange(8)
    if roll < 4:
        return _layout_line(*commit)
    if roll == 4:
        return to_jsonl_line(CommitRecord(*commit))
    if roll == 5:
        line = json.dumps(obj, sort_keys=True, ensure_ascii=False)
        return line.replace("\\t", "\t").replace("\\u0000", "\x00")
    if roll == 6:
        return json.dumps(dict(reversed(obj.items())), ensure_ascii=rng.random() < 0.5)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _mutated_json_line(rng: random.Random, commit: tuple) -> str:
    """A commit's JSON line with one edit: characters, whitespace, a BOM, the timestamp's
    text, a key missing or retyped, a surrogate escape, nesting or a trailer."""
    obj = dict(zip(JSONL_REQUIRED_KEYS, commit))
    line = to_jsonl_line(CommitRecord(*commit))
    roll = rng.randrange(10)
    if roll == 0:
        chars = list(line)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(chars) + 1)
            if at == len(chars) or rng.random() < 0.4:
                chars.insert(at, rng.choice(_JSON_ALPHABET))
            elif rng.random() < 0.5:
                del chars[at]
            else:
                chars[at] = rng.choice(_JSON_ALPHABET)
        return "".join(chars)
    if roll == 1:
        return rng.choice(_WHITESPACE) + line + rng.choice(_WHITESPACE)
    if roll == 2:
        return "\ufeff" + line
    if roll == 3:
        return _layout_line(*commit[:3], rng.choice(_JSON_STAMPS), commit[4])
    if roll == 4:
        del obj[rng.choice(JSONL_REQUIRED_KEYS)]
        return json.dumps(obj, sort_keys=rng.random() < 0.5)
    if roll == 5:
        obj[rng.choice(JSONL_REQUIRED_KEYS)] = rng.choice([0, 1, 2.5, "", "x", None, True, [], {}])
        return json.dumps(obj)
    if roll == 6:
        field = rng.choice(["author_name", "author_email", "hash"])
        escape = rng.choice(["\\ud800", "\\udfff", "\\ud800\\udc00"])
        return line.replace(f'"{field}": "', f'"{field}": "{escape}', 1)
    if roll == 7:
        depth = rng.choice([3, 2_000, 60_000])
        return rng.choice(["[" * depth, "[" * depth + line + "]" * depth, '{"a": ' * depth])
    return line + rng.choice(["[]", '"s"', "} x", " []", "{}", "1"])


# A pair with one raw spelling in a pipe file, so its timestamps keep line order.
_ONE_SPELLING = ("M\ufffd", "m@x.org")


def _planted_lines(fmt: str) -> list[str]:
    """Lines in every log. First, duplicate hashes: fast after fast (line 2), slow after
    slow (4), and across the two paths (5, 6, 7). Then hashes and names that a file and
    text lines read apart; merges by a name-only and by an email-only bot, and by two
    authors with no other commit, one a bot; and slow-path timestamps 1 and
    MAX_TIMESTAMP. A pipe log also has _ONE_SPELLING's name, undecodable, committing
    at timestamp 1 between two of its own lines."""
    if fmt == "pipe":
        fast, slow = "d1|a@x.y|Ada|1600000000|0", "d2|ann@x.y|Ann|Pipe|1600000001|0"
        slow_of_fast = "d1|a@x.y|Ada|01600000002|1"  # a leading zero takes the per-line parser
        edges = ["t1|a@x.y|Ann|Lee|1|0", f"t2|a@x.y|Ann|Lee|{MAX_TIMESTAMP}|1"]
        edges += [f"a{i}|m@x.org|M\udcff|{stamp}|0" for i, stamp in ((1, 5), (2, 1), (3, 7))]
    else:
        fast = _layout_line("d1", "Ada", "a@x.y", 1600000000)
        slow = to_jsonl_line(CommitRecord("d2", "Zoë", "z@x.y", 1600000001))  # escaped
        slow_of_fast = json.dumps({"hash": "d1", "author_name": "Ada", "author_email": "a@x.y",
                                   "author_timestamp": 1600000002, "is_merge": True})
        edges = [to_jsonl_line(CommitRecord("t1", "Zoë", "a@x.y", 1)),
                 to_jsonl_line(CommitRecord("t2", "Zoë", "a@x.y", MAX_TIMESTAMP, True))]
    lines = [fast, fast, slow, slow, slow_of_fast]
    lines += [slow.replace("d2", "d1"), fast.replace("d1", "d2")]
    planted = [
        ("dup\udcff", "Dup", "d@x.y"), ("dup\udcfe", "Dup", "d@x.y"),
        ("same1", "M\udcff", "m@x.y"), ("same2", "M\udcfe", "m@x.y"),
        ("hé", "é", "e@x.y"), ("\ud800s", "\ud800", "s\ud800@x.y"),
        ("trunc", "T\udce2\udc82", "t@x.y"), ("nul\x00", "N\x00ul", "n@x.y"),
        ("cr", "C\rr", "c@x.y"),
        ("bm1", "build bot", "ci@x.y"), ("bm2", "Anna", "bot@x.y"),
        ("mo1", "Merge Only", "mo@x.y"), ("mo2", "merge bot", "mb@x.y"),
    ]
    for i, (commit_hash, name, email) in enumerate(planted):
        record = CommitRecord(commit_hash, name, email, 1_600_000_000 + i, i % 2 == 1 or i > 8)
        lines.append(to_pipe_line(record) if fmt == "pipe" else _layout_line(*record))
    return lines + edges


def _adversarial_log(rng: random.Random, fmt: str, size: int, bom: bool,
                     final_end: bool) -> list[str]:
    """The planted lines and ``size`` seeded ones, each with its line end: commits by
    recurring or drawn authors, written plainly or with one edit, junk and blank lines,
    and a raw byte, BOM, NUL, CR, pipe or quote put anywhere."""
    lines = _planted_lines(fmt)
    planted = len(lines)
    for _ in range(size):
        if rng.random() < 0.6:
            name, email = rng.choice(_PEOPLE)
        else:
            name, email = rng.choice(_NAMES), rng.choice(_EMAILS)
        commit_hash = f"h{rng.randrange(4 * size)}"
        if rng.random() < 0.05:
            commit_hash = rng.choice(_ODD_HASHES)
        commit = (commit_hash, name, email, rng.randrange(1, MAX_TIMESTAMP + 1), rng.random() < 0.3)
        roll = rng.random()
        if roll < 0.04:
            line = rng.choice(_JUNK)
        elif roll < 0.3:
            line = (_mutated_pipe_line if fmt == "pipe" else _mutated_json_line)(rng, commit)
        else:
            line = to_pipe_line(CommitRecord(*commit)) if fmt == "pipe" else _json_line(rng, commit)
        if rng.random() < 0.1:
            at = rng.randrange(len(line) + 1)
            inserted = rng.choice(
                ["\udcff", "\udce2\udc82", "\ud800", "\x00", "\r", "\ufeff", "|", '"']
            )
            line = line[:at] + inserted + line[at:]
        lines.append(line)
    # A line cut inside a multi-byte sequence, and a BOM on a line of its own.
    lines.insert(rng.randrange(planted, len(lines) + 1), lines[0] + "\udce2\udc82")
    lines.insert(rng.randrange(planted, len(lines) + 1), "\ufeff" + lines[0])
    if bom:
        lines[0] = "\ufeff" + lines[0]
    # Planted lines keep a line of their own in a file; any other may run into the next.
    ends = [rng.choice(["\n", "\r\n", "\r\r\n"]) for _ in range(planted)]
    ends += rng.choices(["\n", "\r\n", "\r\r\n", "\r", ""], [40, 4, 2, 1, 1],
                        k=len(lines) - planted)
    if not final_end:
        ends[-1] = ""
    return [line + end for line, end in zip(lines, ends)]


def _group_file(path, fmt, tolerance, exclude_merges):
    with open_log(str(path)) as handle:
        return group_log_stream(handle, fmt, tolerance, exclude_merges)


def _seeded_logs(fmt: str, path):
    """The seeded adversarial logs, short to long, as (size, text lines, bytes); each is
    written to ``path`` before it is yielded."""
    rng = random.Random(2024)
    for size, bom, final_end in ((40, True, True), (300, False, False), (2200, True, False)):
        lines = _adversarial_log(rng, fmt, size, bom, final_end)
        data = b"".join(map(_to_bytes, lines))
        path.write_bytes(data)
        yield size, lines, data


def _routes(fmt: str, path, lines: list[str], data: bytes) -> list[tuple]:
    """Each ingest route of one log as (name, source, parse, group): the source is what
    reference_model.log_lines reads, and parse and group await a tolerance (and
    exclude_merges). A file's bytes go through parse_log_file and group_log_stream; its
    text lines, with invalid bytes as lone surrogates, through parse_log_stream and
    group_log_stream."""
    return [
        ("file", data, partial(parse_log_file, str(path), fmt), partial(_group_file, path, fmt)),
        ("text", lines, partial(parse_log_stream, lines, fmt),
         partial(group_log_stream, lines, fmt)),
    ]


def _model_read(source, fmt: str) -> tuple[list[tuple], list[tuple]]:
    return reference_model.parse(reference_model.log_lines(source), fmt)


def _model_filtered(commits: list[tuple], patterns: tuple[str, ...], exclude_merges: bool):
    """The reference model's per-commit recount in apply_filters' shape."""
    kept, merged, bots = reference_model.group(commits, patterns, exclude_merges)
    return {pair: sorted(stamps) for pair, stamps in kept.items()}, bots, sum(merged.values())


# The scoped inline flag and a backreference also alone, where no other pattern hides them.
_PATTERN_SETS = [(), DEFAULT_BOT_PATTERNS, _BOT_PATTERN_POOL, (r"(?-i:Bot)",), (r"^(\w+)-\1@",)]


def test_reference_model_imports_only_the_standard_library():
    """A fault in the package cannot hide in the ingest oracle."""
    tree = ast.parse(Path(reference_model.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.partition(".")[0] for name in imported} <= sys.stdlib_module_names


def _check_parse_routes(fmt: str, tmp_path, expected_reasons: set[str]) -> None:
    """Records and (line_no, line, reason) triples of both routes against the model on
    the seeded logs, records as CommitRecords sharing author strings, and the tolerance
    error's text."""
    path = tmp_path / "log"
    reasons, accepted = set(), {"file": 0, "text": 0}
    for size, lines, data in _seeded_logs(fmt, path):
        for route, source, parse, _ in _routes(fmt, path, lines, data):
            commits, malformed = _model_read(source, fmt)
            records, parsed_malformed = parse(1.0)
            assert records == commits
            assert parsed_malformed == malformed
            assert {type(record) for record in records} <= {CommitRecord}
            shared = {}
            for text in (text for record in records for text in record[1:3]):
                if "\ufffd" not in text:
                    assert shared.setdefault(text, text) is text
            if size == 40:  # each raise reads the whole log, so the short one takes it
                with pytest.raises(IngestionError) as excinfo:
                    parse(0.05)
                assert str(excinfo.value) == reference_model.ingestion_error(
                    len(commits), malformed, 0.05
                )
            reasons.update(reason.split(" ")[0] for _, _, reason in malformed)
            accepted[route] += len(commits)
            # The slow-path edge timestamps are read.
            assert {("t1", 1), ("t2", MAX_TIMESTAMP)} <= {(c[0], c[3]) for c in records}
    # The mutations reach every verdict, not only the clean path.
    assert min(accepted.values()) > 1_000
    assert reasons >= expected_reasons


def test_pipe_parser_matches_the_readme_rules(tmp_path):
    _check_parse_routes("pipe", tmp_path, {"expected", "empty", "non-integer", "non-positive",
                                           "timestamp", "merge", "author", "duplicate"})


def test_jsonl_parser_matches_the_json_loads_procedure(tmp_path):
    _check_parse_routes("jsonl", tmp_path, {
        "invalid", "JSON", "missing", "hash", "author", "author_name", "author_timestamp",
        "is_merge", "duplicate", "non-positive", "timestamp",
    })


def test_jsonl_lines_in_the_written_layout_match_the_json_loads_procedure():
    """Commits written as _json_line writes them, raw and escaped, reordered and compact,
    some with another timestamp's text, agree with the model through both text routes."""
    rng = random.Random(5150)
    lines = []
    for _ in range(3_000):
        name, email = rng.choice(_PEOPLE) if rng.random() < 0.6 else (
            rng.choice(_NAMES), rng.choice(_EMAILS))
        commit_hash = f"h{rng.randrange(2_000)}"
        if rng.random() < 0.05:
            commit_hash = rng.choice(_ODD_HASHES)
        commit = (commit_hash, name, email, rng.randrange(1, MAX_TIMESTAMP + 1), rng.random() < 0.3)
        if rng.random() < 0.1:
            line = _layout_line(*commit[:3], rng.choice(_JSON_STAMPS), commit[4])
        else:
            line = _json_line(rng, commit)
        lines.append(line + rng.choice(["", "", "", "\r", "\n", "\r\n"]))
    commits, malformed = reference_model.parse(lines, "jsonl")
    assert parse_log_stream(lines, "jsonl", 1.0) == (commits, malformed)
    grouped = group_log_stream(lines, "jsonl", 1.0)
    assert (grouped.parsed, grouped.malformed) == (len(commits), malformed)
    timelines = reference_model.group(commits)[0]
    assert list(grouped.timelines.items()) == list(timelines.items())
    reasons = {reason.split(" ")[0] for _, _, reason in malformed}
    assert len(commits) > 1_000
    assert {"invalid", "hash", "author", "author_name", "duplicate", "non-positive",
            "timestamp"} <= reasons


@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_streamed_grouping_matches_records_through_apply_filters(fmt, tmp_path):
    """group_log_stream on both routes against the model's grouping of its records, with
    and without merges: pairs in order of first commit, each pair's timestamps in line
    order, merge counts, the planted duplicates, and the tolerance error's text."""
    path = tmp_path / "log"
    for size, lines, data in _seeded_logs(fmt, path):
        for route, source, _, group in _routes(fmt, path, lines, data):
            commits, malformed = _model_read(source, fmt)
            for exclude_merges in (False, True):
                timelines, merged, parsed, grouped_malformed = group(1.0, exclude_merges)
                assert (parsed, grouped_malformed) == (len(commits), malformed)
                expected, expected_merged, _ = reference_model.group(commits, (), exclude_merges)
                assert list(merged.items()) == list(expected_merged.items())
                assert list(timelines) == list(expected)
                for pair, stamps in expected.items():
                    # Raw pipe spellings that decode alike are joined when the scan ends,
                    # each in line order (group_log_stream's docstring): multisets.
                    if (route == "file" and fmt == "pipe" and "\ufffd" in "".join(pair)
                            and pair != _ONE_SPELLING):
                        assert sorted(timelines[pair]) == sorted(stamps), pair
                    else:
                        assert timelines[pair] == stamps, pair
            # Duplicates of the first lines: fast after fast, slow after slow, and across.
            # (Text lines keep a BOM, which makes line 1 malformed in some logs.)
            if route == "file":
                assert [(n, reason) for n, _, reason in grouped_malformed[:5]] == [
                    (2, "duplicate hash 'd1'"), (4, "duplicate hash 'd2'"),
                    (5, "duplicate hash 'd1'"), (6, "duplicate hash 'd1'"),
                    (7, "duplicate hash 'd2'"),
                ]
            if size == 40:  # each raise reads the whole log, so the short one takes it
                with pytest.raises(IngestionError) as excinfo:
                    group(0.05, True)
                assert str(excinfo.value) == reference_model.ingestion_error(
                    len(commits), malformed, 0.05
                )


@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_byte_logs_give_the_results_of_their_decoded_text(fmt, tmp_path):
    """A log's bytes read as the text the model decodes them to, through both text
    routes; and the planted bytes reach the verdicts they are there for."""
    path = tmp_path / "log"
    for _, lines, data in _seeded_logs(fmt, path):
        decoded = reference_model.log_lines(data)
        records, malformed = parse_log_file(str(path), fmt, 1.0)
        assert (records, malformed) == parse_log_stream(decoded, fmt, 1.0)
        for exclude_merges in (False, True):
            from_bytes = _group_file(path, fmt, 1.0, exclude_merges)
            from_text = group_log_stream(decoded, fmt, 1.0, exclude_merges)
            assert from_bytes[1:] == from_text[1:]
            assert drop_bots(*from_bytes[:2], []) == drop_bots(*from_text[:2], [])
        # Two hashes, and then two names, that differ only in invalid bytes: as text the
        # second hash is a duplicate and the two names are one pair.
        assert "duplicate hash 'dup\ufffd'" in {reason for _, _, reason in malformed}
        assert {"same1", "same2"} <= {c[0] for c in records if c[1:3] == ("M\ufffd", "m@x.y")}
        # Text lines keep an invalid byte as a lone surrogate.
        assert any("\udcff" in c[0] for c in parse_log_stream(lines, fmt, 1.0)[0])


def test_bot_verdict_per_author_matches_per_commit_recount(tmp_path):
    """drop_bots over group_log_stream's pairs equals the model's per-commit regex
    recount, whatever the patterns, a backreference and a scoped inline flag included."""
    path = tmp_path / "log"
    for fmt in ("pipe", "jsonl"):
        for _, lines, data in _seeded_logs(fmt, path):
            commits, _ = _model_read(data, fmt)
            for exclude_merges in (False, True):
                timelines, merged, _, _ = _group_file(path, fmt, 1.0, exclude_merges)
                for patterns in _PATTERN_SETS:
                    finished = drop_bots({pair: list(stamps) for pair, stamps in timelines.items()},
                                         dict(merged), compile_bot_patterns(patterns))
                    expected = _model_filtered(commits, patterns, exclude_merges)
                    assert finished == expected
                    assert list(finished[0]) == list(expected[0])


def test_filters_per_pair_match_the_per_commit_loop(tmp_path):
    """apply_filters on a file's records equals the model's per-commit recount: counts,
    timelines and their order, with bot merges, merge-only pairs and email-only bots."""
    path = tmp_path / "log"
    for fmt in ("pipe", "jsonl"):
        for _, lines, data in _seeded_logs(fmt, path):
            records, _ = parse_log_file(str(path), fmt, 1.0)
            commits, _ = _model_read(data, fmt)
            for patterns in _PATTERN_SETS:
                for exclude_merges in (False, True):
                    filtered = apply_filters(records, FilterConfig(patterns, exclude_merges))
                    expected = _model_filtered(commits, patterns, exclude_merges)
                    assert filtered == expected
                    assert list(filtered[0]) == list(expected[0])
            bot_merges = {c[1:3] for c in commits if c[4]}
            assert {("build bot", "ci@x.y"), ("Anna", "bot@x.y")} <= bot_merges


def test_every_ascii_and_some_other_characters_in_the_written_layout_match_json_loads():
    """Each character raw in a name, an email and a hash of to_jsonl_line's layout, and
    escaped by to_jsonl_line itself: the records, timelines and reasons of json.loads."""
    characters = [chr(code) for code in range(0x80)]
    characters += ["é", "ħ", "\u2028", "\ufeff", "\U0001f600", "\ud800"]
    lines = []
    for serial, char in enumerate(characters):
        stamp = 1_600_000_000 + serial
        for record in (
            CommitRecord(f"n{serial}", f"A{char}z", "a@b.c", stamp),
            CommitRecord(f"e{serial}", "Ada", f"a{char}@b.c", stamp),
            CommitRecord(f"h{char}{serial}", "Ada", "a@b.c", stamp),
            CommitRecord(f"o{serial}", char, "", stamp),
        ):
            lines.append(_layout_line(*record))
            lines.append(to_jsonl_line(record._replace(hash=record.hash + "-escaped")))
    expected_records, expected_malformed = reference_model.parse(lines, "jsonl")
    records, malformed = parse_log_stream(lines, "jsonl", 1.0)
    assert records == expected_records
    assert malformed == expected_malformed
    grouped = group_log_stream(lines, "jsonl", 1.0)
    assert (grouped.parsed, grouped.malformed) == (len(records), malformed)
    timelines = reference_model.group(expected_records)[0]
    assert drop_bots(grouped.timelines, grouped.merged, []) == (
        {pair: sorted(stamps) for pair, stamps in timelines.items()}, 0, 0
    )
    # Both sides of each range edge: 0x1f/0x20, 0x21/0x22/0x23, 0x5b/0x5c/0x5d, 0x7e/0x7f.
    kept = {record.hash for record in records}
    in_name = {char for serial, char in enumerate(characters) if f"n{serial}" in kept}
    printable = {chr(code) for code in range(0x20, 0x7f)} - {'"', "\\"}
    assert in_name == printable | {"\x7f", "é", "ħ", "\u2028", "\ufeff", "\U0001f600"}
    # The inline fast path takes printable ASCII other than quote and backslash; every
    # other character goes to the per-line parser. The layout matches a line's bytes,
    # and text lines reach it encoded as the scan encodes them.
    fast = {
        char
        for char in characters
        if ingest._JSONL_LAYOUT.fullmatch(
            _layout_line(f"h{char}", char, char, 1).encode("utf-8", "surrogatepass")
        )
    }
    assert fast == printable


def test_non_integer_timestamp_reason_shows_at_most_20_characters():
    fields = ["9" * 5000 + "x", "x" * 20, "x" * 21]
    lines = [f"h{i}|a@b|A|{field}|0" for i, field in enumerate(fields)]
    reasons = [m.reason for m in parse_log_stream(lines, malformed_tolerance=1.0).malformed]
    assert reasons == [
        "non-integer timestamp '" + "9" * 20 + "'...",
        "non-integer timestamp '" + "x" * 20 + "'",
        "non-integer timestamp '" + "x" * 20 + "'...",
    ]
    assert len(reasons[0]) < 60


def test_json_authors_that_spell_the_same_span_stay_two_pairs(tmp_path, capsys):
    """An email holding the layout's own glue text, and a name holding it, over the same
    bytes from the email's start to the name's end: two authors with their own commits."""
    quoted = CommitRecord("q1", "c", 'a", "author_name": "b', 1_600_000_000)
    plain = CommitRecord("p1", 'b", "author_name": "c', "a", 1_600_100_000)
    records = [quoted, plain, quoted._replace(hash="q2", author_timestamp=1_600_200_000)]
    records += [plain._replace(hash=f"p{i}", author_timestamp=1_600_300_000 + i) for i in (2, 3)]
    lines = [to_jsonl_line(record) for record in records]
    assert ingest._GLUE.decode() in json.loads(lines[0])["author_email"]
    grouped = group_log_stream(lines, "jsonl")
    assert grouped.timelines == {
        ("c", 'a", "author_name": "b'): [1_600_000_000, 1_600_200_000],
        ('b", "author_name": "c', "a"): [1_600_100_000, 1_600_300_002, 1_600_300_003],
    }

    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "est"
    code = main(["estimate", "--commits", str(commits), "--theta", "1", "--alignment",
                 "rolling", "--anchor", "2021-01-01", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    with open(out / "activity.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    counts = {}
    for developer, _, count in rows:
        counts[developer] = counts.get(developer, 0) + int(count)
    assert counts == {'a", "author_name": "b': 2, "a": 3}


def seeded_log(n: int, fmt: str) -> list[str]:
    """``n`` commits over a fixed four-year span by about ``n // 10`` authors, one in 20 a bot.

    Every 13th commit is a merge and every 97th line is malformed.
    """
    rng = random.Random(n)
    to_line = to_pipe_line if fmt == "pipe" else to_jsonl_line
    lines = []
    for i in range(n):
        k = rng.randrange(n // 10)
        name, email = (f"ci-bot {k}", f"ci{k}@bots.org") if k % 20 == 0 else (f"Dev {k}", f"d{k}@x.org")
        timestamp = 1_420_070_400 + rng.randrange(4 * 365 * 86400)
        lines.append(to_line(CommitRecord(f"{i:040x}", name, email, timestamp, i % 13 == 0)))
        if i % 97 == 0:
            lines.append("not a commit")
    return lines


@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_ingest_cost_grows_linearly_with_commits(fmt):
    # Merges excluded and the default bot patterns on. Measured ratios of the
    # counts at 20,000 and 5,000 commits: 4.00 for pipe lines (130,232 to
    # 520,837 events) and 4.00 for JSON lines (85,544 to 342,079). Only Python
    # lines count, so a scan in C, such as a list in place of a set of hashes,
    # still reads 4.
    logs = {n: seeded_log(n, fmt) for n in (5000, 20000)}
    patterns = compile_bot_patterns(DEFAULT_BOT_PATTERNS)

    def run(n: int) -> None:
        timelines, merged, _, _ = group_log_stream(logs[n], fmt, DEFAULT_MALFORMED_TOLERANCE, True)
        drop_bots(timelines, merged, patterns)

    run(5000)  # warm-up, untraced
    small = line_events(ingest, lambda: run(5000))
    large = line_events(ingest, lambda: run(20000))
    assert large / small < 6, (small, large)


def test_crlf_json_lines_stay_on_the_fast_path():
    """CRLF- and LF-ended JSON lines cost the Python line events of lines without an
    end: the layout match takes the line end, so no such line falls to the per-line
    parser."""
    logs = {
        ending: [(line + ending).encode() for line in seeded_log(5000, "jsonl")]
        for ending in ("", "\n", "\r\n")
    }

    def run(ending: str) -> None:
        group_log_stream(logs[ending], "jsonl", DEFAULT_MALFORMED_TOLERANCE, True)

    run("\r\n")  # warm-up, untraced
    events = {ending: line_events(ingest, lambda: run(ending)) for ending in logs}
    assert events["\r\n"] == events["\n"] == events[""], events

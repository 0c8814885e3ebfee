"""Commit log ingestion: pipe and JSON-lines parsing, bot and merge filtering."""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager
from datetime import date
from functools import partial
from typing import IO, Iterable, Iterator, NamedTuple

from . import DEFAULT_MALFORMED_TOLERANCE
from .errors import ConfigError, IngestionError

# One record per line: hash|author_email|author_name|unix_timestamp|merge_flag.
# Author names may themselves contain pipes, so lines are split from both ends.
PIPE_FIELD_COUNT = 5

GIT_PRETTY_FORMAT = "%H|%ae|%an|%at|%P"

DEFAULT_BOT_PATTERNS = (r"\bbot\b", "jenkins", "gerrit", "automation")

# 9999-12-31T23:59:59Z, the last second a UTC date can represent.
MAX_TIMESTAMP = 253402300799


class CommitRecord(NamedTuple):
    """One version-control change, attributed to its author (committers are ignored)."""

    hash: str
    author_name: str
    author_email: str
    author_timestamp: int  # UTC seconds since the epoch
    is_merge: bool = False


JSONL_REQUIRED_KEYS = CommitRecord._fields

# Builds a CommitRecord from one 5-tuple without the named tuple's Python-level __new__.
_new_record = partial(tuple.__new__, CommitRecord)

# The decoder json.loads uses; raw_decode skips its BOM, whitespace and trailer checks.
_raw_decode = json.JSONDecoder().raw_decode

# The exact layout to_jsonl_line writes. A string here holds no quote, backslash or
# control character, so each group is the very text json.loads would return for it.
_JSONL_LAYOUT = re.compile(
    r'\{"author_email": "([^"\\\x00-\x1f]*)", "author_name": "([^"\\\x00-\x1f]*)", '
    r'"author_timestamp": ([1-9][0-9]{0,11}), "hash": "([^"\\\x00-\x1f]+)", '
    r'"is_merge": (true|false)\}'
)


class MalformedLine(NamedTuple):
    """A rejected input line, kept for loss accounting."""

    line_no: int  # 1-based position in the stream
    line: str
    reason: str


class ParseResult(NamedTuple):
    records: list[CommitRecord]
    malformed: list[MalformedLine]


class FilterConfig(NamedTuple):
    """Exclusion rules applied after parsing; both default to off."""

    bot_patterns: tuple[str, ...] = ()
    exclude_merges: bool = False


@contextmanager
def open_input(path: str, what: str, **open_options) -> Iterator[IO[str]]:
    """Open a UTF-8 text input, BOM dropped; a read failure raises ``IngestionError``."""
    try:
        with open(path, encoding="utf-8-sig", **open_options) as handle:
            yield handle
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read {what} {path}: {exc}") from exc


def setting_lines(path: str, what: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping blank and #-comment lines."""
    with open_input(path, what) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line_no, line


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date in ASCII digits; ``ValueError`` otherwise.

    From Python 3.11, ``date.fromisoformat`` alone also takes ``20200101`` and week dates.
    """
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return date.fromisoformat(text)


def _out_of_range(text: str) -> ValueError:
    """The error for a timestamp outside (0, MAX_TIMESTAMP], given as an optional "-"
    and digits without leading zeros; the reason shows at most 20 of the digits."""
    negative = text[:1] == "-"
    if len(text) - negative > 20:
        text = text[: 20 + negative] + "..."
    if negative or text == "0":
        return ValueError(f"non-positive timestamp {text}")
    return ValueError(f"timestamp {text} is after 9999-12-31T23:59:59Z")


# A per-line parser returns (hash, name, email, timestamp, is_merge), or raises ValueError
# with the reason; _scan decides what to build from the fields.
def _parse_pipe_line(line: str) -> tuple[str, str, str, int, bool]:
    parts = line.split("|")
    if len(parts) < PIPE_FIELD_COUNT:
        raise ValueError(f"expected {PIPE_FIELD_COUNT} pipe-delimited fields, got {len(parts)}")
    commit_hash = parts[0]
    email = parts[1]
    ts_field = parts[-2]
    merge_field = parts[-1]
    name = "|".join(parts[2:-2])
    if not commit_hash:
        raise ValueError("empty hash field")
    # ASCII digits with an optional "-": int() would also take spaces, "_", "+" and other scripts.
    if not ts_field.isascii() or not (
        ts_field.isdigit() or ts_field[:1] == "-" and ts_field[1:].isdigit()
    ):
        shown = repr(ts_field[:20]) + ("..." if len(ts_field) > 20 else "")
        raise ValueError(f"non-integer timestamp {shown}")
    # Leading zeros dropped, int() never sees more than 12 digits (MAX_TIMESTAMP has
    # 12), so the verdict does not depend on CPython's limit on int() of long text.
    sign = "-" if ts_field[:1] == "-" else ""
    digits = ts_field[len(sign) :].lstrip("0") or "0"
    if len(digits) > 12:
        raise _out_of_range(sign + digits)
    timestamp = int(sign + digits)
    if not 0 < timestamp <= MAX_TIMESTAMP:
        raise _out_of_range(str(timestamp))
    if merge_field not in ("0", "1"):
        raise ValueError(f"merge flag must be 0 or 1, got {merge_field!r}")
    if not email and not name:
        raise ValueError("author email and name are both empty")
    return commit_hash, name, email, timestamp, merge_field == "1"


def _parse_jsonl_line(line: str) -> tuple[str, str, str, int, bool]:
    # One value spanning the whole line is exactly what json.loads returns for it;
    # anything else (surrounding whitespace, a BOM, a trailer, bad JSON) goes through
    # json.loads, which accepts it or words the reason.
    try:
        obj, end = _raw_decode(line)
    except (ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc.msg}") from None
        except ValueError as exc:
            # CPython's limit on int() of long text, a message of bounded length.
            raise ValueError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
    # The decoder builds only exact dict, str, int and bool objects, so type() is
    # isinstance() here, and a bool timestamp is still not an int.
    if type(obj) is not dict:
        raise ValueError("JSON line is not an object")
    try:
        commit_hash = obj["hash"]
        name = obj["author_name"]
        email = obj["author_email"]
        timestamp = obj["author_timestamp"]
        is_merge = obj["is_merge"]
    except KeyError:
        missing = next(key for key in JSONL_REQUIRED_KEYS if key not in obj)
        raise ValueError(f"missing key {missing!r}") from None
    if type(commit_hash) is not str or not commit_hash:
        raise ValueError("hash must be a non-empty string")
    if type(name) is not str or type(email) is not str:
        raise ValueError("author_name and author_email must be strings")
    if not (name.isascii() and email.isascii()):
        try:
            (name + email).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("author_name or author_email is not valid UTF-8 text") from None
    if type(timestamp) is not int:
        raise ValueError("author_timestamp must be an integer")
    if not 0 < timestamp <= MAX_TIMESTAMP:
        raise _out_of_range(str(timestamp))
    if type(is_merge) is not bool:
        raise ValueError("is_merge must be a boolean")
    if not email and not name:
        raise ValueError("author email and name are both empty")
    return commit_hash, name, email, timestamp, is_merge


_LINE_PARSERS = {"pipe": _parse_pipe_line, "jsonl": _parse_jsonl_line}


def _scan(
    lines: Iterable[str],
    fmt: str,
    malformed_tolerance: float,
    records: list[CommitRecord] | None,
    timelines: defaultdict[tuple[str, str], list[int]] | None,
    merged: defaultdict[tuple[str, str], int] | None,
) -> tuple[int, list[MalformedLine]]:
    """The one parse loop: returns (accepted commits, malformed lines).

    With ``records`` given, each accepted commit is appended to it as a
    ``CommitRecord`` with interned author strings. Otherwise it goes straight
    into its author pair's entry: ``merged[name, email] += 1`` for a merge when
    ``merged`` is given, else ``timelines[name, email].append(timestamp)``.

    Blank lines carry no commit and are skipped without counting as malformed.
    Duplicate hashes keep the first occurrence. If the malformed fraction of
    non-blank lines exceeds ``malformed_tolerance``, ``IngestionError`` is raised
    once the stream ends.

    The common well-formed line is accepted inline, without the per-line parser:
    a pipe line of exactly five fields with a 1-12 digit ASCII timestamp and a
    ``0``/``1`` merge flag, or a JSON line in the exact layout ``to_jsonl_line``
    writes with an ASCII name and email. Either also needs a non-empty email or
    name and a timestamp in range. Every other line goes through the per-line
    parser, so what is accepted and every reason are unchanged.
    """
    try:
        parse_one = _LINE_PARSERS[fmt]
    except KeyError:
        raise ConfigError(f"unknown log format {fmt!r}, expected 'pipe' or 'jsonl'") from None
    if not 0.0 <= malformed_tolerance <= 1.0:
        raise ConfigError(f"malformed tolerance must be in [0, 1], got {malformed_tolerance}")

    malformed: list[MalformedLine] = []
    seen_hashes: set[str] = set()
    pipe = fmt == "pipe"
    jsonl_layout = _JSONL_LAYOUT.fullmatch
    intern = sys.intern
    keep_records = records is not None
    exclude_merges = merged is not None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        # Fast path: a timestamp stays 0 unless the line passes these checks, and
        # no int() here sees more than 12 digits.
        timestamp = 0
        if pipe:
            fields = line.split("|")
            if len(fields) == PIPE_FIELD_COUNT:
                commit_hash, email, name, stamp, flag = fields
                if (
                    commit_hash
                    and (email or name)
                    and (flag == "0" or flag == "1")
                    and len(stamp) <= 12
                    and stamp.isascii()
                    and stamp.isdigit()
                ):
                    timestamp = int(stamp)
                    is_merge = flag == "1"
        else:
            match = jsonl_layout(line)
            if match:
                email, name, stamp, commit_hash, flag = match.groups()
                if (email or name) and name.isascii() and email.isascii():
                    timestamp = int(stamp)
                    is_merge = flag == "true"
        if not 0 < timestamp <= MAX_TIMESTAMP:
            if not line.strip():
                continue
            try:
                commit_hash, name, email, timestamp, is_merge = parse_one(line)
            except ValueError as exc:
                malformed.append(MalformedLine(line_no, line, str(exc)))
                continue
        if commit_hash in seen_hashes:
            malformed.append(MalformedLine(line_no, line, f"duplicate hash {commit_hash!r}"))
            continue
        seen_hashes.add(commit_hash)
        if keep_records:
            # Interned: every record of one author shares its name and email strings.
            records.append(
                _new_record((commit_hash, intern(name), intern(email), timestamp, is_merge))
            )
        elif is_merge and exclude_merges:
            merged[name, email] += 1
        else:
            timelines[name, email].append(timestamp)

    # Every non-blank line was accepted once or is a malformed line.
    total = len(seen_hashes) + len(malformed)
    if total and len(malformed) / total > malformed_tolerance:
        preview = "; ".join(f"line {m.line_no}: {m.reason}" for m in malformed[:5])
        raise IngestionError(
            f"{len(malformed)} of {total} lines malformed, exceeding tolerance "
            f"{malformed_tolerance:.1%}: {preview}"
        )
    return len(seen_hashes), malformed


def parse_log_stream(
    lines: Iterable[str],
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
) -> ParseResult:
    """Parse a commit log stream into records plus a malformed-line report.

    Blank lines carry no record and are skipped without counting as malformed.
    Duplicate hashes keep the first occurrence. If the malformed fraction of
    non-blank lines exceeds ``malformed_tolerance`` the whole ingest aborts with
    ``IngestionError``. Author names and emails are interned, so the records of
    one author share their two strings.
    """
    records: list[CommitRecord] = []
    _, malformed = _scan(lines, fmt, malformed_tolerance, records, None, None)
    return ParseResult(records, malformed)


class GroupedLog(NamedTuple):
    """A commit log grouped by (author_name, author_email) pair as it is read."""

    timelines: defaultdict[tuple[str, str], list[int]]  # unsorted timestamps
    merged: defaultdict[tuple[str, str], int]  # merges set aside; empty unless excluded
    parsed: int
    malformed: list[MalformedLine]


def group_log_stream(
    lines: Iterable[str],
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
    exclude_merges: bool = False,
) -> GroupedLog:
    """``parse_log_stream``'s commits grouped by author pair, without building records.

    The same lines are accepted and rejected, with the same reasons and the same
    ``IngestionError``. ``drop_bots`` finishes the result as ``apply_filters``
    would have: ``drop_bots(timelines, merged, compile_bot_patterns(patterns))``
    equals ``apply_filters(records, FilterConfig(patterns, exclude_merges))``.
    """
    timelines: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    merged: defaultdict[tuple[str, str], int] = defaultdict(int)
    parsed, malformed = _scan(
        lines, fmt, malformed_tolerance, None, timelines, merged if exclude_merges else None
    )
    return GroupedLog(timelines, merged, parsed, malformed)


def open_log(path: str) -> AbstractContextManager[IO[str]]:
    """Open a commit log file. As in ``read_repository_log``, records end at a line feed
    only, so a name keeps a carriage return; CRLF line ends still work."""
    return open_input(path, "commit log", errors="replace", newline="\n")


def parse_log_file(
    path: str,
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
) -> ParseResult:
    """``parse_log_stream`` over a file opened by ``open_log``."""
    with open_log(path) as handle:
        return parse_log_stream(handle, fmt, malformed_tolerance)


def to_pipe_line(record: CommitRecord) -> str:
    flag = "1" if record.is_merge else "0"
    return (
        f"{record.hash}|{record.author_email}|{record.author_name}"
        f"|{record.author_timestamp}|{flag}"
    )


def to_jsonl_line(record: CommitRecord) -> str:
    return json.dumps(record._asdict(), sort_keys=True)


def load_bot_patterns(path: str) -> tuple[str, ...]:
    """Read one regular expression per line; blank lines and #-comment lines are skipped."""
    return tuple(line for _, line in setting_lines(path, "bot pattern file"))


def compile_bot_patterns(patterns: Iterable[str]) -> list[re.Pattern[str]]:
    compiled = []
    for pattern in patterns:
        try:
            compiled.append(re.compile(pattern, re.IGNORECASE))
        except re.error as exc:
            raise ConfigError(f"invalid bot pattern {pattern!r}: {exc}") from exc
    return compiled


def apply_filters(
    commits: Iterable[CommitRecord], config: FilterConfig
) -> tuple[dict[tuple[str, str], list[int]], int, int]:
    """Drop bot-authored and (optionally) merge commits, and group the rest by author.

    Returns (timelines, bot_excluded, merge_excluded). ``timelines`` maps each
    (author_name, author_email) pair with a kept commit to its kept timestamps,
    sorted ascending; a pair with no kept commit has no timeline. The kept
    timestamps and the two counts partition the input. Bot matching is
    case-insensitive over both author name and email, and a bot's merge counts
    as a bot. The commits are grouped by pair first, and ``drop_bots`` finishes.
    """
    patterns = compile_bot_patterns(config.bot_patterns)
    exclude_merges = config.exclude_merges
    timelines: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    merged: defaultdict[tuple[str, str], int] = defaultdict(int)
    # Indexing beats unpacking and the field names here: (hash, name, email, timestamp, is_merge).
    for commit in commits:
        if exclude_merges and commit[4]:
            merged[commit[1], commit[2]] += 1
        else:
            timelines[commit[1], commit[2]].append(commit[3])
    return drop_bots(timelines, merged, patterns)


def drop_bots(
    timelines: dict[tuple[str, str], list[int]],
    merged: dict[tuple[str, str], int],
    patterns: list[re.Pattern[str]],
) -> tuple[dict[tuple[str, str], list[int]], int, int]:
    """Finish commits grouped by author pair: (timelines, bot_excluded, merge_excluded).

    ``timelines`` holds each pair's kept timestamps and ``merged`` its excluded
    merges. A pair whose name or email a pattern matches is dropped from both,
    and its commits count as bots; the verdict depends only on the pair, so the
    patterns run once per distinct pair. The timelines left are sorted in place
    and returned in their first-appearance order.
    """
    bots = 0
    if patterns:
        for author in {**timelines, **merged}:
            if any(p.search(author[0]) or p.search(author[1]) for p in patterns):
                bots += len(timelines.pop(author, ())) + merged.pop(author, 0)
    for stamps in timelines.values():
        stamps.sort()
    return dict(timelines), bots, sum(merged.values())


def read_repository_log(repo_path: str) -> list[str]:
    """Extract pipe-format lines from a local git repository.

    The merge flag is derived from the parent count of each commit; author
    timestamps are epoch seconds and therefore timezone-free. The log is read
    as UTF-8 whatever the repository's output encoding, and undecodable bytes
    are replaced, as in ``parse_log_file``. Records end at a line feed only,
    so an author name keeps any carriage return, form feed or line separator.
    """
    # Imported here, so that only --repo runs pay for loading it.
    import subprocess

    # --no-show-signature: with log.showSignature set, git prints signature lines on stdout.
    command = [
        "git", "-C", repo_path, "log", "--no-color", "--no-show-signature", "--encoding=UTF-8",
        f"--pretty=format:{GIT_PRETTY_FORMAT}",
    ]
    try:
        result = subprocess.run(command, capture_output=True, check=True)
    except FileNotFoundError as exc:
        raise IngestionError("git executable not found") from exc
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode("utf-8", "replace").strip() or f"exit status {exc.returncode}"
        raise IngestionError(f"git log failed for {repo_path}: {detail}") from exc

    lines = []
    # Bytes, then split("\n"): text mode turns "\r" into "\n", and splitlines() splits names.
    for line in result.stdout.decode("utf-8", "replace").split("\n"):
        if not line.strip():
            continue
        # Parent hashes never contain pipes, so the last field is always %P.
        fields, _, parents = line.rpartition("|")
        lines.append(fields + ("|1" if len(parents.split()) > 1 else "|0"))
    return lines

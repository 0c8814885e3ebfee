"""Commit log ingestion: pipe and JSON-lines parsing, bot and merge filtering."""

from __future__ import annotations

import csv
import json
import re
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from datetime import date
from functools import partial
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ConfigError, IngestionError

# One record per line: hash|author_email|author_name|unix_timestamp|merge_flag.
# Author names may themselves contain pipes, so lines are split from both ends.
PIPE_FIELD_COUNT = 5

GIT_PRETTY_FORMAT = "%H|%ae|%an|%at|%P"

DEFAULT_BOT_PATTERNS = (r"\bbot\b", "jenkins", "gerrit", "automation")

DEFAULT_MALFORMED_TOLERANCE = 0.05

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


def _parse_pipe_line(line: str) -> CommitRecord:
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
    # Interned: every commit by one author then shares its name and email strings.
    return _new_record(
        (commit_hash, sys.intern(name), sys.intern(email), timestamp, merge_field == "1")
    )


def _parse_jsonl_line(line: str) -> CommitRecord:
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
    return _new_record((commit_hash, sys.intern(name), sys.intern(email), timestamp, is_merge))


_LINE_PARSERS = {"pipe": _parse_pipe_line, "jsonl": _parse_jsonl_line}


def parse_log_stream(
    lines: Iterable[str],
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
) -> ParseResult:
    """Parse a commit log stream into records plus a malformed-line report.

    Blank lines carry no record and are skipped without counting as malformed.
    Duplicate hashes keep the first occurrence. If the malformed fraction of
    non-blank lines exceeds ``malformed_tolerance`` the whole ingest aborts.

    The common well-formed line is accepted inline, without the per-line parser:
    a pipe line of exactly five fields with a 1-12 digit ASCII timestamp and a
    ``0``/``1`` merge flag, or a JSON line in the exact layout ``to_jsonl_line``
    writes with an ASCII name and email. Either also needs a non-empty email or
    name, a timestamp in range and an unseen hash. Every other line goes through
    the per-line parser, so what is accepted and every reason are unchanged.
    """
    try:
        parse_one = _LINE_PARSERS[fmt]
    except KeyError:
        raise ConfigError(f"unknown log format {fmt!r}, expected 'pipe' or 'jsonl'") from None
    if not 0.0 <= malformed_tolerance <= 1.0:
        raise ConfigError(f"malformed tolerance must be in [0, 1], got {malformed_tolerance}")

    records: list[CommitRecord] = []
    malformed: list[MalformedLine] = []
    seen_hashes: set[str] = set()
    pipe = fmt == "pipe"
    jsonl_layout = _JSONL_LAYOUT.fullmatch
    intern = sys.intern
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        # Fast path. A line that passes these checks is never blank, and no int()
        # here sees more than 12 digits.
        well_formed = False
        if pipe:
            fields = line.split("|")
            if len(fields) == PIPE_FIELD_COUNT:
                commit_hash, email, name, stamp, flag = fields
                well_formed = (
                    commit_hash
                    and (flag == "0" or flag == "1")
                    and len(stamp) <= 12
                    and stamp.isascii()
                    and stamp.isdigit()
                )
                is_merge = flag == "1"
        else:
            match = jsonl_layout(line)
            if match:
                email, name, stamp, commit_hash, flag = match.groups()
                well_formed = name.isascii() and email.isascii()
                is_merge = flag == "true"
        if well_formed and (email or name) and commit_hash not in seen_hashes:
            timestamp = int(stamp)
            if 0 < timestamp <= MAX_TIMESTAMP:
                seen_hashes.add(commit_hash)
                records.append(
                    _new_record((commit_hash, intern(name), intern(email), timestamp, is_merge))
                )
                continue
        if not line.strip():
            continue
        try:
            record = parse_one(line)
        except ValueError as exc:
            malformed.append(MalformedLine(line_no, line, str(exc)))
            continue
        if record.hash in seen_hashes:
            malformed.append(MalformedLine(line_no, line, f"duplicate hash {record.hash!r}"))
            continue
        seen_hashes.add(record.hash)
        records.append(record)

    # Every non-blank line became a record or a malformed line.
    total = len(records) + len(malformed)
    if total and len(malformed) / total > malformed_tolerance:
        preview = "; ".join(f"line {m.line_no}: {m.reason}" for m in malformed[:5])
        raise IngestionError(
            f"{len(malformed)} of {total} lines malformed, exceeding tolerance "
            f"{malformed_tolerance:.1%}: {preview}"
        )
    return ParseResult(records, malformed)


def parse_log_file(
    path: str,
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
) -> ParseResult:
    """``parse_log_stream`` over a file. As in ``read_repository_log``, records end at
    a line feed only, so a name keeps a carriage return; CRLF line ends still work."""
    with open_input(path, "commit log", errors="replace", newline="\n") as handle:
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
    as a bot. The verdict depends only on the pair, so the commits are grouped
    by pair first and the patterns run once per distinct pair, dropping its
    timeline and its merges together.
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
    command = [
        "git",
        "-C",
        repo_path,
        "log",
        "--no-color",
        "--encoding=UTF-8",
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
        parts = line.split("|")
        # Parent hashes never contain pipes, so the last field is always %P.
        parents = parts[-1].split()
        flag = "1" if len(parents) > 1 else "0"
        lines.append("|".join(parts[:-1]) + "|" + flag)
    return lines

"""Commit log ingestion: pipe and JSON-lines parsing, bot and merge filtering."""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager
from datetime import date
from functools import partial
from itertools import chain
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

# The exact layout to_jsonl_line writes, over a line's bytes, with every string in
# printable ASCII other than quote and backslash: no escape, control character, DEL or
# non-ASCII byte. Each field's bytes then spell the very text json.loads would return.
# The first group is the author span from the email to the name, ``email`` then
# ``_GLUE`` then ``name``, and is the line's key; an email without a quote splits back
# at its one ``_GLUE``. The trailing class takes the line's end, CRLF or LF: ``}`` is
# neither byte, so this matches exactly the lines that match after rstrip(b"\r\n").
_GLUE = b'", "author_name": "'
_JSONL_LAYOUT = re.compile(
    rb'\{"author_email": "([ !#-\[\]-~]*", "author_name": "[ !#-\[\]-~]*)", '
    rb'"author_timestamp": ([1-9][0-9]{0,11}), "hash": "([ !#-\[\]-~]+)", '
    rb'"is_merge": (true|false)\}[\r\n]*'
)

_UTF8_BOM = b"\xef\xbb\xbf"


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
def open_input(
    path: str, what: str, mode: str = "r", encoding: str | None = "utf-8-sig", **open_options
) -> Iterator[IO]:
    """Open an input, by default as UTF-8 text with its BOM dropped; a read failure
    raises ``IngestionError``."""
    try:
        with open(path, mode, encoding=encoding, **open_options) as handle:
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


class _Decoded(dict):
    """Raw names and emails mapped to their text, each decoded once when first looked up."""

    def __init__(self, errors: str) -> None:
        self.errors = errors

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = raw.decode("utf-8", self.errors)
        return text


def _author_text(key: bytes | tuple[bytes, bytes], decoded: _Decoded) -> tuple[str, str]:
    """The (name, email) text of a raw author key: a (name, email) pair of bytes, or a
    JSON email-to-name span, the email, ``_GLUE``, then the name, for an email without
    a quote."""
    if type(key) is bytes:
        email, _, name = key.partition(_GLUE)
    else:
        name, email = key
    return decoded[name], decoded[email]


def _scan(
    lines: Iterable[str] | Iterable[bytes],
    fmt: str,
    malformed_tolerance: float,
    records: list[CommitRecord] | None,
    timelines: defaultdict[tuple[str, str], list[int]] | None,
    merged: defaultdict[tuple[str, str], int] | None,
) -> tuple[int, list[MalformedLine]]:
    """The one parse loop: returns (accepted commits, malformed lines).

    With ``records`` given, each accepted commit is appended to it as a
    ``CommitRecord``. Otherwise it goes into its author pair's entry:
    ``merged[name, email] += 1`` for a merge when ``merged`` is given, else
    ``timelines[name, email].append(timestamp)``. Blank lines are skipped, not
    malformed; duplicate hashes keep the first occurrence; and ``IngestionError``
    is raised once the stream ends if the malformed fraction of non-blank lines
    exceeds ``malformed_tolerance``.

    Every CLI source, ``open_log`` or ``read_repository_log``, gives byte lines,
    which stay bytes until a value leaves ingest and are decoded here as UTF-8
    with replacement, a BOM opening line 1 dropped. A library caller's text lines
    are each encoded with ``"surrogatepass"`` and decoded back, an exact round
    trip. Entries are keyed by raw author bytes: a pipe commit by its (name,
    email) pair, and a JSON commit by the email-to-name span its layout match
    holds, or by its pair if its email has a quote. Each distinct key is split and
    decoded once when the scan ends; records decode each distinct raw name and
    email once, so the records of one author share their two strings. A rejected
    or unusual line is decoded for the per-line parser, whose fields are encoded
    back for the key. So every result is that of a scan over the decoded text:
    keys whose bytes decode alike are one pair, in the place of its first appearance.

    The common well-formed line is accepted inline, without the per-line parser:
    a pipe line of exactly five fields with an ASCII hash, a 1-12 digit ASCII
    timestamp and a ``0``/``1`` merge flag, or a JSON line in the exact layout
    ``to_jsonl_line`` writes, LF or CRLF ended, whose hash, name and email are
    printable ASCII other than ``"`` and ``\\``. Either also needs a non-empty
    email or name and a timestamp in range. Every other line, an escaped JSON
    author or a non-ASCII hash among them, goes through the per-line parser, so
    what is accepted and every reason are unchanged.
    """
    try:
        parse_one = _LINE_PARSERS[fmt]
    except KeyError:
        raise ConfigError(f"unknown log format {fmt!r}, expected 'pipe' or 'jsonl'") from None
    if not 0.0 <= malformed_tolerance <= 1.0:
        raise ConfigError(f"malformed tolerance must be in [0, 1], got {malformed_tolerance}")

    lines = iter(lines)
    first = next(lines, b"")
    if isinstance(first, str):
        errors = "surrogatepass"
        lines = (line.encode("utf-8", errors) for line in chain((first,), lines))
    else:
        errors = "replace"
        lines = chain((first.removeprefix(_UTF8_BOM),), lines)
    decoded = _Decoded(errors)
    malformed: list[MalformedLine] = []
    seen_hashes: set[bytes] | set[str] = set()
    pipe = fmt == "pipe"
    jsonl_layout = _JSONL_LAYOUT.fullmatch
    glue = _GLUE
    keep_records = records is not None
    exclude_merges = merged is not None
    raw_timelines: defaultdict[bytes | tuple[bytes, bytes], list[int]] = defaultdict(list)
    raw_merged: defaultdict[bytes | tuple[bytes, bytes], int] = defaultdict(int)
    for line_no, raw in enumerate(lines, start=1):
        # Fast path: a timestamp stays 0 unless the line passes these checks, and
        # no int() here sees more than 12 digits. bytes.isdigit() is ASCII-only.
        # An ASCII hash is its own text, so equal texts are equal keys.
        timestamp = 0
        if pipe:
            fields = raw.rstrip(b"\r\n").split(b"|")
            if len(fields) == PIPE_FIELD_COUNT:
                commit_hash, email, name, stamp, flag = fields
                if (
                    commit_hash
                    and (email or name)
                    and (flag == b"0" or flag == b"1")
                    and len(stamp) <= 12
                    and stamp.isdigit()
                    and commit_hash.isascii()
                ):
                    timestamp = int(stamp)
                    is_merge = flag == b"1"
                    key = name, email
        else:
            match = jsonl_layout(raw)
            if match:
                key, stamp, commit_hash, flag = match.groups()
                if key != glue:  # a non-empty email or name
                    timestamp = int(stamp)
                    is_merge = flag == b"true"
        if not 0 < timestamp <= MAX_TIMESTAMP:
            text = raw.rstrip(b"\r\n").decode("utf-8", errors)
            if not text.strip():
                continue
            try:
                hash_text, name_text, email_text, timestamp, is_merge = parse_one(text)
            except ValueError as exc:
                malformed.append(MalformedLine(line_no, text, str(exc)))
                continue
            # Keys are the text's UTF-8 bytes; surrogatepass keeps a JSON hash's
            # escaped lone surrogate apart from every other hash. A JSON author
            # takes the fast path's key form wherever its email splits back.
            commit_hash = hash_text.encode("utf-8", "surrogatepass")
            name = name_text.encode("utf-8", "surrogatepass")
            email = email_text.encode("utf-8", "surrogatepass")
            key = (name, email) if pipe or b'"' in email else email + glue + name
        if keep_records:
            # Decoded before the dedupe, so the set holds the record's own string.
            commit_hash = commit_hash.decode("utf-8", "surrogatepass")
        if commit_hash in seen_hashes:
            shown = commit_hash if keep_records else commit_hash.decode("utf-8", "surrogatepass")
            reason = f"duplicate hash {shown!r}"
            text = raw.rstrip(b"\r\n").decode("utf-8", errors)
            malformed.append(MalformedLine(line_no, text, reason))
            continue
        seen_hashes.add(commit_hash)
        if keep_records:
            if type(key) is bytes:
                email, _, name = key.partition(glue)
            records.append(
                _new_record((commit_hash, decoded[name], decoded[email], timestamp, is_merge))
            )
        elif is_merge and exclude_merges:
            raw_merged[key] += 1
        else:
            raw_timelines[key].append(timestamp)

    # Every non-blank line was accepted once or is a malformed line.
    parsed = len(seen_hashes)
    total = parsed + len(malformed)
    if total and len(malformed) / total > malformed_tolerance:
        preview = "; ".join(f"line {m.line_no}: {m.reason}" for m in malformed[:5])
        raise IngestionError(
            f"{len(malformed)} of {total} lines malformed, exceeding tolerance "
            f"{malformed_tolerance:.1%}: {preview}"
        )
    del seen_hashes  # freed before the pairs are decoded, which lowers the peak

    # Each distinct key decoded once; keys that decode alike are one pair.
    for key, stamps in raw_timelines.items():
        kept = timelines.setdefault(_author_text(key, decoded), stamps)
        if kept is not stamps:
            kept += stamps
    for key, count in raw_merged.items():
        merged[_author_text(key, decoded)] += count
    return parsed, malformed


def parse_log_stream(
    lines: Iterable[str] | Iterable[bytes],
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
) -> ParseResult:
    """Parse a commit log stream, text lines or ``open_log``'s byte lines, into records
    plus a malformed-line report.

    Blank lines carry no record and are skipped without counting as malformed.
    Duplicate hashes keep the first occurrence. If the malformed fraction of
    non-blank lines exceeds ``malformed_tolerance`` the whole ingest aborts with
    ``IngestionError``. Each distinct author name and email is decoded once, so
    the records of one author share their two strings.
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
    lines: Iterable[str] | Iterable[bytes],
    fmt: str = "pipe",
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
    exclude_merges: bool = False,
) -> GroupedLog:
    """``parse_log_stream``'s commits grouped by author pair, without building records.

    The same lines are accepted and rejected, with the same reasons and the same
    ``IngestionError``. ``drop_bots`` finishes the result as ``apply_filters``
    would have: ``drop_bots(timelines, merged, compile_bot_patterns(patterns))``
    equals ``apply_filters(records, FilterConfig(patterns, exclude_merges))``.
    Raw spellings that decode alike, such as names that differ only in invalid
    UTF-8, are one pair whose timestamps are joined spelling by spelling, so out
    of line order, from a file and from ``--repo`` alike; ``drop_bots`` sorts them.
    """
    timelines: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    merged: defaultdict[tuple[str, str], int] = defaultdict(int)
    parsed, malformed = _scan(
        lines, fmt, malformed_tolerance, None, timelines, merged if exclude_merges else None
    )
    return GroupedLog(timelines, merged, parsed, malformed)


def open_log(path: str) -> AbstractContextManager[IO[bytes]]:
    """Open a commit log file for ``parse_log_stream`` or ``group_log_stream``, in binary.

    Every CLI source reaches the scan as bytes and is decoded there, with the
    results of reading the file as UTF-8 with replacement, a BOM dropped. As from
    git, records end at a line feed only, so a name keeps a carriage return.
    """
    return open_input(path, "commit log", "rb", encoding=None)


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


def read_repository_log(repo_path: str) -> Iterator[bytes]:
    """Stream a git repository's log as pipe-format byte lines, split at line feeds only.

    Every CLI source reaches the scan as bytes and is decoded there, so the lines
    give ``parse_log_file``'s results for the same bytes in a file, whatever the
    repository's output encoding. The merge flag comes from the parent count. git
    starts at the first line asked for, a failure raises ``IngestionError`` once the
    stream ends, and closing the stream early kills git.
    """
    # Imported here, so that only --repo runs pay for loading them.
    import subprocess
    import tempfile

    # --no-show-signature: with log.showSignature set, git prints signature lines on stdout.
    command = [
        "git", "-C", repo_path, "log", "--no-color", "--no-show-signature", "--encoding=UTF-8",
        f"--pretty=format:{GIT_PRETTY_FORMAT}",
    ]
    # stderr goes to a file: a full stderr pipe would stall git while stdout is read.
    with tempfile.TemporaryFile() as stderr:
        try:
            git = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr)
        except FileNotFoundError as exc:
            raise IngestionError("git executable not found") from exc
        with git:  # closes stdout and reaps git
            try:
                for line in git.stdout:
                    # Parent hashes never contain pipes, so the last field is always %P.
                    fields, _, parents = line.rstrip(b"\n").rpartition(b"|")
                    yield fields + (b"|1" if len(parents.split()) > 1 else b"|0")
            except BaseException:
                git.kill()
                raise
        if git.returncode:
            stderr.seek(0)
            detail = stderr.read().decode("utf-8", "replace").strip()
            detail = detail or f"exit status {git.returncode}"
            raise IngestionError(f"git log failed for {repo_path}: {detail}")

"""A slow, obvious reading of commit logs by the README's rules: the ingest oracle.

It uses the standard library only and imports nothing from ``vcseffort``, so a fault
in the package cannot hide in its reference. ``tests/test_ingest.py``'s differential
tests hold every ingest route to it:

- ``log_lines`` reads a log as the README's *Data formats* section and
  ``open_log`` describe it;
- ``parse`` gives the commits and the rejected lines;
- ``ingestion_error`` gives the text of the error a malformed-line tolerance raises;
- ``group`` drops bots and merges commit by commit and groups the rest per author.
"""

from __future__ import annotations

import json
import re

# 9999-12-31T23:59:59Z, the last second a UTC date can represent.
MAX_TIMESTAMP = 253402300799

REQUIRED_KEYS = ("hash", "author_name", "author_email", "author_timestamp", "is_merge")


def log_lines(source: bytes | list[str]) -> list[str]:
    """A file's bytes decoded as UTF-8 with replacement, a BOM opening line 1 dropped,
    split at line feeds; text lines as given."""
    if isinstance(source, bytes):
        return source.decode("utf-8", "replace").removeprefix("\ufeff").split("\n")
    return list(source)


def parse(lines: list[str], fmt: str) -> tuple[list[tuple], list[tuple]]:
    """Commits as (hash, name, email, timestamp, is_merge) and rejected lines as
    (line_no, line, reason), in line order. Each line's end of ``\\r`` and ``\\n`` is
    cut, a line of whitespace is skipped, and a hash seen before is a duplicate."""
    parse_line = _pipe_commit if fmt == "pipe" else _jsonl_commit
    commits, malformed, seen = [], [], set()
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        try:
            commit = parse_line(line)
            if commit[0] in seen:
                raise ValueError(f"duplicate hash {commit[0]!r}")
        except ValueError as exc:
            malformed.append((line_no, line, str(exc)))
            continue
        seen.add(commit[0])
        commits.append(commit)
    return commits, malformed


def ingestion_error(parsed: int, malformed: list[tuple], tolerance: float) -> str | None:
    """The error text when more than ``tolerance`` of the non-blank lines are malformed,
    with the reasons of the first five; None otherwise."""
    total = parsed + len(malformed)
    if not total or len(malformed) / total <= tolerance:
        return None
    preview = "; ".join(f"line {line_no}: {reason}" for line_no, _, reason in malformed[:5])
    return (f"{len(malformed)} of {total} lines malformed, exceeding tolerance "
            f"{tolerance:.1%}: {preview}")


def group(commits: list[tuple], bot_patterns: tuple[str, ...] = (),
          exclude_merges: bool = False) -> tuple[dict, dict, int]:
    """(timelines, merged, bots): a commit whose name or email a pattern finds,
    ignoring case, is a bot; else a merge, with ``exclude_merges``, counts in
    ``merged`` under its (name, email); else its timestamp joins its pair's
    timeline. Pairs and timestamps stay in line order."""
    patterns = [re.compile(pattern, re.IGNORECASE) for pattern in bot_patterns]
    timelines, merged, bots = {}, {}, 0
    for _, name, email, timestamp, is_merge in commits:
        if any(p.search(name) or p.search(email) for p in patterns):
            bots += 1
        elif exclude_merges and is_merge:
            merged[name, email] = merged.get((name, email), 0) + 1
        else:
            timelines.setdefault((name, email), []).append(timestamp)
    return timelines, merged, bots


def _out_of_range(sign: str, digits: str) -> ValueError:
    """A timestamp outside (0, MAX_TIMESTAMP], shown by at most its first 20 digits."""
    shown = sign + digits[:20] + ("..." if len(digits) > 20 else "")
    if sign or digits == "0":
        return ValueError(f"non-positive timestamp {'0' if digits == '0' else shown}")
    return ValueError(f"timestamp {shown} is after 9999-12-31T23:59:59Z")


def _pipe_commit(line: str) -> tuple:
    """``hash|author_email|author_name|unix_timestamp|merge_flag``, the name taking
    every field between the email and the last two."""
    fields = line.split("|")
    if len(fields) < 5:
        raise ValueError(f"expected 5 pipe-delimited fields, got {len(fields)}")
    commit_hash, email, name, stamp, flag = (
        fields[0], fields[1], "|".join(fields[2:-2]), fields[-2], fields[-1]
    )
    if not commit_hash:
        raise ValueError("empty hash field")
    if not re.fullmatch(r"-?[0-9]+", stamp):
        shown = repr(stamp[:20]) + ("..." if len(stamp) > 20 else "")
        raise ValueError(f"non-integer timestamp {shown}")
    sign, digits = ("-" if stamp[0] == "-" else ""), stamp.lstrip("-").lstrip("0") or "0"
    # Digit strings of one length order as their numbers.
    if sign or digits == "0" or (len(digits), digits) > (12, str(MAX_TIMESTAMP)):
        raise _out_of_range(sign, digits)
    if flag not in ("0", "1"):
        raise ValueError(f"merge flag must be 0 or 1, got {flag!r}")
    if not email and not name:
        raise ValueError("author email and name are both empty")
    return commit_hash, name, email, int(digits), flag == "1"


def _jsonl_commit(line: str) -> tuple:
    """One ``json.loads`` object with the five keys, each of its type; other keys are
    ignored."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # more digits than Python's limit on int() of text
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("JSON line is not an object")
    for key in REQUIRED_KEYS:
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    commit_hash, name, email, timestamp, is_merge = (obj[key] for key in REQUIRED_KEYS)
    if not isinstance(commit_hash, str) or not commit_hash:
        raise ValueError("hash must be a non-empty string")
    if not isinstance(name, str) or not isinstance(email, str):
        raise ValueError("author_name and author_email must be strings")
    try:
        (name + email).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("author_name or author_email is not valid UTF-8 text") from None
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise ValueError("author_timestamp must be an integer")
    if not 0 < timestamp <= MAX_TIMESTAMP:
        sign = "-" if timestamp < 0 else ""
        raise _out_of_range(sign, str(abs(timestamp)))
    if not isinstance(is_merge, bool):
        raise ValueError("is_merge must be a boolean")
    if not email and not name:
        raise ValueError("author email and name are both empty")
    return commit_hash, name, email, timestamp, is_merge

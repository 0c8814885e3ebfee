"""A slow, obvious reading of the README's rules, from log lines to person-months: the
pipeline oracle.

It uses the standard library only and imports nothing from ``vcseffort``, so a fault
in the package cannot hide in its reference. ``tests/test_ingest.py``'s differential
tests hold every ingest route to its ingest stage, the layer suites hold each later
stage to it, and ``tests/test_pipeline.py`` holds ``cli.main`` to all of it. The stages:

- ingest: ``log_lines`` reads a log by the README's *Data formats*, ``parse`` gives its
  commits and rejected lines, ``ingestion_error`` the malformed-line tolerance's error,
  and ``group`` drops bots and merges commit by commit and groups the rest per author;
- ``identities`` merges author pairs into developers, repeating until nothing changes;
- ``activity`` and ``window_activity`` count per developer and period by date arithmetic;
- ``triangulate`` labels survey rows; ``sweep``, ``select`` and ``sweep_csv`` count the
  labels at each threshold;
- ``effort``, ``render_quantity`` and ``render_percent`` sum saturated efforts cell by
  cell and round them as the README does;
- ``representativeness`` compares the surveyed developers with the population at each
  cutoff, through ``summary`` and the KS test ``ks``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
import unicodedata
from calendar import monthrange
from datetime import date, datetime, timedelta
from fractions import Fraction

# 9999-12-31T23:59:59Z, the last second a UTC date can represent.
MAX_TIMESTAMP = 253402300799

REQUIRED_KEYS = ("hash", "author_name", "author_email", "author_timestamp", "is_merge")

# The README's *Common options* table.
DEFAULT_BOT_PATTERNS = (r"\bbot\b", "jenkins", "gerrit", "automation")

FULL, NON_FULL = "full-time", "non-full-time"

# The README's *representativeness*.
DEFAULT_CUTOFFS = (0, 1, 2, 3, 4, 5, 8, 11)
INSUFFICIENT = "insufficient-data"


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


def normalize_name(name: str) -> str:
    """A name with its NFKD diacritics dropped, lowercased, inner whitespace collapsed."""
    decomposed = unicodedata.normalize("NFKD", name)
    return " ".join("".join(c for c in decomposed if not unicodedata.combining(c)).lower().split())


def identities(pairs, directives=(), name_merging: bool = False) -> list[tuple]:
    """Developers as (id, primary email, frozenset of (name, email) pairs, frozenset of
    the group's emails), by id.

    Each pair starts as a group holding its lowercased email, the canonical email of
    each directive naming its email or raw name (ignoring case), and with
    ``name_merging`` its normalized name. Two groups that hold a common email or name
    merge, until none do. A group's id is its smallest email, else ``name:`` and its
    smallest raw name, which takes the first ``#2``, ``#3``, ... that is no group's id
    when a group with an email has it."""
    canonical = {}
    for alias, target in directives:
        if canonical.setdefault(alias.lower(), target.lower()) != target.lower():
            raise ValueError(f"alias {alias!r} maps to two canonical emails")
    groups = []
    for name, email in dict.fromkeys(pairs):
        emails = {canonical[token] for token in (email.lower(), name.lower()) if token in canonical}
        emails |= {email.lower()} - {""}
        names = {normalize_name(name)} - {""} if name_merging else set()
        groups.append(({(name, email)}, emails, names))
    merged = True
    while merged:
        merged = False
        for first, second in itertools.combinations(range(len(groups)), 2):
            if groups[first][1] & groups[second][1] or groups[first][2] & groups[second][2]:
                other = groups.pop(second)
                groups[first] = tuple(mine | theirs for mine, theirs in zip(groups[first], other))
                merged = True
                break
    named = [(min(emails) if emails else "name:" + min(name for name, _ in members),
              emails, members) for members, emails, _ in groups]
    taken = {developer_id for developer_id, _, _ in named}
    with_email = {developer_id for developer_id, emails, _ in named if emails}
    developers = []
    for developer_id, emails, members in named:
        if not emails and developer_id in with_email:
            suffixed = (f"{developer_id}#{suffix}" for suffix in itertools.count(2))
            developer_id = next(free for free in suffixed if free not in taken)
        developers.append((developer_id, developer_id if emails else "", frozenset(members),
                           frozenset(emails)))
    return sorted(developers)


def utc_day(timestamp: int) -> date:
    return (datetime(1970, 1, 1) + timedelta(seconds=timestamp)).date()


def months_before(day: date, months: int) -> date:
    """The same day ``months`` calendar months earlier, cut to that month's last day."""
    year, month = divmod(day.year * 12 + day.month - 1 - months, 12)
    return date(year, month + 1, min(day.day, monthrange(year, month + 1)[1]))


def _count(days: list[date], metric: str) -> int:
    """Commits, or under ``active-days`` the distinct UTC days, of one cell."""
    return len(set(days)) if metric == "active-days" else len(days)


def activity(points, alignment: str, months: int, anchor: date | None = None,
             metric: str = "commits") -> tuple:
    """(metric, months, period labels, {developer: {label: count}}, overflow) of
    (developer, timestamp) points, each placed by its UTC day.

    Calendar periods are the half-years ``YYs1`` (January to June) and ``YYs2`` from
    the earliest point's to the latest's. Rolling periods are the windows [start, end)
    of ``months`` walked back from the anchor until one starts on or before the
    earliest point's day, labeled by their ISO start; a point on or after the anchor
    is overflow. Only non-zero cells are kept."""
    points = [(developer, utc_day(timestamp)) for developer, timestamp in points]
    days = [day for _, day in points]
    if not days:
        return metric, months, [], {}, 0
    if alignment == "calendar":
        first, last = (day.year * 2 + (day.month > 6) for day in (min(days), max(days)))
        labels = [f"{half // 2 % 100:02d}s{half % 2 + 1}" for half in range(first, last + 1)]

        def label_of(day: date) -> str:
            return f"{day.year % 100:02d}s{1 + (day.month > 6)}"
    else:
        windows, end = [], anchor
        while end > min(days):
            windows.insert(0, (months_before(end, months), end))
            end = windows[0][0]
        labels = [start.isoformat() for start, _ in windows]

        def label_of(day: date) -> str | None:
            return next((start.isoformat() for start, end in windows if start <= day < end), None)
    cells, overflow = {}, 0
    for developer, day in points:
        label = label_of(day)
        if label is None:
            overflow += 1
        else:
            cells.setdefault(developer, {}).setdefault(label, []).append(day)
    counts = {developer: {label: _count(found, metric) for label, found in row.items()}
              for developer, row in cells.items()}
    return metric, months, labels, counts, overflow


def window_activity(points, end: date, months: int, metric: str = "commits") -> dict:
    """{developer: count} of the (developer, timestamp) points dated in [end - months, end)."""
    start, cells = months_before(end, months), {}
    for developer, timestamp in points:
        if start <= utc_day(timestamp) < end:
            cells.setdefault(developer, []).append(utc_day(timestamp))
    return {developer: _count(days, metric) for developer, days in cells.items()}


def triangulate(rows, developers) -> tuple[list[tuple[str, str]], list[str]]:
    """(labels as (developer id, label), exclusion reasons) of survey rows (email,
    self_class, hours_bucket, survey_date, suspect), in row order.

    A row is excluded as ``suspect`` (``1``, ``true`` or ``yes``, any case), ``empty``
    (no class and no hours), ``unmatched`` (its email, ignoring case, is no email of a
    developer's group) or ``duplicate`` (its developer has a label), in that order.
    ``full`` is full-time, ``part`` and ``occasional`` are not, and without a class
    ``gt40`` or ``40`` hours are full-time."""
    developer_of = {email: developer_id for developer_id, *_, emails in developers
                    for email in emails}
    labels, reasons = [], []
    for email, self_class, hours, _, suspect in ([cell.strip() for cell in row] for row in rows):
        developer_id = developer_of.get(email.lower())
        if suspect.lower() in ("1", "true", "yes"):
            reasons.append("suspect")
        elif not self_class and not hours:
            reasons.append("empty")
        elif developer_id is None:
            reasons.append("unmatched")
        elif developer_id in dict(labels):
            reasons.append("duplicate")
        else:
            full = self_class == "full" or (not self_class and hours in ("gt40", "40"))
            labels.append((developer_id, FULL if full else NON_FULL))
    return labels, reasons


def sweep(counts, labels, theta_max: int | None = None) -> list[tuple]:
    """(theta, tp, fp, fn, tn, precision, recall, accuracy, F, goodness, fn - fp) for
    theta 1..theta_max, predicting full-time as activity >= theta, by counting the
    labels; activity missing from ``counts`` is 0, and ``theta_max`` defaults to one past
    the highest. Precision, recall and goodness are 1 on a zero denominator, F is 0."""
    labeled = [(counts.get(developer_id, 0), label == FULL) for developer_id, label, *_ in labels]
    if theta_max is None:
        theta_max = max(count for count, _ in labeled) + 1
    rows = []
    for theta in range(1, theta_max + 1):
        tp = sum(1 for count, full in labeled if full and count >= theta)
        fp = sum(1 for count, full in labeled if not full and count >= theta)
        fn = sum(1 for count, full in labeled if full and count < theta)
        tn = len(labeled) - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f_measure = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        goodness = 1.0 - abs(fp - fn) / (tp + fn + fp) if tp + fn + fp else 1.0
        rows.append((theta, tp, fp, fn, tn, precision, recall, (tp + tn) / len(labeled),
                     f_measure, goodness, fn - fp))
    return rows


def select(rows, policy: str = "lower-median") -> tuple:
    """(argmax thetas, (first, last), selected, best goodness, policy): the policy takes
    the smallest, the largest or the lower median of the thetas of highest goodness."""
    best = max(row[9] for row in rows)
    argmax = tuple(row[0] for row in rows if row[9] == best)
    chosen = {"min": argmax[0], "max": argmax[-1], "lower-median": argmax[(len(argmax) - 1) // 2]}
    return argmax, (argmax[0], argmax[-1]), chosen[policy], best, policy


def sweep_csv(rows) -> str:
    """``sweep.csv``: a header and one line per row, its five measures to six decimals."""
    lines = ["theta,tp,fp,fn,tn,precision,recall,accuracy,f_measure,goodness,compensation"]
    for theta, tp, fp, fn, tn, *measures, compensation in rows:
        lines.append(",".join([str(n) for n in (theta, tp, fp, fn, tn)]
                              + [f"{m:.6f}" for m in measures] + [str(compensation)]))
    return "\n".join(lines) + "\n"


def effort(counts, labels, months: int, theta: int) -> tuple:
    """(theta, months, {label: person-months}, total, upper bound) of a matrix's
    ``{developer: {label: count}}``: each cell is worth months·min(count, theta)/theta,
    and the upper bound is ``months`` for each cell with activity."""
    per_period = {label: sum((Fraction(months * min(row.get(label, 0), theta), theta)
                              for row in counts.values()), Fraction(0)) for label in labels}
    active = sum(1 for row in counts.values() for count in row.values() if count >= 1)
    total = sum(per_period.values(), Fraction(0))
    return theta, months, per_period, total, Fraction(months * active)


def render_quantity(value) -> str:
    """Two decimals, ties to even: ``round`` of the exact value in hundredths."""
    cents = round(Fraction(value) * 100)
    return f"{'-' if cents < 0 else ''}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def render_percent(value) -> str:
    text = render_quantity(value)
    return ("" if text.startswith("-") else "+") + text + "%"


def ks(sample_a, sample_b) -> tuple[float, float]:
    """(D, p) of two non-empty samples: D is the largest gap, over the pooled values v,
    between their shares of values <= v, each counted one by one; p is D's asymptotic
    significance."""
    d = max(abs(sum(1 for x in sample_a if x <= v) / len(sample_a)
                - sum(1 for x in sample_b if x <= v) / len(sample_b))
            for v in {*sample_a, *sample_b})
    effective = len(sample_a) * len(sample_b) / (len(sample_a) + len(sample_b))
    return d, ks_significance((math.sqrt(effective) + 0.12 + 0.11 / math.sqrt(effective)) * d)


def ks_significance(lam: float) -> float:
    """2·Σ (-1)^(k-1)·exp(-2k²λ²) up to and including the first term below 1e-12, kept
    within [the smallest positive float, 1]; 1 when 100 terms pass without one."""
    total = 0.0
    for k in range(1, 101):
        term = math.exp(-2 * lam * lam * k * k)
        total += term if k % 2 else -term
        if term < 1e-12:
            return min(1.0, max(2 * total, sys.float_info.min))
    return 1.0


def summary(counts) -> list[str]:
    """The cells n, min, q1, median, mean, q3 and max of counts, each number as ``%.6g``,
    or n 0 and empty cells for no counts. The quartile at p interpolates, in exact
    fractions, between the sorted counts at the floor and the ceiling of (n - 1)·p."""
    xs = sorted(counts)
    n = len(xs)
    if not xs:
        return ["0"] + [""] * 6

    def quartile(p: Fraction) -> Fraction:
        position = (n - 1) * p
        low, high = xs[math.floor(position)], xs[math.ceil(position)]
        return low + (position - math.floor(position)) * (high - low)

    numbers = (xs[0], quartile(Fraction(1, 4)), quartile(Fraction(1, 2)), Fraction(sum(xs), n),
               quartile(Fraction(3, 4)), xs[-1])
    return [str(n), *(f"{float(number):.6g}" for number in numbers)]


def representativeness(counts, population, surveyed, cutoffs=DEFAULT_CUTOFFS,
                       window_end: str | None = None) -> tuple:
    """(``representativeness.csv``'s rows, header first, and ``run.json``'s ``result``) of
    the developer ids in ``population`` and ``surveyed``, each counting
    ``counts.get(id, 0)``. At each cutoff, in ascending order and once, a group keeps
    the counts >= it; D and p go on the ``all`` row, or ``insufficient-data`` when
    either group is empty."""
    cutoffs, insufficient = sorted(set(cutoffs)), 0
    groups = [[counts.get(developer_id, 0) for developer_id in ids]
              for ids in (population, surveyed)]
    rows = [["cutoff", "population", "n", "min", "q1", "median", "mean", "q3", "max", "D", "p"]]
    for cutoff in cutoffs:
        everyone, answered = ([count for count in group if count >= cutoff] for group in groups)
        if everyone and answered:
            tests = [f"{number:.6g}" for number in ks(everyone, answered)]
        else:
            tests, insufficient = [INSUFFICIENT] * 2, insufficient + 1
        rows += [[str(cutoff), "all", *summary(everyone), *tests],
                 [str(cutoff), "surveyed", *summary(answered), "", ""]]
    return rows, {"cutoffs": cutoffs, "insufficient": insufficient,
                  "window_end": window_end, "population": len(population),
                  "surveyed": len(surveyed)}

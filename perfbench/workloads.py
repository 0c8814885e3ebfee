"""Seeded inputs for the benchmark workloads, each with an independent oracle.

A generator writes the CLI's input files into a work directory and keeps what
it planted: the activity of every (developer, period) cell, the number of
lines of each kind it wrote, and the survey labels. The oracle derives the
expected outputs from those plants with exact Fractions. It never imports
vcseffort, so a defect in the package cannot hide in the expectation.

Sizes are fixed per workload; the seed changes only which values are drawn,
so the amount of work in a job does not depend on the seed.
"""

from __future__ import annotations

import calendar
import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

DAY = 86400

FIRST_NAMES = (
    "Ana", "Ben", "Chloe", "Dmitri", "Elif", "Farah", "Goran", "Hana", "Ivo", "Jun",
    "Kemal", "Lena", "Mira", "Nils", "Oren", "Priya", "Quinn", "Rosa", "Sven", "Tomas",
    "Uma", "Vera", "Wen", "Ximena", "Yusuf", "Zoe",
)
# Two-letter syllables that cannot spell a default bot pattern (bot, jenkins,
# gerrit, automation) inside a surname.
SYLLABLES = (
    "ka", "ri", "to", "mo", "ne", "lu", "sa", "vi", "de", "ga",
    "pe", "zu", "fo", "ha", "ji", "le", "wo", "ny", "ca", "xe",
)


@dataclass
class Plan:
    """One workload instance: CLI arguments, input size, and the oracle."""

    argv: list[str]  # CLI arguments, with paths relative to the work directory
    commit_lines: int  # lines in the commit log, malformed and duplicate ones included
    check: Callable[[Path], list[str]]  # output directory -> mismatches found


def epoch(year: int, month: int, day: int = 1) -> int:
    return calendar.timegm((year, month, day, 0, 0, 0))


def shift_month(year: int, month: int, months: int) -> tuple[int, int]:
    total = year * 12 + month - 1 + months
    return total // 12, total % 12 + 1


def render_pm(value: Fraction) -> str:
    """Two decimals, ties to even: the CLI's documented rendering of quantities."""
    cents = round(value * 100)
    sign = "-" if cents < 0 else ""
    return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def render_percent(value: Fraction) -> str:
    text = render_pm(value)
    return (text if text.startswith("-") else "+" + text) + "%"


def surname(index: int) -> str:
    """A distinct pronounceable word per index, at least three syllables long."""
    index += len(SYLLABLES) ** 2
    parts = []
    while index:
        index, digit = divmod(index, len(SYLLABLES))
        parts.append(SYLLABLES[digit])
    return "".join(reversed(parts)).capitalize()


def person(index: int, rng: Random) -> tuple[str, str, str]:
    """(display name, primary email, first name) for developer ``index``."""
    first = rng.choice(FIRST_NAMES)
    last = surname(index)
    return f"{first} {last}", f"{first.lower()}.{last.lower()}@corp.example", first


def commit_hash(rng: Random, serial: int) -> str:
    return f"{rng.getrandbits(96):024x}{serial:016x}"


def effort_total(cells: list[int], theta: int, months: int) -> Fraction:
    """Sum of months * min(count, theta) / theta over cells, as one exact Fraction."""
    below = 0  # activity summed over cells under theta
    saturated = 0  # cells at or above theta
    for count in cells:
        if count >= theta:
            saturated += 1
        else:
            below += count
    return Fraction(months * (below + theta * saturated), theta)


def separating_range(ft_counts: list[int], other_counts: list[int]) -> tuple[int, int]:
    """Thresholds where every labeled full-timer is at or above and everyone else below."""
    return max(other_counts, default=0) + 1, min(ft_counts)


def lower_median(low: int, high: int) -> int:
    return low + (high - low) // 2


def compare(found: object, expected: object, where: str) -> list[str]:
    if found == expected:
        return []
    return [f"{where}: expected {expected!r}, got {found!r}"]


def read_json(path: Path) -> tuple[object, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable ({exc})"]


def _write_lines(path: Path, keyed_lines: list[tuple[int, str]]) -> None:
    # Newest first, as `git log` prints; the sort is stable, so a duplicate
    # keyed a little older than its original always comes after it.
    keyed_lines.sort(key=lambda item: item[0], reverse=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(line for _, line in keyed_lines))
        handle.write("\n")


def _add_duplicates(rng: Random, keyed_lines: list[tuple[int, str]], count: int) -> None:
    for key, line in rng.sample(keyed_lines, count):
        keyed_lines.append((key - rng.randrange(1, 30 * DAY), line))


def stratified(rng: Random, n: int, inverse_cdf: Callable[[float], int]) -> list[int]:
    """One draw from each of n equally likely strata, in random order.

    The drawn values change with the seed, but their distribution, and so the
    work they cause, barely does.
    """
    values = [inverse_cdf((i + rng.random()) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _exact_total(rng: Random, counts: list[int], total: int) -> None:
    """Rescale counts (each kept >= 1) so that they sum to exactly ``total``."""
    factor = total / sum(counts)
    counts[:] = [max(1, round(count * factor)) for count in counts]
    diff = total - sum(counts)
    while diff:
        index = rng.randrange(len(counts))
        if diff > 0:
            counts[index] += 1
            diff -= 1
        elif counts[index] > 1:
            counts[index] -= 1
            diff += 1


def _pipe_line(commit: str, email: str, name: str, timestamp: int, merge: bool) -> str:
    return f"{commit}|{email}|{name}|{timestamp}|{'1' if merge else '0'}"


# --- estimate-sweep ------------------------------------------------------------

SWEEP_SIZES = {
    "full": {"developers": 400, "commits": 30_000},
    "tiny": {"developers": 24, "commits": 1_500},
}
SWEEP_FIRST_YEAR = 2014
SWEEP_HALF_YEARS = 12
SWEEP_THETA = 10
SWEEP_THETA_MAX = 40
SWEEP_ACTIVE_SHARE = 0.5  # share of (developer, half-year) cells with commits


def half_year_bounds(index: int) -> tuple[int, int]:
    year = SWEEP_FIRST_YEAR + index // 2
    month = 1 if index % 2 == 0 else 7
    end_year, end_month = shift_month(year, month, 6)
    return epoch(year, month), epoch(end_year, end_month)


def half_year_label(index: int) -> str:
    year = SWEEP_FIRST_YEAR + index // 2
    return f"{year % 100:02d}s{index % 2 + 1}"


def estimate_sweep(seed: int, work: Path, size: str = "full") -> Plan:
    """Pipe log over 12 calendar half-years with heavy-tailed counts per cell."""
    rng = Random(f"estimate-sweep:{seed}")
    developers = SWEEP_SIZES[size]["developers"]
    commits = SWEEP_SIZES[size]["commits"]
    people = [person(index, rng) for index in range(developers)]

    # Every developer gets one cell, and the first and last half-years are
    # active, so the CLI sees exactly SWEEP_HALF_YEARS periods.
    cells = {(d, rng.randrange(SWEEP_HALF_YEARS)) for d in range(developers)}
    cells.update({(0, 0), (0, SWEEP_HALF_YEARS - 1)})
    target = round(developers * SWEEP_HALF_YEARS * SWEEP_ACTIVE_SHARE)
    free = [
        (d, p) for d in range(developers) for p in range(SWEEP_HALF_YEARS) if (d, p) not in cells
    ]
    cells.update(rng.sample(free, max(0, target - len(cells))))
    cell_list = sorted(cells)
    counts = stratified(rng, len(cell_list), lambda u: min(1000, int((1 - u) ** (-1 / 1.2))))
    _exact_total(rng, counts, commits)

    keyed: list[tuple[int, str]] = []
    serial = 0
    for (d, p), count in zip(cell_list, counts):
        name, email, _ = people[d]
        start, end = half_year_bounds(p)
        for _ in range(count):
            ts = rng.randrange(start, end)
            keyed.append((ts, _pipe_line(commit_hash(rng, serial), email, name, ts, False)))
            serial += 1
    _write_lines(work / "commits.log", keyed)

    by_period: list[list[int]] = [[] for _ in range(SWEEP_HALF_YEARS)]
    for (_, p), count in zip(cell_list, counts):
        by_period[p].append(count)
    labels = [half_year_label(p) for p in range(SWEEP_HALF_YEARS)]
    totals = {}
    rows = []
    for theta in range(1, SWEEP_THETA_MAX + 1):
        per_period = [effort_total(group, theta, 6) for group in by_period]
        totals[theta] = sum(per_period, Fraction(0))
        rows.append((theta, per_period))
    baseline = totals[SWEEP_THETA]
    upper = render_pm(Fraction(6 * len(cell_list)))
    report = {
        "selected_theta": SWEEP_THETA,
        "period_months": 6,
        "upper_bound_pm": upper,
        "thresholds": [
            {
                "theta": theta,
                "total_pm": render_pm(totals[theta]),
                "per_period_pm": {
                    label: render_pm(value) for label, value in zip(labels, per_period)
                },
                "error_vs_selected": "--"
                if theta == SWEEP_THETA
                else render_percent((totals[theta] - baseline) / baseline * 100),
            }
            for theta, per_period in rows
        ],
    }
    result = {
        "theta": SWEEP_THETA,
        "theta_provenance": "explicit",
        "total_pm": render_pm(baseline),
        "upper_bound_pm": upper,
        "overflow_commits": 0,
    }
    ingest = _ingest_counts(parsed=commits, malformed=0, bots=0, merges=0)

    def check(out: Path) -> list[str]:
        problems = _check_run(out, result, ingest)
        found, errors = read_json(out / "report.json")
        if errors:
            return problems + errors
        for key in ("selected_theta", "period_months", "upper_bound_pm"):
            problems += compare(found.get(key), report[key], f"report.json {key}")
        found_rows = found.get("thresholds") or []
        problems += compare(len(found_rows), len(report["thresholds"]), "report.json rows")
        for got, want in zip(found_rows, report["thresholds"]):
            problems += compare(got, want, f"report.json theta {want['theta']}")
        return problems

    argv = [
        "estimate", "--log", "commits.log",
        "--theta", str(SWEEP_THETA), "--theta-max", str(SWEEP_THETA_MAX), "--out", "out",
    ]
    return Plan(argv, len(keyed), check)


def _ingest_counts(parsed: int, malformed: int, bots: int, merges: int) -> dict:
    return {
        "parsed": parsed,
        "malformed": malformed,
        "bot_excluded": bots,
        "merge_excluded": merges,
        "kept": parsed - bots - merges,
    }


def _check_run(out: Path, result: dict, ingest: dict) -> list[str]:
    found, errors = read_json(out / "run.json")
    if errors:
        return errors
    problems = compare(found.get("ingest"), ingest, "run.json ingest")
    for key, value in result.items():
        problems += compare(found.get("result", {}).get(key), value, f"run.json result.{key}")
    return problems


# --- calibrate-heavytail --------------------------------------------------------

CALIBRATE_SIZES = {
    "full": {"fulltime": 30, "others": 750, "bots": 20, "ft_range": (500, 5000), "other_cap": 400},
    "tiny": {"fulltime": 4, "others": 30, "bots": 4, "ft_range": (50, 500), "other_cap": 40},
}
CALIBRATE_ANCHOR = (2021, 1)  # the six-month calibration window ends here
MERGE_SHARE = 0.01
MALFORMED_SHARE = 0.003
DUPLICATE_SHARE = 0.002

BOT_IDENTITIES = (
    ("Jenkins CI {k}", "jenkins{k}@ci.example"),
    ("Release Bot {k}", "release{k}@bots.example"),
    ("Gerrit Review {k}", "gerrit{k}@review.example"),
    ("Automation Runner {k}", "runner{k}@ci.example"),
)


def _accented(first: str) -> str:
    return first.replace("e", "é").replace("a", "á")


def _malformed_pipe(rng: Random, kind: int, serial: int) -> str:
    ts = rng.randrange(epoch(2019, 1), epoch(2021, 1))
    commit = f"bad{serial:037x}"
    return (
        f"{commit}|x@y.example",  # too few fields
        f"{commit}|x@y.example|X Y|not-a-time|0",
        f"{commit}|x@y.example|X Y|{ts}|2",  # merge flag out of range
        f"|x@y.example|X Y|{ts}|0",  # empty hash
        f"{commit}|x@y.example|X Y|-{ts}|0",
    )[kind % 5]


def calibrate_heavytail(seed: int, work: Path, size: str = "full") -> Plan:
    """Heavy-tailed window counts, aliases, bots, merges and malformed lines."""
    rng = Random(f"calibrate-heavytail:{seed}")
    sizes = CALIBRATE_SIZES[size]
    ft_low, ft_high = sizes["ft_range"]
    window_start = epoch(*shift_month(*CALIBRATE_ANCHOR, -6))
    window_end = epoch(*CALIBRATE_ANCHOR)
    history_start = epoch(*shift_month(*CALIBRATE_ANCHOR, -24))

    n_ft, n_other = sizes["fulltime"], sizes["others"]
    ft_counts = stratified(rng, n_ft, lambda u: round(ft_low * (ft_high / ft_low) ** u))
    # The top full-timer sits at the end of the range, which fixes the sweep
    # length at ft_high + 1.
    ft_counts[ft_counts.index(max(ft_counts))] = ft_high
    other_counts = stratified(
        rng, n_other, lambda u: min(sizes["other_cap"], int((1 - u) ** (-1 / 0.7)))
    )
    window_counts = ft_counts + other_counts

    keyed: list[tuple[int, str]] = []
    serial = 0
    survey_rows = []
    for index, window_count in enumerate(window_counts):
        name, email, first = person(index, rng)
        last = name.split(" ", 1)[1]
        aliases = [(name, email), (name.upper(), email.title())]
        if index % 3 == 0:
            # Reachable only through name merging: other email, accents, spacing.
            aliases.append((f"{_accented(first)}  {last}", f"{last.lower()}@home.example"))
        history = window_count // 8
        merges = sum(rng.random() < MERGE_SHARE for _ in range(window_count + history))
        seen_emails = set()  # emails on commits that survive the filters
        for n, low, high, merge in (
            (window_count, window_start, window_end, False),
            (history, history_start, window_start, False),
            (merges, history_start, window_end, True),
        ):
            for _ in range(n):
                pick = rng.random()
                alias_name, alias_email = aliases[0 if pick < 0.7 else 1 if pick < 0.9 else -1]
                ts = rng.randrange(low, high)
                line = _pipe_line(commit_hash(rng, serial), alias_email, alias_name, ts, merge)
                keyed.append((ts, line))
                serial += 1
                if not merge:
                    seen_emails.add(alias_email)
        full = index < n_ft
        if full:
            self_class, hours = rng.choice((("full", "gt40"), ("full", "40"), ("full", ""), ("", "gt40")))
        else:
            self_class, hours = rng.choice(
                (("part", "20"), ("part", "30"), ("occasional", "lt5"), ("occasional", ""), ("", "10"))
            )
        survey_email = rng.choice(sorted(seen_emails))
        survey_rows.append((survey_email, self_class, hours, "2020-12-15", "0"))
    humans = serial
    merge_total = sum(line.endswith("|1") for _, line in keyed)

    bot_counts = stratified(rng, sizes["bots"], lambda u: 50 + int(300 * u))
    for k, bot_count in enumerate(bot_counts):
        name_pattern, email_pattern = BOT_IDENTITIES[k % len(BOT_IDENTITIES)]
        for _ in range(bot_count):
            ts = rng.randrange(history_start, window_end)
            line = _pipe_line(
                commit_hash(rng, serial), email_pattern.format(k=k), name_pattern.format(k=k),
                ts, rng.random() < 0.05,
            )
            keyed.append((ts, line))
            serial += 1
    bot_total = serial - humans

    malformed = max(1, round(MALFORMED_SHARE * serial))
    duplicates = max(1, round(DUPLICATE_SHARE * serial))
    _add_duplicates(rng, keyed, duplicates)
    for k in range(malformed):
        keyed.append((rng.randrange(history_start, window_end), _malformed_pipe(rng, k, k)))
    _write_lines(work / "commits.log", keyed)

    rng.shuffle(survey_rows)
    _write_survey(work / "survey.csv", survey_rows)

    low, high = separating_range(ft_counts, other_counts)
    selected = lower_median(low, high)
    theta_max = ft_high + 1
    selection = {
        "argmax_range": [low, high],
        "argmax_thetas": list(range(low, high + 1)),
        "selected_theta": selected,
        "max_goodness": 1.0,
        "policy": "lower-median",
        "theta_max": theta_max,
        "window_end": f"{CALIBRATE_ANCHOR[0]:04d}-{CALIBRATE_ANCHOR[1]:02d}-01",
        "label_counts": {"full-time": n_ft, "non-full-time": n_other},
        "exclusion_counts": {},
    }
    ingest = _ingest_counts(
        parsed=serial, malformed=malformed + duplicates, bots=bot_total, merges=merge_total
    )
    perfect_row = [str(selected), str(n_ft), "0", "0", str(n_other)]

    def check(out: Path) -> list[str]:
        problems = _check_run(out, {"selected_theta": selected}, ingest)
        found, errors = read_json(out / "selection.json")
        problems += errors or compare(found, selection, "selection.json")
        try:
            rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            return problems + [f"sweep.csv: unreadable ({exc})"]
        problems += compare(len(rows) - 1, theta_max, "sweep.csv thresholds")
        if len(rows) > selected:
            cells = rows[selected].split(",")
            problems += compare(cells[:5], perfect_row, f"sweep.csv theta {selected} confusion")
            problems += compare(cells[9:10], ["1.000000"], f"sweep.csv theta {selected} goodness")
        return problems

    argv = [
        "calibrate", "--log", "commits.log", "--survey", "survey.csv",
        "--anchor", selection["window_end"], "--bots", "default", "--exclude-merges",
        "--name-merging", "--out", "out",
    ]
    return Plan(argv, len(keyed), check)


def _write_survey(path: Path, rows: list[tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("email", "self_class", "hours_bucket", "survey_date", "suspect"))
        writer.writerows(rows)


# --- estimate-rolling-jsonl --------------------------------------------------------

ROLLING_SIZES = {
    "full": {"fulltime": 30, "others": 270, "windows": 16, "overflow": 40},
    "tiny": {"fulltime": 4, "others": 20, "windows": 4, "overflow": 3},
}
ROLLING_ANCHOR = (2021, 1)
ROLLING_MONTHS = 3
ROLLING_ACTIVE_SHARE = 0.4  # chance a developer is active in an earlier window
SUSPECT_SHARE = 0.04
EMPTY_SHARE = 0.03
UNMATCHED_SHARE = 0.03


def _jsonl_line(commit: str, email: str, name: str, timestamp: int) -> str:
    # Same key order and spacing as json.dumps(..., sort_keys=True).
    return (
        f'{{"author_email": "{email}", "author_name": "{name}", '
        f'"author_timestamp": {timestamp}, "hash": "{commit}", "is_merge": false}}'
    )


def _malformed_jsonl(rng: Random, kind: int, serial: int) -> str:
    commit = f"bad{serial:037x}"
    return (
        '{"hash": "' + commit,  # truncated JSON
        '{"hash": "' + commit + '", "author_name": "X"}',  # missing keys
        _jsonl_line(commit, "x@y.example", "X", 1).replace(": 1,", ': "1",'),  # string time
        "[1, 2, 3]",  # not an object
    )[kind % 4]


def estimate_rolling_jsonl(seed: int, work: Path, size: str = "full") -> Plan:
    """Multi-year JSON-lines log, rolling quarters, active days, survey exclusions."""
    rng = Random(f"estimate-rolling-jsonl:{seed}")
    sizes = ROLLING_SIZES[size]
    n_ft, n_other, n_windows = sizes["fulltime"], sizes["others"], sizes["windows"]
    windows = []
    for w in range(n_windows):
        start = shift_month(*ROLLING_ANCHOR, -ROLLING_MONTHS * (n_windows - w))
        end = shift_month(*start, ROLLING_MONTHS)
        windows.append((f"{start[0]:04d}-{start[1]:02d}-01", epoch(*start), epoch(*end)))
    anchor_epoch = epoch(*ROLLING_ANCHOR)

    n_people = n_ft + n_other
    last = n_windows - 1
    # Active days per (developer, window). Developer 0 is active in every
    # window, so the CLI sees all of them, and everyone is active somewhere, so
    # every survey email is matched; in the last window, the one calibration
    # reads, full-timers are well above everyone else.
    active = [(0, w) for w in range(last)]
    active += [(d, rng.randrange(last)) for d in range(1, n_people)]  # no one is commitless
    taken = set(active)
    earlier = [(d, w) for d in range(1, n_people) for w in range(last) if (d, w) not in taken]
    active += rng.sample(earlier, round(ROLLING_ACTIVE_SHARE * len(earlier)))
    days_of = dict(zip(active, stratified(rng, len(active), lambda u: 1 + int(60 * u))))
    days_of.update(zip(
        [(d, last) for d in range(n_ft)], stratified(rng, n_ft, lambda u: 40 + int(41 * u))
    ))
    others = rng.sample(range(n_ft, n_people), round(0.6 * n_other))
    days_of.update(zip(
        [(d, last) for d in others], stratified(rng, len(others), lambda u: 1 + int(30 * u))
    ))

    keyed: list[tuple[int, str]] = []
    serial = 0
    cells: list[list[int]] = [[] for _ in range(n_windows)]  # active days per cell
    last_window = [days_of.get((d, last), 0) for d in range(n_people)]
    people = []
    for index in range(n_people):
        name, email, _ = person(index, rng)
        people.append((name, email))
        for w, (_, start, end) in enumerate(windows):
            days = days_of.get((index, w), 0)
            if not days:
                continue
            cells[w].append(days)
            span_days = (end - start) // DAY
            for offset in rng.sample(range(span_days), days):
                for _ in range(int(rng.paretovariate(2.5))):
                    ts = start + offset * DAY + rng.randrange(DAY)
                    keyed.append((ts, _jsonl_line(commit_hash(rng, serial), email, name, ts)))
                    serial += 1
    for _ in range(sizes["overflow"]):
        name, email = people[rng.randrange(len(people))]
        ts = anchor_epoch + rng.randrange(20 * DAY)
        keyed.append((ts, _jsonl_line(commit_hash(rng, serial), email, name, ts)))
        serial += 1

    malformed = max(1, round(0.002 * serial))
    duplicates = max(1, round(0.001 * serial))
    _add_duplicates(rng, keyed, duplicates)
    for k in range(malformed):
        keyed.append((rng.randrange(windows[0][1], anchor_epoch), _malformed_jsonl(rng, k, k)))
    _write_lines(work / "commits.jsonl", keyed)

    survey_rows = []
    exclusions = {"suspect": 0, "empty": 0, "unmatched": 0}
    ft_labeled, other_labeled = [], []
    for index, (_, email) in enumerate(people):
        full = index < n_ft
        if full:
            answer = rng.choice((("full", "40"), ("full", "gt40"), ("full", ""), ("", "gt40")))
        else:
            answer = rng.choice((("part", "20"), ("occasional", "lt5"), ("part", ""), ("", "10")))
        pick = rng.random()
        if index > 0 and index != n_ft and pick < SUSPECT_SHARE:
            survey_rows.append((email, *answer, "2020-12-20", "1"))
            exclusions["suspect"] += 1
        elif index > 0 and index != n_ft and pick < SUSPECT_SHARE + EMPTY_SHARE:
            survey_rows.append((email.upper(), "", "", "2020-12-20", "0"))
            exclusions["empty"] += 1
        else:
            survey_rows.append((email.upper() if pick > 0.5 else email, *answer, "2020-12-20", "0"))
            (ft_labeled if full else other_labeled).append(last_window[index])
    for k in range(max(1, round(UNMATCHED_SHARE * len(people)))):
        survey_rows.append((f"ghost{k}@elsewhere.example", "part", "20", "2020-12-20", "0"))
        exclusions["unmatched"] += 1
    rng.shuffle(survey_rows)
    _write_survey(work / "survey.csv", survey_rows)

    low, high = separating_range(ft_labeled, other_labeled)
    selected = lower_median(low, high)
    labels = [label for label, _, _ in windows]
    per_period = [effort_total(group, selected, ROLLING_MONTHS) for group in cells]
    total = sum(per_period, Fraction(0))
    upper = render_pm(Fraction(ROLLING_MONTHS * sum(len(group) for group in cells)))
    calibration = {
        "argmax_range": [low, high],
        "argmax_thetas": list(range(low, high + 1)),
        "selected_theta": selected,
        "max_goodness": 1.0,
        "policy": "lower-median",
        "theta_max": max(ft_labeled + other_labeled) + 1,
        "window_end": f"{ROLLING_ANCHOR[0]:04d}-{ROLLING_ANCHOR[1]:02d}-01",
        "label_counts": {"full-time": len(ft_labeled), "non-full-time": len(other_labeled)},
        "exclusion_counts": {reason: n for reason, n in exclusions.items() if n},
    }
    result = {
        "theta": selected,
        "theta_provenance": "calibrated",
        "total_pm": render_pm(total),
        "upper_bound_pm": upper,
        "overflow_commits": sizes["overflow"],
        "calibration": calibration,
    }
    ingest = _ingest_counts(parsed=serial, malformed=malformed + duplicates, bots=0, merges=0)
    report_row = {
        "theta": selected,
        "total_pm": render_pm(total),
        "per_period_pm": {label: render_pm(value) for label, value in zip(labels, per_period)},
        "error_vs_selected": "--",
    }

    def check(out: Path) -> list[str]:
        problems = _check_run(out, result, ingest)
        found, errors = read_json(out / "report.json")
        if errors:
            return problems + errors
        problems += compare(found.get("upper_bound_pm"), upper, "report.json upper_bound_pm")
        problems += compare(found.get("thresholds"), [report_row], "report.json thresholds")
        return problems

    argv = [
        "estimate", "--commits", "commits.jsonl", "--survey", "survey.csv",
        "--anchor", calibration["window_end"], "--alignment", "rolling",
        "--period-months", str(ROLLING_MONTHS), "--metric", "active-days", "--out", "out",
    ]
    return Plan(argv, len(keyed), check)


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "estimate-sweep": estimate_sweep,
    "calibrate-heavytail": calibrate_heavytail,
    "estimate-rolling-jsonl": estimate_rolling_jsonl,
}

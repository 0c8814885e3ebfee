"""Every command of ``cli.main`` against the reference model, over seeded configurations.

Each configuration draws a log, a survey, bot patterns and alias directives from small
pools and runs ``estimate``, ``calibrate`` or ``representativeness`` in-process. Its exit
code, stdout lines, stderr, every output file parsed, and ``run.json``'s ``result`` and
``ingest`` must be what ``reference_model`` computes from the same inputs by the README's
rules.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from datetime import date

import reference_model as model
from vcseffort.cli import main

# Pairs that merge by email case, by a directive or by normalized name, an email-less
# "bob" whose id "name:bob" an email holds, a name with a pipe, and two default bots.
PEOPLE = [
    ("Ada Lovelace", "ada@x.org"), ("ADA LOVELACE", "Ada@X.org"), ("Ada", ""),
    ("José García", "jg@a.org"), ("jose  garcia", "jg@b.org"), ("bob", ""), ("X", "name:bob"),
    ("Bob", "bob@x.org"), ("Cleo|Pipe", "cleo@x.org"), ("", "anon@x.org"), ("Dee", "d@x.org"),
    ("ci-bot", "ci@x.org"), ("Ed", "ed@automation.io"),
]
DIRECTIVES = [("ada", "ada@x.org"), ("JG@b.org", "jg@a.org"), ("d@x.org", "zz@x.org"),
              ("bob", "bob@x.org"), ("cleo|pipe", "name:bob")]
SURVEY_EMAILS = [email for _, email in PEOPLE if email] + [" ADA@x.org", "zz@x.org", "no@x.org"]
# The first anchor precedes every commit: rolling runs overflow whole, survey windows are empty.
ANCHORS = [date(2019, 5, 31), date(2020, 8, 31), date(2020, 11, 30), date(2021, 1, 1)]
ROLLING_MONTHS = [1, 2, 3, 6]


def _epoch(day: date) -> int:
    return 86400 * (day - date(1970, 1, 1)).days


FIRST, LAST = _epoch(date(2019, 6, 1)), _epoch(date(2021, 3, 1))
# Where periods split inside [FIRST, LAST): the second before and the second at the start
# of each half-year and at each anchor, and the first second of each anchor's last window
# (2020-08-31 less 6 months is 2020-02-29).
SPLITS = [date(year, month, 1) for year in (2019, 2020, 2021) for month in (1, 7)] + ANCHORS
EDGES = sorted(stamp for stamp in {
    *(_epoch(day) - back for day in SPLITS for back in (0, 1)),
    *(_epoch(model.months_before(anchor, months)) for anchor in ANCHORS
      for months in ROLLING_MONTHS),
} if FIRST <= stamp < LAST)
# The default cutoffs; 0 with one above every count, so that rows are ok and insufficient;
# and a list out of order with a repeat.
CUTOFFS = [None, "0,3,1000", "5,2,5"]
VARIED = ("command", "fmt", "alignment", "metric", "select", "format", "exclude_merges",
          "name_merging", "bots", "cap", "cutoffs")


def _log(rng: random.Random, fmt: str) -> bytes:
    """Commits of every person, some merges, one commit at each of the EDGES, and with
    enough lines a duplicate hash."""
    commits = []
    for name, email in PEOPLE:
        for _ in range(rng.randrange(14)):
            stamp = rng.randrange(FIRST, LAST)
            commits.append((f"c{len(commits)}", name, email, stamp, rng.random() < 0.1))
    for stamp in EDGES:
        name, email = PEOPLE[len(commits) % len(PEOPLE)]
        commits.append((f"c{len(commits)}", name, email, stamp, False))
    rng.shuffle(commits)
    if len(commits) >= 20:
        commits.insert(rng.randrange(len(commits)), commits[0])
    # A JSON line writes a non-ASCII name raw or \u-escaped, by its timestamp's parity.
    lines = [json.dumps(dict(zip(model.REQUIRED_KEYS, commit)), ensure_ascii=commit[3] % 2 == 1)
             if fmt == "jsonl" else "{0}|{2}|{1}|{3}|{4:d}".format(*commit) for commit in commits]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _configuration(rng: random.Random) -> dict:
    command = rng.choice(["estimate", "estimate", "calibrate", "representativeness"])
    alignment = rng.choice(["calendar", "rolling"]) if command == "estimate" else "calendar"
    anchor = rng.choice(ANCHORS)
    theta = rng.randrange(1, 13) if command == "estimate" and rng.random() < 0.5 else None
    caps = ["absent", "below", "above"] if theta else ["absent", "above"]
    sweeps = command != "representativeness"
    cap = rng.choice(caps) if sweeps else "absent"
    fmt = rng.choice(["pipe", "jsonl"])
    survey = [[rng.choice(SURVEY_EMAILS), rng.choice(["full", "part", "occasional", ""]),
               rng.choice(["gt40", "40", "30", "20", "10", "lt5", ""]),
               rng.choice(["2020-09-30", "2020-12-31", "2021-01-15"]),
               rng.choice(["", "", "0", "no", "yes", "TRUE"])] for _ in range(rng.randrange(1, 13))]
    return {
        "command": command, "fmt": fmt, "log": _log(rng, fmt), "alignment": alignment,
        "months": 6 if alignment == "calendar" else rng.choice(ROLLING_MONTHS),
        "metric": rng.choice(["commits", "active-days"]),
        "anchor": anchor if alignment == "rolling" or rng.random() < 0.5 else None,
        "bots": rng.choice([None, "default", ("^dee$", "GARC")]),
        "exclude_merges": rng.random() < 0.5, "name_merging": rng.random() < 0.5,
        "directives": tuple(d for d in DIRECTIVES if rng.random() < 0.3),
        "survey": None if theta else survey, "theta": theta, "cap": cap,
        "theta_max": {"absent": None, "below": (theta or 2) - 1 or None,
                      "above": (theta or 0) + rng.randrange(1, 9)}[cap],
        "select": rng.choice(["min", "max", "lower-median"]) if sweeps else None,
        "format": rng.choice(["json", "csv", "markdown"]),
        "cutoffs": None if sweeps else rng.choice(CUTOFFS),
    }


def _argv(config: dict, directory) -> list[str]:
    """Write the configuration's input files into ``directory``; its command line."""
    directory.mkdir()
    (directory / "log").write_bytes(config["log"])
    argv = [config["command"], "--commits" if config["fmt"] == "jsonl" else "--log",
            str(directory / "log"), "--period-months", str(config["months"]),
            "--metric", config["metric"], "--out", str(directory / "out")]
    files = {
        "survey": config["survey"] and ["email,self_class,hours_bucket,survey_date,suspect",
                                        *map(",".join, config["survey"])],
        "bots": isinstance(config["bots"], tuple) and ["# not bots", *config["bots"]],
        "aliases": config["directives"] and ["# old,new", *map(",".join, config["directives"])],
    }
    for name, lines in files.items():
        if lines:
            (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv += [f"--{name}", str(directory / name)]
    for flag in ("anchor", "theta", "theta_max", "select", "cutoffs"):
        argv += [f"--{flag.replace('_', '-')}", str(config[flag])] if config[flag] else []
    argv += ["--bots", "default"] if config["bots"] == "default" else []
    argv += ["--exclude-merges"] if config["exclude_merges"] else []
    argv += ["--name-merging"] if config["name_merging"] else []
    if config["command"] == "estimate":
        argv += ["--alignment", config["alignment"], "--format", config["format"]]
    return argv


def _expected(config: dict) -> tuple:
    """(exit code, stdout lines, stderr, {file name: parsed content}) by the model."""
    commits, malformed = model.parse(model.log_lines(config["log"]), config["fmt"])
    patterns = model.DEFAULT_BOT_PATTERNS if config["bots"] == "default" else config["bots"] or ()
    timelines, merged, bots = model.group(commits, patterns, config["exclude_merges"])
    ingest = {"parsed": len(commits), "malformed": len(malformed), "bot_excluded": bots,
              "merge_excluded": sum(merged.values()), "kept": sum(map(len, timelines.values()))}
    stdout = [f"parsed {len(commits)} commits ({len(malformed)} malformed); "
              f"excluded {bots} bot, {ingest['merge_excluded']} merge"]
    developers = model.identities(timelines, config["directives"], config["name_merging"])
    developer_of = {pair: developer_id for developer_id, _, pairs, _ in developers
                    for pair in pairs}
    points = [(developer_of[pair], stamp) for pair, stamps in timelines.items() for stamp in stamps]
    months, anchor, metric, theta = (config[key] for key in ("months", "anchor", "metric", "theta"))
    result = {"theta": theta, "theta_provenance": "explicit"}
    if config["survey"]:
        labels, reasons = model.triangulate(config["survey"], developers)
        if not labels:
            return 2, stdout, "error: no survey response matched the developer roster\n", None
        end = anchor or max(date.fromisoformat(row[3]) for row in config["survey"])
        counts = model.window_activity(points, end, months, metric)
        if config["command"] == "representativeness":
            cutoffs = config["cutoffs"] and [int(cutoff) for cutoff in config["cutoffs"].split(",")]
            table, result = model.representativeness(
                counts, [developer_id for developer_id, *_ in developers],
                [developer_id for developer_id, _ in labels], cutoffs or model.DEFAULT_CUTOFFS,
                end.isoformat())
            stdout.append(f"representativeness: {len(result['cutoffs'])} cutoffs, "
                          f"{result['insufficient']} insufficient")
            return 0, stdout, "", {"representativeness.csv": table,
                                   "run.json": {"result": result, "ingest": ingest}}
        rows = model.sweep(counts, labels, config["theta_max"])
        argmax, (low, high), theta, best, policy = model.select(rows, config["select"])
        full = sum(label == model.FULL for _, label in labels)
        stdout.append(f"labels: {len(labels)} (full-time {full}, non-full-time "
                      f"{len(labels) - full}); exclusions: {len(reasons)}")
        selection = {
            "argmax_thetas": list(argmax), "argmax_range": [low, high], "selected_theta": theta,
            "max_goodness": best, "policy": policy, "theta_max": rows[-1][0],
            "window_end": end.isoformat(), "exclusion_counts": dict(Counter(reasons)),
            "label_counts": dict(Counter(label for _, label in labels)),
        }
        result = {"theta": theta, "theta_provenance": "calibrated", "calibration": selection}
    if config["command"] == "calibrate":
        stdout.append(f"theta range [{low},{high}], selected {theta}, goodness {best:.2f}")
        return 0, stdout, "", {"sweep.csv": model.sweep_csv(rows), "selection.json": selection,
                               "run.json": {"result": {"selected_theta": theta}, "ingest": ingest}}

    _, _, periods, counts, overflow = model.activity(points, config["alignment"], months, anchor,
                                                     metric)
    thetas = sorted({theta, *range(1, (config["theta_max"] or 0) + 1)})
    reports = {t: model.effort(counts, periods, months, t) for t in thetas}
    pm, (*_, base, bound) = model.render_quantity, reports[theta]

    def error(total) -> str:
        return "" if base == 0 else model.render_percent((total - base) / base * 100)

    table = [["theta", "total_pm", *periods, "error_vs_selected"]] + [
        [str(t), pm(total), *map(pm, per_period.values()), "--" if t == theta else error(total)]
        for t, (_, _, per_period, total, _) in reports.items()]
    name, report = {
        "csv": ("report.csv", table),
        "markdown": ("report.md", "".join(f"| {' | '.join(row)} |\n" for row in [
            table[0], ["---"] * len(table[0]), *table[1:]]) + f"\nUpper bound: {pm(bound)} PM\n"),
        "json": ("report.json", {
            "selected_theta": theta, "period_months": months, "upper_bound_pm": pm(bound),
            "thresholds": [{"theta": int(row[0]), "total_pm": row[1], "error_vs_selected": row[-1],
                            "per_period_pm": dict(zip(periods, row[2:-1]))} for row in table[1:]],
        }),
    }[config["format"]]
    result.update(total_pm=pm(base), upper_bound_pm=pm(bound), overflow_commits=overflow)
    stdout.append(f"total effort {pm(base)} PM (theta {theta}, upper bound {pm(bound)} PM)")
    activity = [["developer_id", "period_label", "count"]] + [
        [developer, label, str(counts[developer][label])]
        for developer in sorted(counts) for label in periods if label in counts[developer]]
    return 0, stdout, "", {"activity.csv": activity, name: report,
                           "run.json": {"result": result, "ingest": ingest}}


def _outputs(out) -> dict:
    """Each file in ``out``: CSV tables as rows, JSON as data, other text as it is."""
    files = {}
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        files[path.name] = (json.loads(text) if path.suffix == ".json" else text
                            if path.name in ("sweep.csv", "report.md")
                            else list(csv.reader(text.splitlines())))
    files["run.json"] = {key: files["run.json"][key] for key in ("result", "ingest")}
    return files


def test_every_command_matches_the_reference_model(tmp_path, capsys):
    rng = random.Random(3535)
    seen = set()
    for index in range(100):
        config = _configuration(rng)
        argv = _argv(config, tmp_path / str(index))
        code = main(argv)
        out, err = capsys.readouterr()
        written = _outputs(tmp_path / str(index) / "out") if code == 0 else None
        assert (code, out.splitlines(), err, written) == _expected(config), argv
        overflow = written and written["run.json"]["result"].get("overflow_commits")
        table = (written or {}).get("representativeness.csv", [])
        seen |= {(key, str(config[key])) for key in VARIED}
        seen |= {(config["command"], code), ("overflow", bool(overflow)),
                 ("theta", config["theta"] is None)}
        seen |= {("D", row[9] == model.INSUFFICIENT) for row in table[1::2]}
    # Each value of each VARIED key, exit codes 0 and 2 of each command, overflow or not,
    # theta or survey, and representativeness rows with a KS test and without one.
    assert len(seen) == 41, sorted(seen)

"""Command-line behavior: flags, config files, outputs, and exit codes."""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import reference_model as model
import vcseffort
from gitrepo import build_repo, linear
from golden import (
    GOLDEN_RUNS,
    GOLDEN_SHA256,
    REFERENCE_ACTIVITIES,
    REFERENCE_ARGS,
    SYNTH,
    golden_run,
    write_golden_inputs,
)
from vcseffort import activity, ingest
from vcseffort.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from vcseffort.ingest import parse_log_file, to_jsonl_line, to_pipe_line


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calibrate_reference_fixture(reference_inputs, tmp_path, capsys):
    out = tmp_path / "cal"
    code, stdout, _ = run(
        [
            "calibrate",
            "--log", str(reference_inputs["log"]),
            "--survey", str(reference_inputs["survey"]),
            *REFERENCE_ARGS,
            "--theta-max", "13",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "theta range [9,11], selected 10, goodness 0.80" in stdout
    assert "labels: 8 (full-time 4, non-full-time 4); exclusions: 0" in stdout

    sweep_lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(sweep_lines) == 14
    assert sweep_lines[10].startswith("10,4,1,0,3,")

    selection = json.loads((out / "selection.json").read_text(encoding="utf-8"))
    assert selection["selected_theta"] == 10
    assert selection["argmax_range"] == [9, 11]
    assert selection["argmax_thetas"] == [9, 10, 11]
    assert selection["label_counts"] == {"full-time": 4, "non-full-time": 4}
    assert selection["window_end"] == "2013-02-01"

    run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert run_record["command"] == "calibrate"
    assert run_record["config"]["period_months"] == 1
    assert run_record["ingest"]["parsed"] == sum(REFERENCE_ACTIVITIES.values())


def test_estimate_with_explicit_theta(reference_inputs, tmp_path, capsys):
    out = tmp_path / "est"
    code, stdout, _ = run(
        [
            "estimate",
            "--log", str(reference_inputs["log"]),
            "--theta", "10",
            "--theta-max", "13",
            "--alignment", "rolling",
            *REFERENCE_ARGS,
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "total effort 6.60 PM (theta 10, upper bound 8.00 PM)" in stdout

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = {row["theta"]: row for row in report["thresholds"]}
    assert rows[10]["total_pm"] == "6.60"
    assert rows[10]["error_vs_selected"] == "--"
    assert rows[1]["total_pm"] == "8.00"
    assert rows[1]["error_vs_selected"] == "+21.21%"
    assert rows[13]["error_vs_selected"] == "-16.08%"

    activity_lines = (out / "activity.csv").read_text(encoding="utf-8").splitlines()
    assert activity_lines[0] == "developer_id,period_label,count"
    assert "d1@example.org,2013-01-01,12" in activity_lines

    run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert run_record["result"]["theta_provenance"] == "explicit"
    assert run_record["result"]["total_pm"] == "6.60"


def test_estimate_calibrates_from_survey(reference_inputs, tmp_path, capsys):
    out = tmp_path / "est2"
    code, stdout, _ = run(
        [
            "estimate",
            "--log", str(reference_inputs["log"]),
            "--survey", str(reference_inputs["survey"]),
            "--alignment", "rolling",
            *REFERENCE_ARGS,
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "total effort 6.60 PM (theta 10, upper bound 8.00 PM)" in stdout
    run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert run_record["result"]["theta_provenance"] == "calibrated"
    assert run_record["result"]["calibration"]["selected_theta"] == 10


def test_estimate_markdown_and_csv_formats(reference_inputs, tmp_path, capsys):
    for fmt, filename in (("markdown", "report.md"), ("csv", "report.csv")):
        out = tmp_path / fmt
        code, _, _ = run(
            [
                "estimate",
                "--log", str(reference_inputs["log"]),
                "--theta", "10",
                "--alignment", "rolling",
                *REFERENCE_ARGS,
                "--format", fmt,
                "--out", str(out),
            ],
            capsys,
        )
        assert code == EXIT_OK
        text = (out / filename).read_text(encoding="utf-8")
        assert "6.60" in text


@pytest.mark.parametrize(
    "theta,theta_max,rows",
    [("20", ["--theta-max", "13"], [*range(1, 14), 20]),
     ("13", ["--theta-max", "13"], list(range(1, 14))),
     ("10", [], [10]),
     ("10", ["--theta-max", "20000"], list(range(1, 20001))),
     ("2", ["--theta-max", "1"], [1, 2])],
)
def test_estimate_reports_each_threshold_once(theta, theta_max, rows, reference_inputs, tmp_path,
                                              capsys):
    # The report lists 1..theta-max and the selected theta, sorted and without repeats;
    # the selected theta's error cell reads "--" and every other one a signed percent.
    code, _, err = run(
        ["estimate", "--log", str(reference_inputs["log"]), *REFERENCE_ARGS, "--alignment", "rolling",
         "--theta", theta, *theta_max, "--format", "csv", "--out", str(tmp_path)],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    with open(tmp_path / "report.csv", encoding="utf-8", newline="") as handle:
        report = list(csv.DictReader(handle))
    assert [int(row["theta"]) for row in report] == rows
    assert [row["theta"] for row in report if row["error_vs_selected"] == "--"] == [theta]
    errors = [row["error_vs_selected"] for row in report if row["theta"] != theta]
    assert all(error[:1] in ("+", "-") and error.endswith("%") for error in errors)


def test_estimate_requires_exactly_one_theta_source(reference_inputs, tmp_path, capsys):
    base = [
        "estimate",
        "--log", str(reference_inputs["log"]),
        "--alignment", "rolling",
        *REFERENCE_ARGS,
        "--out", str(tmp_path / "x"),
    ]
    code, _, err = run(base, capsys)
    assert code == EXIT_CONFIG
    assert "exactly one of --theta or --survey" in err
    code, _, err = run(
        base + ["--theta", "10", "--survey", str(reference_inputs["survey"])], capsys
    )
    assert code == EXIT_CONFIG


def test_exactly_one_commit_source_required(reference_inputs, tmp_path, capsys):
    code, _, err = run(
        ["calibrate", "--survey", str(reference_inputs["survey"]), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2  # README, *Exit codes*: configuration or data errors
    assert "exactly one of --log, --commits, or --repo" in err


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_estimate_reads_directly_from_git_repo(tmp_path, capsys):
    # Both commits at 2013-01-10T00:00:00Z, in the window before the 2013-02-01 anchor.
    repo = tmp_path / "repo"
    build_repo(repo, linear([(b"Repo Dev <repo@example.org>", 1_357_776_000)] * 2))

    out = tmp_path / "est"
    code, stdout, _ = run(
        ["estimate", "--repo", str(repo), "--theta", "1", "--alignment", "rolling",
         *REFERENCE_ARGS, "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert "total effort 1.00 PM (theta 1, upper bound 1.00 PM)" in stdout
    activity = (out / "activity.csv").read_text(encoding="utf-8").splitlines()
    assert activity[1] == "repo@example.org,2013-01-01,2"


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_repository_without_commits_is_an_io_error(tmp_path, capsys):
    # An empty --log file estimates to 0.00 PM; an unborn branch fails in git log, whose
    # message is localised, so only the prefix is pinned.
    repo = tmp_path / "repo"
    build_repo(repo, [])
    out = tmp_path / "est"
    code, stdout, err = run(
        ["estimate", "--repo", str(repo), "--theta", "1", "--out", str(out)], capsys
    )
    assert (code, stdout) == (EXIT_IO, "")
    assert err.startswith(f"error: git log failed for {repo}: ")
    assert not out.exists()


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    code, _, err = run(
        ["calibrate", "--log", str(tmp_path / "absent.log"), "--survey", "s.csv",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1  # README, *Exit codes*: input/output failure
    assert "cannot read" in err


def test_repo_without_git_on_the_path_is_an_io_error(tmp_path, capsys, monkeypatch):
    # No git at all, then a fake git on PATH that fails with a message, and one that fails
    # silently: git's stderr, stripped, or its exit status follows the repository.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    monkeypatch.setenv("PATH", str(bin_dir))
    out = tmp_path / "out"
    for script, reason in (
        (None, "git executable not found"),
        ("echo 'fatal: boom' >&2; exit 128", f"git log failed for {tmp_path}: fatal: boom"),
        ("exit 3", f"git log failed for {tmp_path}: exit status 3"),
    ):
        if script:
            (bin_dir / "git").write_text(f"#!/bin/sh\n{script}\n", encoding="utf-8")
            (bin_dir / "git").chmod(0o755)
        code, stdout, err = run(
            ["estimate", "--repo", str(tmp_path), "--theta", "1", "--out", str(out)], capsys
        )
        assert (code, stdout, err) == (EXIT_IO, "", f"error: {reason}\n")
        assert not out.exists()


def test_unwritable_out_names_the_directory_or_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    blocked = tmp_path / "blocked"
    (blocked / "run.json").mkdir(parents=True)
    for out, kind, failing, code in (
        (taken, "directory", taken, errno.EEXIST),
        (taken / "sub", "directory", taken / "sub", errno.ENOTDIR),
        (blocked, "file", blocked / "run.json", errno.EISDIR),
    ):
        reason = OSError(code, os.strerror(code), str(failing))
        assert run(["synth", "--fulltime", "1", "--other", "1", "--out", str(out)], capsys) == (
            EXIT_IO, "", f"error: cannot write output {kind} {failing}: {reason}\n"
        )


def test_survey_with_only_its_header_is_a_config_error(reference_inputs, tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    survey.write_text("email,self_class,hours_bucket,survey_date,suspect\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(
        ["calibrate", "--log", str(reference_inputs["log"]), "--survey", str(survey),
         *REFERENCE_ARGS, "--out", str(out)],
        capsys,
    )
    assert (code, err) == (EXIT_CONFIG, f"error: survey {survey} has no responses\n")
    assert not out.exists()


def test_estimate_with_every_commit_filtered_reports_zero_rows(tmp_path, capsys):
    # Nothing is kept, so there is no error table: only the selected theta's error cell is set.
    log = tmp_path / "bots.log"
    log.write_text(
        "a1|ci@example.org|CI Bot|1577836800|0\nb1|jenkins@example.org|Jenkins|1577836900|0\n",
        encoding="utf-8",
    )
    reports = {}
    for fmt, filename in (("csv", "report.csv"), ("markdown", "report.md"), ("json", "report.json")):
        code, stdout, err = run(
            ["estimate", "--log", str(log), "--bots", "default", "--theta", "2", "--theta-max", "3",
             "--format", fmt, "--out", str(tmp_path / fmt)],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        assert "excluded 2 bot, 0 merge" in stdout
        reports[fmt] = (tmp_path / fmt / filename).read_text(encoding="utf-8")
    assert reports["csv"] == "theta,total_pm,error_vs_selected\n1,0.00,\n2,0.00,--\n3,0.00,\n"
    assert reports["markdown"].splitlines()[2:5] == [
        "| 1 | 0.00 |  |", "| 2 | 0.00 | -- |", "| 3 | 0.00 |  |",
    ]
    assert json.loads(reports["json"])["thresholds"] == [
        {"theta": theta, "total_pm": "0.00", "per_period_pm": {},
         "error_vs_selected": "--" if theta == 2 else ""}
        for theta in (1, 2, 3)
    ]


def test_out_of_range_timestamp_is_a_malformed_line(reference_inputs, tmp_path, capsys):
    log = tmp_path / "late.log"
    log.write_text(
        reference_inputs["log"].read_text(encoding="utf-8")
        + "late01|late@example.org|Late|99999999999999|0\n",
        encoding="utf-8",
    )
    out = tmp_path / "est"
    code, stdout, err = run(
        ["estimate", "--log", str(log), "--theta", "10", "--alignment", "rolling",
         *REFERENCE_ARGS, "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert "Traceback" not in err
    assert "(1 malformed)" in stdout
    assert "total effort 6.60 PM (theta 10, upper bound 8.00 PM)" in stdout
    run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert run_record["result"]["total_pm"] == "6.60"
    assert run_record["ingest"]["malformed"] == 1


def test_jsonl_lone_surrogate_is_a_malformed_line(reference_inputs, tmp_path, capsys):
    records = parse_log_file(str(reference_inputs["log"])).records
    lines = [to_jsonl_line(record) for record in records]
    # With no email the name becomes the developer id, which activity.csv must encode.
    bad = lines[3].replace(records[3].hash, "surrogate01")
    bad = bad.replace(json.dumps(records[3].author_name), '"\\ud800x"')
    lines.insert(3, bad.replace(json.dumps(records[3].author_email), '""'))
    commits = tmp_path / "commits.jsonl"
    commits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "est"
    code, stdout, err = run(
        ["estimate", "--commits", str(commits), "--theta", "10", "--alignment", "rolling",
         *REFERENCE_ARGS, "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    assert f"parsed {len(records)} commits (1 malformed)" in stdout
    assert (out / "activity.csv").exists()


def test_excess_malformed_lines_is_io_error(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_text("garbage\nmore garbage\n", encoding="utf-8")
    code, _, err = run(
        ["calibrate", "--log", str(log), "--survey", "s.csv", "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_IO
    assert "malformed" in err


@pytest.mark.parametrize(
    "log, bots, code, message",
    [
        ("bad", "absent", EXIT_IO, "error: 2 of 2 lines malformed, exceeding tolerance 5.0%: line 1:"),
        ("bad", "invalid", EXIT_IO, "error: 2 of 2 lines malformed, exceeding tolerance 5.0%: line 1:"),
        ("good", "invalid", EXIT_CONFIG, "error: invalid bot pattern '(['"),
        ("absent", "absent", EXIT_IO, "error: cannot read commit log "),
    ],
)
def test_log_errors_come_before_bot_pattern_errors(
    log, bots, code, message, reference_inputs, tmp_path, capsys
):
    """The whole log is read and its tolerance checked before the bot file is read or compiled."""
    (tmp_path / "bad.log").write_text("garbage\nmore garbage\n", encoding="utf-8")
    (tmp_path / "invalid.txt").write_text("([\n", encoding="utf-8")
    logs = {"bad": tmp_path / "bad.log", "good": reference_inputs["log"], "absent": tmp_path / "absent.log"}
    out = tmp_path / "out"
    exit_code, stdout, err = run(
        ["calibrate", "--log", str(logs[log]), "--survey", str(reference_inputs["survey"]),
         "--bots", str(tmp_path / f"{bots}.txt"), *REFERENCE_ARGS, "--out", str(out)],
        capsys,
    )
    assert exit_code == code
    assert stdout == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--log", "--commits"])
def test_cli_ingest_builds_no_commit_records(flag, reference_inputs, tmp_path, capsys, monkeypatch):
    """The CLI groups lines straight into author timelines; only library callers get records."""
    log = reference_inputs["log"]
    if flag == "--commits":
        log = tmp_path / "commits.jsonl"
        records = parse_log_file(str(reference_inputs["log"])).records
        log.write_text("".join(to_jsonl_line(r) + "\n" for r in records), encoding="utf-8")

    def no_records(fields):
        raise AssertionError(f"built a CommitRecord for {fields!r}")

    monkeypatch.setattr("vcseffort.ingest._new_record", no_records)
    with pytest.raises(AssertionError, match="built a CommitRecord"):
        parse_log_file(str(log), "jsonl" if flag == "--commits" else "pipe")
    code, stdout, _ = run(
        ["calibrate", flag, str(log), "--survey", str(reference_inputs["survey"]),
         "--bots", "default", "--exclude-merges", *REFERENCE_ARGS, "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == EXIT_OK
    assert stdout.startswith("parsed 72 commits (0 malformed); excluded 0 bot, 0 merge\n")


def test_argparse_rejects_bad_choice(reference_inputs, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "estimate",
                "--log", str(reference_inputs["log"]),
                "--theta", "10",
                "--format", "yaml",
                "--out", str(tmp_path),
            ]
        )
    assert excinfo.value.code == 2


def test_unmatched_survey_is_config_error(reference_inputs, tmp_path, capsys):
    survey = tmp_path / "other.csv"
    survey.write_text(
        "email,self_class,hours_bucket,survey_date,suspect\n"
        "nobody@nowhere.org,full,,2013-02-01,\n",
        encoding="utf-8",
    )
    code, _, err = run(
        [
            "calibrate",
            "--log", str(reference_inputs["log"]),
            "--survey", str(survey),
            *REFERENCE_ARGS,
            "--out", str(tmp_path / "o"),
        ],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "no survey response matched" in err


def test_config_file_supplies_flags_and_cli_overrides(reference_inputs, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        f"log = {reference_inputs['log']}\n"
        f"survey = {reference_inputs['survey']}\n"
        "period-months = 1\n"
        "anchor = 2013-02-01\n"
        "# comment line\n"
        "select = max\n",
        encoding="utf-8",
    )
    out = tmp_path / "from-config"
    code, stdout, _ = run(
        ["calibrate", "--config", str(config), "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    assert "selected 11" in stdout  # select = max picks the top of [9, 11]

    out2 = tmp_path / "override"
    code, stdout, _ = run(
        ["calibrate", "--config", str(config), "--select", "min", "--out", str(out2)],
        capsys,
    )
    assert code == EXIT_OK
    assert "selected 9" in stdout  # the flag wins over the config file


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("volume = 11\n", encoding="utf-8")
    code, _, err = run(["calibrate", "--config", str(config)], capsys)
    assert code == EXIT_CONFIG
    assert "unknown option" in err


BAD_OPTION_VALUES = [
    ("format", "yaml"),
    ("alignment", "weekly"),
    ("metric", "lines"),
    ("theta", "0"),
    ("period-months", "0"),
    ("malformed-tolerance", "2"),
    ("anchor", "2020-13-01"),
    ("cutoffs", "a,b"),
    ("cutoffs", "-1"),
    ("cutoffs", ","),
    ("exclude-merges", "maybe"),
    ("theta-max", "100001"),
]


@pytest.mark.parametrize("key,value", BAD_OPTION_VALUES)
def test_config_value_gets_the_flag_checks(key, value, reference_inputs, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    code, _, err = run(
        ["estimate", "--config", str(config), "--log", str(reference_inputs["log"]),
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert err.startswith("error: config file")
    assert key in err


@pytest.mark.parametrize(
    "key,value", [(key, value) for key, value in BAD_OPTION_VALUES if key != "exclude-merges"]
)
def test_flag_value_gets_the_same_checks(key, value, reference_inputs, tmp_path):
    command = "representativeness" if key == "cutoffs" else "estimate"
    with pytest.raises(SystemExit) as excinfo:
        main(
            [command, "--log", str(reference_inputs["log"]), f"--{key}", value,
             "--out", str(tmp_path)]
        )
    assert excinfo.value.code == 2


# Forms Python 3.11's date.fromisoformat takes and 3.10's does not, and other near misses.
NOT_YYYY_MM_DD = ["20200101", "2020-W01-1", "2020-1-1", "\uff12\uff10\uff12\uff10-01-01"]


@pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
def test_survey_date_must_be_yyyy_mm_dd(text, reference_inputs, tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    rows = reference_inputs["survey"].read_text(encoding="utf-8")
    survey.write_text(rows.replace("2013-02-01", text, 1), encoding="utf-8")
    code, _, err = run(
        ["calibrate", "--log", str(reference_inputs["log"]), "--survey", str(survey),
         "--period-months", "1", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == EXIT_IO
    assert f"row 2: bad survey_date {text!r}" in err


@pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
def test_anchor_must_be_yyyy_mm_dd(text, reference_inputs, tmp_path, capsys):
    args = ["estimate", "--log", str(reference_inputs["log"]), "--theta", "10",
            "--alignment", "rolling", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--anchor", text])
    assert excinfo.value.code == EXIT_CONFIG
    assert f"expected YYYY-MM-DD, got {text!r}" in capsys.readouterr().err

    config = tmp_path / "run.conf"
    config.write_text(f"anchor = {text}\n", encoding="utf-8")
    code, _, err = run([*args, "--config", str(config)], capsys)
    assert code == EXIT_CONFIG
    assert f"anchor: expected YYYY-MM-DD, got {text!r}" in err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, vcseffort.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


# Modules a command adds to a fresh interpreter, counted from before the package is
# imported, so a site hook that loads one of them does not count.
LOADED_MODULES_PROBE = """
import sys
before = set(sys.modules)
from vcseffort.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(set(sys.modules) - before))
"""


STDLIB_MODULES = ("subprocess", "json", "csv", "calendar")
# Parsing arguments, --version, --help and a usage error run no layer.
PARSER_PATH_UNUSED = (
    "effort", "survey", "calibration", "stats", "synth", "ingest", "identity", "activity",
    "json", "csv", "calendar",
)


@pytest.mark.parametrize(
    "command, unused",
    [
        ("estimate", ("survey", "calibration", "stats", "synth", "subprocess", "calendar")),
        ("calibrate", ("effort", "stats", "synth", "subprocess", "calendar")),
        ("--version", PARSER_PATH_UNUSED),
        ("--help", PARSER_PATH_UNUSED),
        ("estimate --theta 0", PARSER_PATH_UNUSED),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(command, unused, reference_inputs, tmp_path):
    args = {
        "estimate": ["estimate", "--log", str(reference_inputs["log"]), "--theta", "10",
                     "--theta-max", "13", "--out", str(tmp_path)],
        "calibrate": ["calibrate", "--log", str(reference_inputs["log"]),
                      "--survey", str(reference_inputs["survey"]), "--out", str(tmp_path)],
    }.get(command, command.split())
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_PROBE, *args],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=True,
    )
    code, *added = result.stdout.splitlines()[-1].split()
    # argparse exits 2 on a usage error.
    assert code == ("2" if command == "estimate --theta 0" else "0"), result.stderr
    assert "vcseffort.cli" in added
    names = [name if name in STDLIB_MODULES else f"vcseffort.{name}" for name in unused]
    assert sorted(set(names) & set(added)) == []


def test_cli_import_loads_only_the_package_root_and_errors():
    probe = (
        "import sys; before = set(sys.modules); import vcseffort.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=True,
    )
    added = set(result.stdout.split())
    assert sorted(name for name in added if name.startswith("vcseffort")) == [
        "vcseffort", "vcseffort.cli", "vcseffort.errors",
    ]
    assert sorted(added & {"json", "csv", "calendar"}) == []


# sha256 of each --help text at 80 columns, as the parser printed it before its defaults
# and choices moved to the package root.
HELP_SHA256 = {
    "": "401d88bb3492a7ca5982a0ab94b227ccc625eff3d4251e13731ef6964095e838",
    "calibrate": "d9fe2e0f9e36c5b83917ab3f2d79bd2d1773ffa5b0a52b4dff257a2eb0430ed8",
    "estimate": "9533ed2e519f345c427f1e8c64f5f3349cbb2052d68e9e9270daa55a1ae84f45",
    "representativeness": "20927f45df81726bf11b956323c259d28bad47adae1d87faedab5a73bbe734a3",
    "synth": "93ecedee7dd88607b2fe725f0a87c384cc429b7d7449c9fc37fb15a211133c37",
}


def test_parser_constants_have_one_source_and_the_help_text_is_unchanged(capsys, monkeypatch):
    for name in ("METRIC_COMMITS", "METRIC_ACTIVE_DAYS", "METRICS", "ALIGNMENT_CALENDAR",
                 "ALIGNMENT_ROLLING"):
        assert getattr(activity, name) is getattr(vcseffort, name)
    assert ingest.DEFAULT_MALFORMED_TOLERANCE is vcseffort.DEFAULT_MALFORMED_TOLERANCE

    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        assert exit_info.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_config_file_cannot_name_another_config(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("config = x\n", encoding="utf-8")
    code, _, err = run(["calibrate", "--config", str(config)], capsys)
    assert code == EXIT_CONFIG
    assert "unknown option 'config'" in err


def test_run_record_snapshots_every_option(reference_inputs, tmp_path, capsys):
    # theta, format, cutoffs and seed belong to other subcommands: accepted and recorded.
    config = tmp_path / "run.conf"
    config.write_text(
        f"log = {reference_inputs['log']}\n"
        f"survey = {reference_inputs['survey']}\n"
        "period-months = 3\n"
        "anchor = 2013-02-01\n"
        "select = max\n"
        "Theta_Max = 20\n"
        "name_merging = yes\n"
        "exclude-merges = off\n"
        "theta = 7\n"
        "cutoffs = 4, 0, 4\n"
        "seed = 5\n"
        "format = csv\n",
        encoding="utf-8",
    )
    out = tmp_path / "cal"
    code, _, _ = run(
        ["calibrate", "--config", str(config), "--period-months", "1", "--select", "min",
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    recorded = json.loads((out / "run.json").read_text(encoding="utf-8"))["config"]
    assert recorded == {
        "command": "calibrate",
        "log": str(reference_inputs["log"]),
        "commits": None,
        "repo": None,
        "period_months": 1,
        "alignment": "calendar",
        "anchor": "2013-02-01",
        "bots": None,
        "exclude_merges": False,
        "aliases": None,
        "name_merging": True,
        "survey": str(reference_inputs["survey"]),
        "theta": 7,
        "theta_max": 20,
        "metric": "commits",
        "select": "min",
        "format": "csv",
        "out": str(out),
        "cutoffs": [0, 4],
        "malformed_tolerance": 0.05,
        "seed": 5,
        "fulltime": 10,
        "other": 100,
        "theta_true": 10,
        "skew": 2.0,
        "label_noise": 0.0,
        "log_format": "pipe",
    }


DEFAULT_CONFIG = {  # every option but "command"
    "log": None,
    "commits": None,
    "repo": None,
    "period_months": 6,
    "alignment": "calendar",
    "anchor": None,
    "bots": None,
    "exclude_merges": False,
    "aliases": None,
    "name_merging": False,
    "survey": None,
    "theta": None,
    "theta_max": None,
    "metric": "commits",
    "select": "lower-median",
    "format": "json",
    "out": ".",
    "cutoffs": [0, 1, 2, 3, 4, 5, 8, 11],
    "malformed_tolerance": 0.05,
    "seed": 0,
    "fulltime": 10,
    "other": 100,
    "theta_true": 10,
    "skew": 2.0,
    "label_noise": 0.0,
    "log_format": "pipe",
}


@pytest.mark.parametrize("command", ["estimate", "synth"])
def test_run_record_fills_in_every_default(command, reference_inputs, tmp_path, capsys, monkeypatch):
    # No config file and no optional flags: every option the run did not name is its default.
    monkeypatch.chdir(tmp_path)
    given = {"log": str(reference_inputs["log"]), "theta": 9} if command == "estimate" else {}
    argv = [command]
    for key, value in given.items():
        argv += [f"--{key}", str(value)]
    code, _, err = run(argv, capsys)
    assert code == EXIT_OK, err
    recorded = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))["config"]
    assert recorded == {"command": command, **DEFAULT_CONFIG, **given}


@pytest.mark.parametrize("flag", ["config", "bots", "aliases", "survey"])
def test_undecodable_input_file_is_an_io_error(flag, reference_inputs, tmp_path, capsys):
    bad = tmp_path / f"{flag}.txt"
    bad.write_bytes(b"\xe9\n")
    code, _, err = run(
        ["calibrate", "--log", str(reference_inputs["log"]),
         "--survey", str(reference_inputs["survey"]), *REFERENCE_ARGS,
         "--out", str(tmp_path / "o"), f"--{flag}", str(bad)],  # a repeated --survey: the last wins
        capsys,
    )
    assert code == EXIT_IO
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, kind",
    [("log", "commit log"), ("commits", "commit log"), ("config", "config file"),
     ("bots", "bot pattern file"), ("aliases", "alias file"), ("survey", "survey file")],
)
def test_unreadable_input_names_its_kind(flag, kind, reference_inputs, tmp_path, capsys):
    directory = tmp_path / "dir"
    directory.mkdir()
    source = [] if flag in ("log", "commits") else ["--log", str(reference_inputs["log"])]
    code, _, err = run(
        ["calibrate", *source, "--survey", str(reference_inputs["survey"]), *REFERENCE_ARGS,
         "--out", str(tmp_path / "o"), f"--{flag}", str(directory)],
        capsys,
    )
    assert code == EXIT_IO
    assert err.startswith(f"error: cannot read {kind} {directory}: ")
    assert "Traceback" not in err


def test_readme_quickstart_prints_what_it_shows(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # The section's first fenced block is the script, its second what the script prints.
    blocks = readme.split("### Quickstart", 1)[1].split("```")
    script, shown = blocks[1].removeprefix("sh\n"), blocks[3].removeprefix("\n")
    commands = [shlex.split(line) for line in script.replace("\\\n", " ").splitlines()]
    assert len(commands) == 4 and all(words[0] == "vcs-effort" for words in commands)

    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert main(words[1:]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == shown.splitlines()


def test_bots_and_aliases_affect_the_pipeline(reference_inputs, tmp_path, capsys):
    log = tmp_path / "log.txt"
    base = reference_inputs["log"].read_text(encoding="utf-8")
    extra = "botc1|ci@bots.org|Build Bot|1357040000|0\n"
    log.write_text(base + extra, encoding="utf-8")

    aliases = tmp_path / "aliases.csv"
    aliases.write_text("d8@example.org,d4@example.org\n", encoding="utf-8")

    out = tmp_path / "filtered"
    code, stdout, _ = run(
        [
            "estimate",
            "--log", str(log),
            "--theta", "10",
            "--alignment", "rolling",
            *REFERENCE_ARGS,
            "--bots", "default",
            "--aliases", str(aliases),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "excluded 1 bot" in stdout
    activity = (out / "activity.csv").read_text(encoding="utf-8")
    # d8's five commits fold into d4's three: a single row with eight.
    assert "d4@example.org,2013-01-01,8" in activity
    assert "d8@example.org" not in activity


def test_representativeness_outputs(reference_inputs, tmp_path, capsys):
    # A ninth developer commits only in 2012, before the survey window: activity 0.
    log = tmp_path / "commits.log"
    log.write_bytes(reference_inputs["log"].read_bytes() + b"o1|o@example.org|Old|1340000000|0\n")
    out = tmp_path / "rep"
    code, stdout, _ = run(
        [
            "representativeness",
            "--log", str(log),
            "--survey", str(reference_inputs["survey"]),
            *REFERENCE_ARGS,
            "--cutoffs", "0,4,100",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "representativeness: 3 cutoffs, 1 insufficient" in stdout
    lines = (out / "representativeness.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cutoff,population,n,min,q1,median,mean,q3,max,D,p"
    assert len(lines) == 7
    assert lines[1].startswith("0,all,9,0,")


def test_every_csv_the_cli_writes_reads_back_to_its_cells(
    reference_inputs, ref_counts, tmp_path, capsys
):
    # tests/test_pipeline.py reads every output file back against the reference model
    # on seeded logs; here representativeness.csv of the reference population, where
    # every developer is surveyed.
    argv = ["representativeness", "--log", str(reference_inputs["log"]), *REFERENCE_ARGS,
            "--survey", str(reference_inputs["survey"]), "--cutoffs", "0,5,12,14"]
    assert run([*argv, "--out", str(tmp_path)], capsys)[0] == EXIT_OK
    with open(tmp_path / "representativeness.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == model.representativeness(ref_counts, ref_counts, ref_counts, (0, 5, 12, 14))[0]


def test_synth_then_calibrate_recovers_planted_range(tmp_path, capsys):
    fix = tmp_path / "fix"
    code, stdout, _ = run(
        [
            "synth",
            "--seed", "42",
            "--fulltime", "8",
            "--other", "40",
            "--theta-true", "12",
            "--anchor", "2020-07-01",
            "--out", str(fix),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "generated 48 developers" in stdout

    out = tmp_path / "cal"
    code, stdout, _ = run(
        [
            "calibrate",
            "--log", str(fix / "commits.log"),
            "--survey", str(fix / "survey.csv"),
            "--anchor", "2020-07-01",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    truth = json.loads((fix / "ground_truth.json").read_text(encoding="utf-8"))
    low, high = truth["separating_range"]
    selection = json.loads((out / "selection.json").read_text(encoding="utf-8"))
    assert low <= selection["selected_theta"] <= high
    assert selection["max_goodness"] == 1.0


def test_synth_jsonl_feeds_commits_flag(tmp_path, capsys):
    fix = tmp_path / "fix"
    code, _, _ = run(
        ["synth", "--seed", "3", "--fulltime", "2", "--other", "6",
         "--theta-true", "5", "--anchor", "2020-07-01", "--log-format", "jsonl",
         "--out", str(fix)],
        capsys,
    )
    assert code == EXIT_OK
    out = tmp_path / "cal"
    code, stdout, _ = run(
        [
            "calibrate",
            "--commits", str(fix / "commits.jsonl"),
            "--survey", str(fix / "survey.csv"),
            "--anchor", "2020-07-01",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "options, line_end",
    [([], b"\n"),
     (["--theta-max", "40"], b"\n"),
     (["--theta-max", "40"], b"\r\n"),
     (["--theta-max", "20000", "--format", "csv"], b"\n")],
    ids=["theta", "theta-max-40", "theta-max-40-crlf-jsonl", "theta-max-20000-csv"],
)
def test_pipe_and_jsonl_logs_of_one_population_give_the_same_report(options, line_end, tmp_path,
                                                                     capsys):
    """One synth population, written in both log formats, estimates to the same bytes, also
    when the JSON lines end in CRLF."""
    outputs = {}
    for fmt, flag, log in [("pipe", "--log", "commits.log"), ("jsonl", "--commits", "commits.jsonl")]:
        population, out = tmp_path / f"s-{fmt}", tmp_path / f"e-{fmt}"
        code, _, _ = run([*SYNTH, "--log-format", fmt, "--out", str(population)], capsys)
        assert code == EXIT_OK
        if fmt == "jsonl":
            jsonl = population / log
            jsonl.write_bytes(jsonl.read_bytes().replace(b"\n", line_end))
        code, _, _ = run(
            ["estimate", flag, str(population / log), "--theta", "9", *options, "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
        reports = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run.json"}
        outputs[fmt] = reports, run_record["ingest"]
    assert outputs["pipe"] == outputs["jsonl"]
    assert outputs["pipe"][1]["parsed"] > 0


def test_invalid_synth_spec_is_config_error(tmp_path, capsys):
    code, _, err = run(
        ["synth", "--fulltime", "0", "--other", "5", "--theta-true", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "theta_true" in err


def test_calendar_estimate_over_reference_log(reference_inputs, tmp_path, capsys):
    # Default calendar alignment buckets all January commits into one half-year.
    out = tmp_path / "cal-est"
    code, stdout, _ = run(
        [
            "estimate",
            "--log", str(reference_inputs["log"]),
            "--theta", "10",
            "--period-months", "6",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    activity = (out / "activity.csv").read_text(encoding="utf-8")
    assert "d1@example.org,13s1,12" in activity


@pytest.mark.parametrize(
    "args",
    [
        ["calibrate", "--anchor", "0001-01-01"],
        ["calibrate", "--period-months", "100000"],
        ["estimate", "--alignment", "rolling", "--anchor", "2020-01-01", "--period-months", "30000"],
        ["synth", "--anchor", "0001-03-01"],
    ],
)
def test_window_before_year_one_is_a_config_error(args, reference_inputs, tmp_path, capsys):
    if args[0] == "synth":
        inputs = []
    elif args[0] == "estimate":
        inputs = ["--log", str(reference_inputs["log"]), "--theta", "10"]
    else:
        inputs = ["--log", str(reference_inputs["log"]), "--survey", str(reference_inputs["survey"])]
    code, _, err = run([*args, *inputs, "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "before year 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "layout,message",
    [
        (["--period-months", "5"], "6-month periods"),
        (["--alignment", "rolling"], "requires an anchor"),
    ],
)
def test_bad_period_layout_fails_before_ingest(layout, message, reference_inputs, tmp_path, capsys):
    code, stdout, err = run(
        ["estimate", "--log", str(reference_inputs["log"]), "--theta", "10", *layout,
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert message in err
    assert stdout == ""


@pytest.mark.parametrize("command", ["calibrate", "representativeness"])
def test_missing_survey_fails_before_ingest(command, tmp_path, capsys):
    code, stdout, err = run(
        [command, "--log", str(tmp_path / "absent.log"), "--out", str(tmp_path / "o")], capsys
    )
    assert code == EXIT_CONFIG
    assert f"{command} requires --survey" in err
    assert stdout == ""


@pytest.mark.parametrize("bom_input", ["commits", "survey", "config", "aliases", "bots"])
def test_byte_order_mark_is_ignored(bom_input, reference_inputs, tmp_path, capsys):
    records = parse_log_file(str(reference_inputs["log"])).records
    texts = {
        "commits": "".join(to_jsonl_line(record) + "\n" for record in records)
        + '{"author_email": "ci@bots.org", "author_name": "Build Bot", '
        '"author_timestamp": 1357040000, "hash": "botc1", "is_merge": false}\n',
        "survey": reference_inputs["survey"].read_text(encoding="utf-8"),
        "config": "theta-max = 13\nselect = max\n",
        "aliases": "d8@example.org,d4@example.org\n",
        "bots": "bot\n",
    }

    def estimate(name: str, bom: str) -> tuple[int, str, str]:
        directory = tmp_path / name
        directory.mkdir()
        flags = []
        for flag, text in texts.items():
            path = directory / f"{flag}.txt"
            path.write_text((bom if flag == bom_input else "") + text, encoding="utf-8")
            flags += [f"--{flag}", str(path)]
        return run(
            ["estimate", *flags, "--alignment", "rolling", *REFERENCE_ARGS,
             "--out", str(directory / "out")],
            capsys,
        )

    plain = estimate("plain", "")
    assert plain[0] == EXIT_OK
    assert "parsed 73 commits (0 malformed); excluded 1 bot, 0 merge" in plain[1]
    assert "exclusions: 1" in plain[1]  # d8's response is a duplicate of d4 once merged
    assert "total effort 6.27 PM (theta 11, upper bound 7.00 PM)" in plain[1]  # select = max
    assert estimate("bom", "\ufeff") == plain


def test_outputs_do_not_depend_on_hash_seed(reference_inputs, tmp_path):
    log, survey = str(reference_inputs["log"]), str(reference_inputs["survey"])
    commands = {
        "estimate": ["estimate", "--log", log, "--survey", survey, "--theta-max", "13",
                     "--alignment", "rolling", *REFERENCE_ARGS, "--name-merging",
                     "--bots", "default", "--metric", "active-days"],
        "calibrate": ["calibrate", "--log", log, "--survey", survey, *REFERENCE_ARGS,
                      "--theta-max", "13"],
    }
    src = Path(__file__).resolve().parents[1] / "src"
    for name, args in commands.items():
        runs = []
        for seed in ("0", "1"):
            cwd = tmp_path / f"{name}-{seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            result = subprocess.run(
                [sys.executable, "-m", "vcseffort.cli", *args, "--out", "out"],
                cwd=cwd, env=env, capture_output=True, check=True,
            )
            files = {path.name: path.read_bytes() for path in sorted((cwd / "out").iterdir())}
            runs.append((result.stdout, files))
        assert runs[0][1], name
        assert runs[0] == runs[1], name


def test_deeply_nested_json_line_is_a_malformed_line(reference_inputs, tmp_path, capsys):
    records = parse_log_file(str(reference_inputs["log"])).records
    lines = [to_jsonl_line(record) for record in records]
    commits = tmp_path / "commits.jsonl"
    commits.write_text("\n".join([*lines, "[" * 200_000]) + "\n", encoding="utf-8")
    code, stdout, err = run(
        ["estimate", "--commits", str(commits), "--theta", "10", "--alignment", "rolling",
         *REFERENCE_ARGS, "--out", str(tmp_path / "est")],
        capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    assert f"parsed {len(records)} commits (1 malformed)" in stdout


@pytest.mark.parametrize(
    "flag, command",
    [
        ("survey", ["calibrate"]),
        ("aliases", ["estimate", "--theta", "10", "--alignment", "rolling"]),
    ],
)
def test_oversized_csv_field_is_an_io_error(flag, command, reference_inputs, tmp_path, capsys):
    big = tmp_path / f"{flag}.csv"
    header = "email,self_class,hours_bucket,survey_date,suspect\n" if flag == "survey" else ""
    big.write_text(header + "x" * 200_000 + "@example.org,full,,2013-02-01,\n", encoding="utf-8")
    code, _, err = run(
        [*command, "--log", str(reference_inputs["log"]), *REFERENCE_ARGS,
         "--out", str(tmp_path / "o"), f"--{flag}", str(big)],
        capsys,
    )
    assert code == EXIT_IO
    assert str(big) in err
    assert "field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_outputs_match_their_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_golden_inputs()
    assert golden_run(name) == (EXIT_OK, "", GOLDEN_SHA256[name])


@pytest.mark.parametrize("log_format", ["pipe", "jsonl"])
@pytest.mark.parametrize("command", [
    ["calibrate", "--theta-max", "13", "--name-merging"],
    ["estimate", "--theta-max", "13", "--alignment", "rolling", "--metric", "active-days"],
])
def test_commit_order_does_not_change_outputs(command, log_format, reference_inputs, tmp_path,
                                              capsys, monkeypatch):
    records = parse_log_file(str(reference_inputs["log"])).records
    to_line = to_pipe_line if log_format == "pipe" else to_jsonl_line
    lines = reference_inputs["log"].read_text(encoding="utf-8").splitlines()
    if log_format == "jsonl":
        lines = [to_jsonl_line(record) for record in records]
    assert len(set(lines)) == len(lines)
    shuffled = random.Random(5).sample(lines, len(lines))
    assert shuffled != lines
    # A hash only drops duplicate lines at ingest: fresh unique hashes change nothing.
    rng = random.Random(6)
    hashes = [f"{rng.getrandbits(160):040x}" for _ in records]
    assert len(set(hashes) | {record.hash for record in records}) == 2 * len(records)
    rehashed = [to_line(record._replace(hash=h)) for record, h in zip(records, hashes)]
    source = "--log" if log_format == "pipe" else "--commits"
    runs = []
    for name, order in (("given", lines), ("shuffled", shuffled), ("rehashed", rehashed)):
        # The same relative paths in every run: run.json records them.
        directory = tmp_path / name
        directory.mkdir()
        monkeypatch.chdir(directory)
        Path("commits").write_text("\n".join(order) + "\n", encoding="utf-8")
        shutil.copy(reference_inputs["survey"], "survey.csv")
        code, stdout, err = run(
            [*command, source, "commits", "--survey", "survey.csv", *REFERENCE_ARGS, "--out", "out"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        runs.append((stdout, {path.name: path.read_bytes() for path in sorted(Path("out").iterdir())}))
    assert runs[0] == runs[1] == runs[2]

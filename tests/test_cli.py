"""Command-line behavior: flags, config files, outputs, and exit codes."""

from __future__ import annotations

import csv
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

from conftest import REFERENCE_ACTIVITIES, write_reference_inputs
from vcseffort.calibration import ThresholdMetrics, sweep
from vcseffort.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from vcseffort.effort import error_table, report_payload, reports_for_thetas
from vcseffort.ingest import parse_log_file, to_jsonl_line, to_pipe_line
from vcseffort.stats import (
    REPRESENTATIVENESS_CSV_HEADER,
    STATUS_INSUFFICIENT,
    representativeness_table,
)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REFERENCE_ARGS = ["--period-months", "1", "--anchor", "2013-02-01"]


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
     ("10", [], [10])],
)
def test_estimate_reports_each_threshold_once(theta, theta_max, rows, reference_inputs, tmp_path,
                                              capsys):
    # The report lists 1..theta-max and the selected theta, sorted and without repeats;
    # only the selected theta's error cell reads "--".
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
    assert code == EXIT_CONFIG
    assert "exactly one of --log, --commits, or --repo" in err


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_estimate_reads_directly_from_git_repo(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    # Pin commit dates so both land in the window before the 2013-02-01 anchor.
    env = dict(
        os.environ,
        GIT_AUTHOR_DATE="2013-01-10T00:00:00 +0000",
        GIT_COMMITTER_DATE="2013-01-10T00:00:00 +0000",
    )
    identity = ["-c", "user.name=Repo Dev", "-c", "user.email=repo@example.org"]

    def git(*args):
        subprocess.run(
            ["git", *identity, "-C", str(repo), *args],
            check=True,
            capture_output=True,
            env=env,
        )

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "first")
    (repo / "a.txt").write_text("two\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "second")

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


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    code, _, err = run(
        ["calibrate", "--log", str(tmp_path / "absent.log"), "--survey", "s.csv",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_IO
    assert "cannot read" in err


def test_repo_without_git_on_the_path_is_an_io_error(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    out = tmp_path / "out"
    code, stdout, err = run(
        ["estimate", "--repo", str(tmp_path), "--theta", "1", "--out", str(out)], capsys
    )
    assert (code, stdout, err) == (EXIT_IO, "", "error: git executable not found\n")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, unused",
    [
        ("estimate", ("survey", "calibration", "stats", "synth", "subprocess")),
        ("calibrate", ("effort", "stats", "synth", "subprocess")),
        ("--version", ("effort", "survey", "calibration", "stats", "synth")),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(command, unused, reference_inputs, tmp_path):
    args = {
        "estimate": ["estimate", "--log", str(reference_inputs["log"]), "--theta", "10",
                     "--theta-max", "13", "--out", str(tmp_path)],
        "calibrate": ["calibrate", "--log", str(reference_inputs["log"]),
                      "--survey", str(reference_inputs["survey"]), "--out", str(tmp_path)],
        "--version": ["--version"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_PROBE, *args],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=True,
    )
    code, *added = result.stdout.splitlines()[-1].split()
    assert code == "0", result.stderr
    assert "vcseffort.cli" in added
    names = [name if name == "subprocess" else f"vcseffort.{name}" for name in unused]
    assert sorted(set(names) & set(added)) == []


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
    out = tmp_path / "rep"
    code, stdout, _ = run(
        [
            "representativeness",
            "--log", str(reference_inputs["log"]),
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
    assert lines[0] == ",".join(REPRESENTATIVENESS_CSV_HEADER)
    assert len(lines) == 7
    assert lines[1].startswith("0,all,8,")


def _cells_match(row, values):
    """A CSV row read back equals ``values``: text exactly, numbers to the digits written."""
    return len(row) == len(values) and all(
        cell == value if isinstance(value, str) else float(cell) == pytest.approx(value, rel=1e-5)
        for cell, value in zip(row, values)
    )


def test_every_csv_the_cli_writes_reads_back_to_its_cells(
    reference_inputs, ref_counts, ref_labels, ref_matrix, tmp_path, capsys
):
    source = ["--log", str(reference_inputs["log"]), *REFERENCE_ARGS]
    survey = ["--survey", str(reference_inputs["survey"])]
    for argv in (
        ["calibrate", *source, *survey, "--theta-max", "13"],
        ["estimate", *source, "--theta", "10", "--theta-max", "13", "--alignment", "rolling",
         "--format", "csv"],
        ["representativeness", *source, *survey, "--cutoffs", "0,5,12,14"],
    ):
        assert run([*argv, "--out", str(tmp_path)], capsys)[0] == EXIT_OK

    def read(name):
        with open(tmp_path / name, encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))

    header, *rows = read("sweep.csv")
    assert tuple(header) == ThresholdMetrics._fields
    metrics = sweep(ref_counts, ref_labels, 13)
    assert len(rows) == len(metrics)
    assert all(_cells_match(row, m) for row, m in zip(rows, metrics))

    thetas = list(range(1, 14))
    payload = report_payload(
        reports_for_thetas(ref_matrix, thetas), 10, error_table(ref_matrix, 10, thetas)
    )
    header, *rows = read("report.csv")
    assert header == ["theta", "total_pm", *ref_matrix.period_labels, "error_vs_selected"]
    assert rows == [
        [str(t["theta"]), t["total_pm"], *t["per_period_pm"].values(), t["error_vs_selected"]]
        for t in payload["thresholds"]
    ]

    header, *rows = read("activity.csv")
    assert header == ["developer_id", "period_label", "count"]
    assert {(d, label): int(count) for d, label, count in rows} == {
        (d, label): count for d, row in ref_matrix.counts.items() for label, count in row.items()
    }

    table = representativeness_table(ref_counts, ref_counts, (0, 5, 12, 14))
    header, *rows = read("representativeness.csv")
    assert tuple(header) == REPRESENTATIVENESS_CSV_HEADER
    expected = []
    for row in table:
        tests = [row.ks.d_statistic, row.ks.p_value] if row.ks else [STATUS_INSUFFICIENT] * 2
        for population, summary, tail in (
            ("all", row.all_summary, tests), ("surveyed", row.surveyed_summary, ["", ""])
        ):
            cells = list(summary) if summary else [0] + [""] * 6
            expected.append([row.cutoff, population, *cells, *tail])
    assert [row[:2] for row in rows] == [[str(e[0]), e[1]] for e in expected]
    assert all(_cells_match(row, values) for row, values in zip(rows, expected))


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


def test_pipe_and_jsonl_logs_of_one_population_give_the_same_report(tmp_path, capsys):
    """One synth population, written in both log formats, estimates to the same bytes."""
    outputs = {}
    for fmt, flag, log in [("pipe", "--log", "commits.log"), ("jsonl", "--commits", "commits.jsonl")]:
        population, out = tmp_path / f"s-{fmt}", tmp_path / f"e-{fmt}"
        code, _, _ = run([*SYNTH, "--log-format", fmt, "--out", str(population)], capsys)
        assert code == EXIT_OK
        code, _, _ = run(
            ["estimate", flag, str(population / log), "--theta", "9", "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        run_record = json.loads((out / "run.json").read_text(encoding="utf-8"))
        outputs[fmt] = (out / "report.json").read_bytes(), run_record["ingest"]
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


# Every input is written under the working directory and named by a relative path, so
# run.json["config"] is the same wherever the test runs.
SYNTH = ["synth", "--seed", "7", "--fulltime", "12", "--other", "120", "--theta-true", "9"]
SYNTH_JSONL = ["synth", "--seed", "11", "--fulltime", "5", "--other", "40", "--theta-true", "6",
               "--label-noise", "0.1", "--anchor", "2021-03-01", "--log-format", "jsonl"]
REF_LOG = ["--log", "ref/commits.log", *REFERENCE_ARGS]
REF_SURVEY = [*REF_LOG, "--survey", "ref/survey.csv"]
SYN_LOG = ["--log", "syn/commits.log"]
SYN_SURVEY = [*SYN_LOG, "--survey", "syn/survey.csv"]
SYNJ_SURVEY = ["--commits", "synj/commits.jsonl", "--survey", "synj/survey.csv"]

GOLDEN_RUNS = {
    "synth": SYNTH,
    "synth-jsonl": SYNTH_JSONL,
    "calibrate-ref": ["calibrate", *REF_SURVEY, "--theta-max", "13"],
    "calibrate-synth": ["calibrate", *SYN_SURVEY, "--select", "max"],
    "calibrate-synth-jsonl": ["calibrate", *SYNJ_SURVEY, "--metric", "active-days"],
    "estimate-ref-json-rolling-explicit": [
        "estimate", *REF_LOG, "--theta", "10", "--theta-max", "13", "--alignment", "rolling"],
    "estimate-ref-csv-calendar-survey": [
        "estimate", "--log", "ref/commits.log", "--survey", "ref/survey.csv",
        "--anchor", "2013-02-01", "--theta-max", "13", "--format", "csv"],
    "estimate-ref-markdown-rolling-survey": [
        "estimate", *REF_SURVEY, "--alignment", "rolling", "--format", "markdown",
        "--bots", "default", "--name-merging", "--exclude-merges", "--select", "min"],
    "estimate-synth-markdown-calendar-explicit": [
        "estimate", *SYN_LOG, "--theta", "9", "--format", "markdown"],
    "estimate-synth-csv-rolling-explicit": [
        "estimate", *SYN_LOG, "--theta", "9", "--theta-max", "12", "--alignment", "rolling",
        "--anchor", "2020-01-01", "--format", "csv"],
    "estimate-synth-json-calendar-survey": ["estimate", *SYN_SURVEY, "--theta-max", "20"],
    "estimate-synth-jsonl-json-rolling-survey": [
        "estimate", *SYNJ_SURVEY, "--alignment", "rolling", "--period-months", "3",
        "--anchor", "2021-03-01", "--metric", "active-days"],
    "representativeness-ref": ["representativeness", *REF_SURVEY],
    "representativeness-synth": ["representativeness", *SYN_SURVEY, "--cutoffs", "0,5,9,50"],
}

GOLDEN_SHA256 = {
    "synth": {
        "stdout": "a10b924de9e4699d56b13f1291674efb5d84f78d2588e52aa967ea0e8b49d08a",
        "commits.log": "342b604e8f10c041435ca374364a91592b5876535051c70244d6c3a1b0b4c864",
        "ground_truth.json": "8189dd8d957235cf187c37c7703dd5985cbc5696bfd51dda7c6021ab23f7c0f6",
        "run.json": "034f30acc6989fa483530ac32e0d32d9ade244d2fd485f86c4f8ca5a214e72fa",
        "survey.csv": "fad0eca37b18f71190bbb1bb3fe8a0fd36cdf47ba1036fbddaff7380caee732e",
    },
    "synth-jsonl": {
        "stdout": "45336406e669f9fb79ffb3a0b2e8e9570ebb37b4dd86c0c8e0fda939d09c7240",
        "commits.jsonl": "e434c15acbf5fb31ca29bd4415f594b0a957e1c660b4c73019df907484702d5e",
        "ground_truth.json": "3f47c68d2ad18805b74084688fc3f97ce1031897523903c84957f856b479349a",
        "run.json": "da45a6f7fb7d9c6304b0a50af758a636cd077c1bc2a23191c62f385d725f632f",
        "survey.csv": "2c0adaea717f27febb2fdedfb4f89d554a1e89620b091733f3bc007b4db79d56",
    },
    "calibrate-ref": {
        "stdout": "a06616dd0e93a93ff8eb0f52f59b47d1fe7616b80e40ea4dca148b3dadb40cbc",
        "run.json": "851126cee7cf2dffedc906b3d67b714af485bf5c232453b8f878a390b42a198d",
        "selection.json": "105a56245dd8755c05abb4eec0807bd157dbb8d16cf5ca08590f387d54815d80",
        "sweep.csv": "c26b1c20961a22d146d8122c9a763a97d5afd82b2ba477a15acf19e4fc9e5e62",
    },
    "calibrate-synth": {
        "stdout": "05084b7f4d4148fec9a7f1db696ddd16cbd1168c2f5fb119e91edcd7698310e7",
        "run.json": "5ea50215ab399f5544f573e4ce38c59fd47a83c25c44665efd824bd45468e836",
        "selection.json": "eca319e4a4caf33fa127f3c3d48f8d698b4999c37b176bebe75137300c5040ac",
        "sweep.csv": "0bec3bd90432eb4f0009f889995a9f8129548131bd4da26b746b1bfd1816d38b",
    },
    "calibrate-synth-jsonl": {
        "stdout": "3d2369bf9617ac2e4274c092e92bff632f5d687bec2e334608071ee874cf6e7f",
        "run.json": "7d6357214a9795a52464083b27be55b7acd0da52217c2d92a9c93a10c6e074fa",
        "selection.json": "7e049aa4d796c5ca60e8286abca7c47ee69e807e480f329bf1974b5e9924f04f",
        "sweep.csv": "215e10b2f858bb7109071fe37685699c69b773760485422253ae606d589348d9",
    },
    "estimate-ref-json-rolling-explicit": {
        "stdout": "f6fd77ac8bcffe796b0a1c05585b956efcc016bbb55031c63ebf2c419a8ec8ce",
        "activity.csv": "7b122acf00f1e52188c22c2d3747a753c7092e235eb69c358db3a9dc671746f7",
        "report.json": "8afc5842cd6b4f7fdf09600b936e3eaaa865645bfc3407bd13676a502fb3a8e6",
        "run.json": "527c11ae3952b59736a85b939b568e54d0872c714c0dd9ae290061a32f1815b2",
    },
    "estimate-ref-csv-calendar-survey": {
        "stdout": "04b1dc0e92d2f86fe5675c000073caf51531ce382bb73e4e3a15cec700b982c6",
        "activity.csv": "3d2511e3a7b994c8379cfcd82262a5245ac1eb7b0f869234e8e60d0e42b07e46",
        "report.csv": "b5515116bb571293b76c2fa291fcc0a12bcdb2224ba6c8c89727fe7c72623360",
        "run.json": "5399a6b201f727706668bdbe91ac76966309267fa621d37ea4125d88cfd0fb44",
    },
    "estimate-ref-markdown-rolling-survey": {
        "stdout": "2319e3f77ee9f7e70ff4dc9d5464afa61b14f7ba507c2e58e5e58bfc1f277470",
        "activity.csv": "7b122acf00f1e52188c22c2d3747a753c7092e235eb69c358db3a9dc671746f7",
        "report.md": "4fcecead7c6ae50a3c8f256909726aa54a612df7cc8ab732ed51e9efd447288a",
        "run.json": "86eb32360ffacabca6a90acc06a48c2581b1347f538e3f94cb89b206639479de",
    },
    "estimate-synth-markdown-calendar-explicit": {
        "stdout": "c7b32b20a72b2d7453a11ec49ebc934a2f6d15a3e21897ef5c384dc9f7c7b6c4",
        "activity.csv": "ccee8058947a5d427cd7632642b56235d76736646ed8f1d703e1ab154f27385f",
        "report.md": "4f2a28052fd7ab02c2605926c47b68a9ad207adf10282919f48bc7f9279cd644",
        "run.json": "d7e260a1585c43857968031e2f5f6355a02547391d2669562cbfa91b08ffe781",
    },
    "estimate-synth-csv-rolling-explicit": {
        "stdout": "c7b32b20a72b2d7453a11ec49ebc934a2f6d15a3e21897ef5c384dc9f7c7b6c4",
        "activity.csv": "af1b07e8dd9ee4b13fdbddff4d9071162441eb75a0ff4055daf63b6097d49690",
        "report.csv": "5b02ea3c3eefbffe405e80f1a9f91db5a813388da29df2feaa5ab4e3b09e7719",
        "run.json": "1bddbbf36037ef1465a2eafdfbc66f85a0e26836e5d41408fe3b71f4114643ce",
    },
    "estimate-synth-json-calendar-survey": {
        "stdout": "a8d3b776a0a06e6810ce4c1e9db696186a01cf3ac2efe672b7e181b66dcb9b10",
        "activity.csv": "ccee8058947a5d427cd7632642b56235d76736646ed8f1d703e1ab154f27385f",
        "report.json": "4177536e5d8aa7b8b055504c2cd3a97be7b3aa15c4f0daa34d0ef843d020b76e",
        "run.json": "415b25e37ef876b97f11a360fcd18b02745702fbe7a0b4a5215ffa7bdca6290f",
    },
    "estimate-synth-jsonl-json-rolling-survey": {
        "stdout": "13c48d8241c987bf0fee9f9420b345fa75673ce50ec4ed96ef55fb47ebb46a66",
        "activity.csv": "10f52cf5715d3089cf3b0a9cd90f0368bbc4fd8f51fb3d74900525f6f32650b6",
        "report.json": "722fdc0e49c7d3563c7a5c71c0877dad5efee817508a5513bd745b4fd22a852c",
        "run.json": "a88e0553653c1c4d78adcc691cb33fe24216de4a13194b80291db2b2aed54b2b",
    },
    "representativeness-ref": {
        "stdout": "532ec7cfe70bd5701f8faef149b95d818fb86c9ea6aef39a997a572d7cb58f42",
        "representativeness.csv": "48559418f81082204d9ae46ad13c26c5315943173234a0e66b0c1736f504d4c1",
        "run.json": "642d634b3dd53bbd30a618b1940e5599e19e2e89c9a682d4f5926497c60f9ec4",
    },
    "representativeness-synth": {
        "stdout": "da2cf85a3203c30058a1e745d518c4ff3d71c47124d75341448eef338294e0b7",
        "representativeness.csv": "b4e2ea742ab5d5c3e713c89be0368358c9e3f7148cda12ccc568cb9b0b680538",
        "run.json": "8de2620e16fc0dbcf9a9d9eb747974503e6ecb3ca956837768ea6c59aaf4d387",
    },
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_outputs_match_their_golden_digests(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_reference_inputs(Path("ref"))
    assert main([*SYNTH, "--out", "syn"]) == EXIT_OK
    assert main([*SYNTH_JSONL, "--out", "synj"]) == EXIT_OK
    capsys.readouterr()
    code, stdout, err = run([*GOLDEN_RUNS[name], "--out", "out"], capsys)
    assert (code, err) == (EXIT_OK, "")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(Path("out").iterdir())}
    assert {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(), **digests} == GOLDEN_SHA256[name]


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

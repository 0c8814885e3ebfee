"""CLI relations checked on child runs of ``python -m vcseffort.cli``.

Every command line in ``RUNS`` runs once per module in its own interpreter, with
``PYTHONWARNDEFAULTENCODING=1`` and ``PYTHONWARNINGS=error::EncodingWarning``: a file the
CLI reads or writes without an explicit encoding fails the run. Only a child can set these,
since pytest's own plugins trip the warning.

Each relation is one row of a table, and each row is one test: two files hold the same
bytes, a file has a number of lines, or a file holds a text. A path names a file that a
run wrote, as ``<run>/<file>``, or its standard output, as ``<run>/stdout``. A new check is
one row, plus one entry in ``RUNS`` when it needs a new command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import SYNTH

SRC = Path(__file__).resolve().parents[1] / "src"

X_ESTIMATE = ["--theta", "9", "--metric", "active-days", "--alignment", "rolling",
              "--anchor", "2020-01-01"]
X_CALIBRATE = ["--bots", "default", "--exclude-merges", "--name-merging"]

# Each run writes into --out <run name>, in one work directory. The synth fixtures run
# first: the inputs built from their logs come next, then the runs that read them.
FIXTURE_RUNS = {"s": SYNTH, "sj": [*SYNTH, "--log-format", "jsonl"]}
RUNS = {
    "cm": ["calibrate", "--log", "s/commits.log", "--survey", "s/survey.csv",
           "--theta-max", "20000", "--select", "max"],
    "etm": ["estimate", "--log", "s/commits.log", "--theta", "9", "--theta-max", "40",
            "--format", "markdown"],
    "f": ["estimate", "--config", "run.conf", "--log", "s/commits.log"],
    "ea": ["estimate", "--log", "s/commits.log", "--theta", "9", "--name-merging",
           "--aliases", "aliases.csv"],
    "jr": ["representativeness", "--commits", "sj/commits.jsonl", "--survey", "sj/survey.csv",
           "--metric", "active-days", "--name-merging", "--aliases", "aliases.csv"],
    "xd": ["estimate", "--log", "x.log", *X_ESTIMATE],
    "xdj": ["estimate", "--commits", "x.jsonl", *X_ESTIMATE],
    "xp": ["calibrate", "--log", "x.log", "--survey", "s/survey.csv", *X_CALIBRATE],
    "xj": ["calibrate", "--commits", "x.jsonl", "--survey", "sj/survey.csv", *X_CALIBRATE],
    "z0": ["synth", "--fulltime", "0", "--other", "9", "--theta-true", "4"],
    "z1": ["synth", "--fulltime", "6", "--other", "0", "--theta-true", "1"],
    "z1c": ["calibrate", "--log", "z1/commits.log", "--survey", "z1/survey.csv"],
    "z1e": ["estimate", "--log", "z1/commits.log", "--survey", "z1/survey.csv",
            "--theta-max", "5"],
}

SAME_BYTES = {
    "pipe-and-jsonl-report-by-active-days": ("xd/report.json", "xdj/report.json"),
    "pipe-and-jsonl-activity-by-active-days": ("xd/activity.csv", "xdj/activity.csv"),
    "pipe-and-jsonl-selection-with-filters": ("xp/selection.json", "xj/selection.json"),
    "pipe-and-jsonl-sweep-with-filters": ("xp/sweep.csv", "xj/sweep.csv"),
}

LINE_COUNTS = {
    "sweep-at-theta-max-20000": ("cm/sweep.csv", 20001),
    "markdown-report-at-theta-max-40": ("etm/report.md", 44),
}

HOLDS_TEXT = {
    "config-file-sets-theta-and-format": ("f/report.md", "\n| 9 | 204.00 | 204.00 | -- |\n"),
    "alias-folds-a-developer-into-another": ("ea/activity.csv",
                                             "\ndev00000@synth.example,19s2,22\n"),
    "representativeness-by-active-days-with-aliases": (
        "jr/stdout", "representativeness: 8 cutoffs, 0 insufficient\n"),
    "non-ascii-author-keeps-its-active-days": ("xd/activity.csv",
                                               "\nrenee@example.org,2019-07-01,2\n"),
    "pipe-summary-counts-malformed-bot-merge": ("xp/stdout",
                                                "(1 malformed); excluded 1 bot, 1 merge\n"),
    "jsonl-summary-counts-malformed-bot-merge": ("xj/stdout",
                                                 "(1 malformed); excluded 1 bot, 1 merge\n"),
    "synth-without-full-timers-has-no-separating-range": ("z0/ground_truth.json",
                                                          '"separating_range": null'),
    "calibrate-on-full-time-labels-only": ("z1c/stdout",
                                           "theta range [1,1], selected 1, goodness 1.00\n"),
    "estimate-on-full-time-labels-only": (
        "z1e/stdout", "total effort 36.00 PM (theta 1, upper bound 36.00 PM)\n"),
}

# Appended to the pipe and JSON-lines synth logs: a bot commit, a merge, a malformed line,
# and an author outside the JSON fast path's printable ASCII, as raw UTF-8 and as a \u escape.
X_LOG_TAIL = (
    "cibot0001|ci@bots.org|CI Bot|1577836800|0\n"
    "merge0001|dev00000@synth.example|Synth Dev 00000|1577836801|1\n"
    "not a commit\n"
    "renee0001|renee@example.org|Renée ~[ci]|1577750399|0\n"
    "renee0002|renee@example.org|Renée ~[ci]|1577836799|0\n"
)
X_JSONL_TAIL = (
    '{"author_email": "ci@bots.org", "author_name": "CI Bot", "author_timestamp": 1577836800,'
    ' "hash": "cibot0001", "is_merge": false}\n'
    '{"author_email": "dev00000@synth.example", "author_name": "Synth Dev 00000",'
    ' "author_timestamp": 1577836801, "hash": "merge0001", "is_merge": true}\n'
    "not a commit\n"
    '{"author_email": "renee@example.org", "author_name": "Renée ~[ci]",'
    ' "author_timestamp": 1577750399, "hash": "renee0001", "is_merge": false}\n'
    '{"author_email": "renee@example.org", "author_name": "Ren\\u00e9e ~[ci]",'
    ' "author_timestamp": 1577836799, "hash": "renee0002", "is_merge": false}\n'
)


def run_cli(directory: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m vcseffort.cli argv`` in ``directory``, from this checkout's ``src``, with any
    default-encoding read or write an error."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYTHONWARNDEFAULTENCODING="1",
        PYTHONWARNINGS="error::EncodingWarning",
    )
    return subprocess.run([sys.executable, "-m", "vcseffort.cli", *argv],
                          cwd=directory, env=env, capture_output=True)


def write_inputs(directory: Path) -> None:
    """The alias and config files, and the synth logs with their tails appended."""
    (directory / "aliases.csv").write_text(
        "alias_email_or_name,canonical_email\n"
        "dev00001@synth.example,dev00000@synth.example\n"
        "Synth Dev 00003,dev00002@synth.example\n",
        encoding="utf-8",
    )
    (directory / "run.conf").write_text("theta = 9\nformat = markdown\n", encoding="utf-8")
    for source, tail in (("s/commits.log", X_LOG_TAIL), ("sj/commits.jsonl", X_JSONL_TAIL)):
        data = (directory / source).read_bytes() + tail.encode("utf-8")
        (directory / f"x{Path(source).suffix}").write_bytes(data)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> tuple[Path, dict[str, subprocess.CompletedProcess]]:
    """The work directory after every run, and each run's completed process."""
    directory = tmp_path_factory.mktemp("cli-runs")
    results = {}
    for name, argv in FIXTURE_RUNS.items():
        results[name] = run_cli(directory, [*argv, "--out", name])
        check_exit(name, results[name])
    write_inputs(directory)
    for name, argv in RUNS.items():
        results[name] = run_cli(directory, [*argv, "--out", name])
    return directory, results


def check_exit(name: str, result: subprocess.CompletedProcess) -> None:
    assert (result.returncode, result.stderr) == (0, b""), (
        f"{name}: {result.stderr.decode('utf-8', 'replace')}"
    )


def read(work, path: str) -> bytes:
    """The bytes at ``path``, once the run that wrote them is known to have exited 0."""
    directory, results = work
    run, _, name = path.partition("/")
    check_exit(run, results[run])
    return results[run].stdout if name == "stdout" else (directory / path).read_bytes()


@pytest.mark.parametrize("left, right", SAME_BYTES.values(), ids=SAME_BYTES)
def test_same_bytes(work, left, right):
    assert read(work, left) == read(work, right)


@pytest.mark.parametrize("path, lines", LINE_COUNTS.values(), ids=LINE_COUNTS)
def test_line_count(work, path, lines):
    assert read(work, path).count(b"\n") == lines


@pytest.mark.parametrize("path, text", HOLDS_TEXT.values(), ids=HOLDS_TEXT)
def test_holds_text(work, path, text):
    assert text in read(work, path).decode("utf-8")

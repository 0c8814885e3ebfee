"""Seeded input mutation through ``main()``: every run ends in a result or one ``error:`` line."""

from __future__ import annotations

import random
import re
from collections import Counter
from pathlib import Path

from conftest import write_reference_inputs
from vcseffort.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from vcseffort.ingest import parse_log_file, to_jsonl_line

ALIASES = (
    b"alias_email_or_name,canonical_email\nDev 2,d1@example.org\nd4@example.org,d8@example.org\n"
)
BOTS = b"# bot patterns\n\\bbot\\b\njenkins\nDev 7\n"
CONFIG = (
    b"# shared settings\ntheta-max = 13\nperiod-months = 1\nalignment = rolling\n"
    b"anchor = 2013-02-01\nexclude-merges = yes\n"
)
COMMANDS = ("calibrate", "estimate", "representativeness")


def _flip_bits(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        position = rng.randrange(len(out))
        out[position] ^= 1 << rng.randrange(8)
    return bytes(out)


def _insert(rng: random.Random, data: bytes, piece: bytes, times: int) -> bytes:
    for _ in range(times):
        position = rng.randrange(len(data) + 1)
        data = data[:position] + piece + data[position:]
    return data


def _truncate(rng: random.Random, data: bytes) -> bytes:
    return data[: rng.randrange(len(data))]


def _nuls(rng: random.Random, data: bytes) -> bytes:
    return _insert(rng, data, b"\x00", rng.randint(1, 3))


def _stray_cr(rng: random.Random, data: bytes) -> bytes:
    return _insert(rng, data, b"\r", rng.randint(1, 3))


def _huge_integer(rng: random.Random, data: bytes) -> bytes:
    runs = list(re.finditer(rb"\d+", data))
    if not runs:
        return data + b"9" * 400
    run = rng.choice(runs)
    huge = rng.choice([b"1" + b"0" * 400, b"9" * rng.randint(20, 400), b"-" + b"9" * 30])
    return data[: run.start()] + huge + data[run.end():]


def _bom_mid_file(rng: random.Random, data: bytes) -> bytes:
    position = rng.choice([match.end() for match in re.finditer(rb"\n", data)] or [0])
    return data[:position] + b"\xef\xbb\xbf" + data[position:]


def _repeated_prefix(rng: random.Random, data: bytes) -> bytes:
    prefix = data[: rng.randrange(1, len(data) + 1)]
    return prefix * rng.randint(2, 4) + data


MUTATORS = (_flip_bits, _truncate, _nuls, _stray_cr, _huge_integer, _bom_mid_file, _repeated_prefix)


def test_mutated_inputs_never_raise(tmp_path, capsys, monkeypatch):
    """About 300 runs: exit 0, 1 or 2, and stderr is empty or one ``error:`` line."""
    reference = write_reference_inputs(tmp_path / "reference")
    records = parse_log_file(str(reference["log"])).records
    originals = {
        "commits.log": reference["log"].read_bytes(),
        "commits.jsonl": "".join(to_jsonl_line(record) + "\n" for record in records).encode("utf-8"),
        "survey.csv": reference["survey"].read_bytes(),
        "aliases.csv": ALIASES,
        "bots.txt": BOTS,
        "config.txt": CONFIG,
    }
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20130201)
    codes = Counter()
    for run in range(306):
        # The first runs mutate nothing: the unmutated inputs must give a result.
        command = COMMANDS[run % 3]
        source = ("--log", "commits.log") if run % 2 else ("--commits", "commits.jsonl")
        inputs = dict(originals)
        if run >= 6:
            target = rng.choice(sorted(inputs))
            inputs[target] = rng.choice(MUTATORS)(rng, inputs[target])
        for name, data in inputs.items():
            Path(name).write_bytes(data)
        argv = [
            command, *source, "--survey", "survey.csv", "--config", "config.txt",
            "--aliases", "aliases.csv", "--bots", "bots.txt", "--name-merging",
            "--out", f"out{run % 2}",
        ]
        code = main(argv)
        stderr = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_IO, EXIT_CONFIG), (run, argv)
        assert "Traceback" not in stderr, run
        if run < 6:
            assert (code, stderr) == (EXIT_OK, ""), run
        one_error_line = stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stderr == "" or one_error_line, (run, stderr)
        assert (code == EXIT_OK) == (stderr == ""), (run, stderr)
        codes[code] += 1
    # The mutations reach every outcome, not only one kind of error.
    assert set(codes) == {EXIT_OK, EXIT_IO, EXIT_CONFIG}, codes

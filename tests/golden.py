"""Golden runs: 14 CLI command lines and the SHA-256 of every output they write.

The runs read the frozen reference population (written by ``write_reference_inputs``)
and two synth fixtures, all under the working directory and named by relative paths,
so ``run.json["config"]`` is the same wherever they run. The module needs only the
standard library and this checkout's ``src``; ``test_outputs_match_their_golden_digests``
imports it, and it also runs as a script under any supported interpreter:

    python tests/golden.py

which exits 0 when every digest matches, or 1 after naming the first run and file that
differ. As a script it then also runs
``test_pipeline.test_every_command_matches_the_reference_model``, with a temporary
directory and a stand-in for pytest's ``capsys``; a failing assertion there ends it with
a traceback.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from datetime import date
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vcseffort.activity import date_to_epoch  # noqa: E402
from vcseffort.cli import main  # noqa: E402
from vcseffort.survey import SURVEY_HEADER  # noqa: E402

REFERENCE_ACTIVITIES = {
    "d1@example.org": 12,
    "d2@example.org": 10,
    "d3@example.org": 13,
    "d4@example.org": 3,
    "d5@example.org": 11,
    "d6@example.org": 8,
    "d7@example.org": 10,
    "d8@example.org": 5,
}

REFERENCE_FULL_TIME = {
    "d1@example.org",
    "d2@example.org",
    "d3@example.org",
    "d7@example.org",
}

REFERENCE_ANCHOR = date(2013, 2, 1)


def write_reference_inputs(directory: Path) -> dict[str, Path]:
    """Materialize the reference population as a commit log and survey CSV.

    All commits land in January 2013; the survey is dated 2013-02-01, so a
    one-month window anchored there reproduces the activity counts exactly.
    """
    directory.mkdir(parents=True, exist_ok=True)
    start = date_to_epoch(date(2013, 1, 1))
    span = date_to_epoch(REFERENCE_ANCHOR) - start
    lines = []
    for index, (email, count) in enumerate(sorted(REFERENCE_ACTIVITIES.items()), start=1):
        name = f"Dev {index}"
        for k in range(count):
            timestamp = start + ((2 * k + 1) * span) // (2 * count)
            lines.append(f"ref{index:02d}x{k:03d}|{email}|{name}|{timestamp}|0")
    log_path = directory / "commits.log"
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    survey_rows = [",".join(SURVEY_HEADER)]
    for email in sorted(REFERENCE_ACTIVITIES):
        self_class = "full" if email in REFERENCE_FULL_TIME else "part"
        survey_rows.append(f"{email},{self_class},,{REFERENCE_ANCHOR.isoformat()},")
    survey_path = directory / "survey.csv"
    survey_path.write_text("\n".join(survey_rows) + "\n", encoding="utf-8")
    return {"log": log_path, "survey": survey_path}


SYNTH = ["synth", "--seed", "7", "--fulltime", "12", "--other", "120", "--theta-true", "9"]
SYNTH_JSONL = ["synth", "--seed", "11", "--fulltime", "5", "--other", "40", "--theta-true", "6",
               "--label-noise", "0.1", "--anchor", "2021-03-01", "--log-format", "jsonl"]
REFERENCE_ARGS = ["--period-months", "1", "--anchor", "2013-02-01"]
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


def write_golden_inputs() -> None:
    """Write the inputs every golden run reads into the working directory."""
    write_reference_inputs(Path("ref"))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in ([*SYNTH, "--out", "syn"], [*SYNTH_JSONL, "--out", "synj"]):
            if main(argv) != 0:
                raise RuntimeError(f"cannot write golden inputs: {' '.join(argv)}")


def golden_run(name: str) -> tuple[int, str, dict[str, str]]:
    """Run ``name`` in the working directory, writing into ``out``: its exit code, its
    stderr, and the SHA-256 of its stdout and of each file it wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*GOLDEN_RUNS[name], "--out", "out"])
    digests = {"stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    for path in sorted(Path("out").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return code, stderr.getvalue(), digests


def first_difference(name: str) -> str | None:
    """Run ``name`` in a fresh ``out`` and say how it differs from its golden digests."""
    shutil.rmtree("out", ignore_errors=True)
    code, err, digests = golden_run(name)
    if (code, err) != (0, ""):
        return f"{name}: exit code {code}, stderr {err!r}"
    expected = GOLDEN_SHA256[name]
    for file in sorted(expected.keys() | digests.keys()):
        if digests.get(file) != expected.get(file):
            return f"{name}: {file} differs"
    return None


def check_all() -> int:
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            write_golden_inputs()
            for name in GOLDEN_RUNS:
                difference = first_difference(name)
                if difference is not None:
                    print(difference)
                    return 1
        finally:
            os.chdir(cwd)
    print(f"{len(GOLDEN_RUNS)} golden runs match on Python {sys.version.split()[0]}")
    return 0


class _Capture:
    """pytest's ``capsys`` for one test: ``readouterr`` returns and clears what the
    redirected streams caught."""

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self) -> tuple[str, str]:
        captured = self.out.getvalue(), self.err.getvalue()
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


def check_pipeline() -> None:
    """Run the pipeline's differential test. It is imported here, so that importing this
    module loads neither it nor the reference model."""
    from test_pipeline import test_every_command_matches_the_reference_model

    capture = _Capture()
    with tempfile.TemporaryDirectory() as directory:
        with contextlib.redirect_stdout(capture.out), contextlib.redirect_stderr(capture.err):
            test_every_command_matches_the_reference_model(Path(directory), capture)
    print(f"the pipeline test passes on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    code = check_all()
    if code == 0:
        check_pipeline()
    sys.exit(code)

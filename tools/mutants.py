"""Seeded one-edit mutants of the package, each run against the checks that should kill it.

From the repository root::

    python tools/mutants.py [--seed N] [--sample K] [MODULE ...] [--tests NODEID ...]

MODULE names a file of ``src/vcseffort``, such as ``ingest``; by default every module
that has a ``tests/test_MODULE*.py`` file. Each mutant makes one edit:

- flip a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and
  ``not in``, ``is`` and ``is not``;
- move an integer constant by +1 or -1;
- swap ``and`` with ``or``, ``min`` with ``max``, or ``bisect_left`` with
  ``bisect_right``;
- drop a ``continue`` (it becomes ``pass``).

The edit keeps every other line where it was. Mutants are made in a temporary copy of
the repository without ``.git``, never in the checkout. ``--sample`` draws K
mutants per module with ``random.Random(seed)``; 0 takes all of them. A mutant is killed
when ``python tests/golden.py`` fails, or pytest fails over the module's test files,
``tests/test_pipeline.py`` and ``perfbench/test_perfbench.py``, or either runs longer than
three times the unmutated run plus 10 s. With ``--tests``, pytest runs only the given node ids, and the golden
script does not run. The report gives each module's kill rate and lists the survivors.
The tool uses the standard library only and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("compare", "constant", "boolop", "swap", "continue")
_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPS = {"min": "max", "max": "min", "bisect_left": "bisect_right", "bisect_right": "bisect_left"}


class Mutant(NamedTuple):
    kind: str
    line: int
    description: str
    source: str  # the whole mutated module


def _edits(tree: ast.AST):
    """(kind, node, replacement node or text) for each place an edit can go. Nothing
    inside an f-string is edited: before Python 3.12 its positions are not reliable."""
    in_fstring = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flipped = copy.copy(node)
                flipped.ops = [*node.ops[:i], _FLIPS[type(op)](), *node.ops[i + 1:]]
                yield "compare", node, flipped
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield "constant", node, ast.Constant(node.value + step)
        elif isinstance(node, ast.BoolOp):
            swapped = copy.copy(node)
            swapped.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            yield "boolop", node, swapped
        elif isinstance(node, ast.Name) and node.id in _SWAPS:
            yield "swap", node, _SWAPS[node.id]
        elif isinstance(node, ast.Attribute) and node.attr in _SWAPS:
            yield "swap", node, f"{ast.unparse(node.value)}.{_SWAPS[node.attr]}"
        elif isinstance(node, ast.Continue):
            yield "continue", node, "pass"


def mutants(source: str, name: str = "<source>") -> list[Mutant]:
    """Every one-edit mutant of ``source``, in source order."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for kind, node, replacement in _edits(ast.parse(source)):
        # Positions are UTF-8 byte offsets. An expression is replaced in parentheses,
        # with its line breaks kept, so no other line moves.
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        if isinstance(replacement, ast.AST):
            replacement = f"({ast.unparse(replacement)}{chr(10) * (node.end_lineno - node.lineno)})"
        original = " ".join(data[begin:end].decode("utf-8").split())
        shown = " ".join(replacement.split())
        text = (data[:begin] + replacement.encode("utf-8") + data[end:]).decode("utf-8")
        found.append((node.lineno, node.col_offset, Mutant(
            kind, node.lineno, f"{name}:{node.lineno} {kind}: {original} -> {shown}", text
        )))
    return [mutant for *_, mutant in sorted(found, key=lambda item: item[:2])]


def _fails(command: list[str], cwd: Path, timeout: float) -> bool:
    """True when ``command`` exits non-zero or runs past ``timeout`` seconds; then its
    whole process group is killed, CLI children included."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return child.wait(timeout) != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def _checks(module: str, tests: list[str] | None) -> list[list[str]]:
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    if tests:
        return [pytest + tests]
    files = sorted(str(path.relative_to(ROOT)) for path in ROOT.glob(f"tests/test_{module}*.py"))
    shared = ["tests/test_pipeline.py", "perfbench/test_perfbench.py"]
    return [[sys.executable, "tests/golden.py"], pytest + files + shared]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module names under src/vcseffort")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=20, help="mutants per module; 0 for all")
    parser.add_argument("--tests", nargs="+", help="pytest node ids to run in place of the checks")
    args = parser.parse_args(argv)
    package = ROOT / "src" / "vcseffort"
    modules = args.modules or sorted(
        path.stem for path in package.glob("*.py") if any(ROOT.glob(f"tests/test_{path.stem}*.py"))
    )
    report = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        work = Path(work) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache"))
        for module in modules:
            target = work / "src" / "vcseffort" / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            chosen = mutants(original, f"{module}.py")
            if 0 < args.sample < len(chosen):
                chosen = random.Random(args.seed).sample(chosen, args.sample)
                chosen.sort(key=lambda mutant: mutant.line)
            checks = _checks(module, args.tests)
            started = time.monotonic()
            if any(_fails(check, work, 3600) for check in checks):
                print(f"{module}: the checks fail without a mutant", file=sys.stderr)
                return 2
            timeout = 3 * (time.monotonic() - started) + 10
            survivors = []
            for mutant in chosen:
                target.write_text(mutant.source, encoding="utf-8")
                killed = any(_fails(check, work, timeout) for check in checks)
                print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.description}", flush=True)
                if not killed:
                    survivors.append(mutant)
            target.write_text(original, encoding="utf-8")
            report.append((module, len(chosen) - len(survivors), len(chosen), survivors))
    print()
    for module, killed, total, survivors in report:
        print(f"{module}: {killed}/{total} killed")
        for mutant in survivors:
            print(f"  survived {mutant.description}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The mutation tool's edits: every kind is made, and every mutant compiles."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = '''\
import bisect
from bisect import bisect_left


def f(xs, x):
    """Nöthing here is edited: 1 < 2."""
    for y in xs:
        if (y < 0 and
                x is not None):
            continue
    label = f"{x > 1}"
    return min(bisect_left(xs, x), bisect.bisect_right(xs, 2)) == 1 or label
'''


def test_every_mutant_kind_is_made_on_a_small_source_and_compiles():
    found = mutants.mutants(SOURCE, "small.py")
    assert {mutant.kind for mutant in found} == set(mutants.KINDS)
    for mutant in found:
        compile(mutant.source, mutant.description, "exec")
        assert mutant.source != SOURCE
        assert len(mutant.source.splitlines()) == len(SOURCE.splitlines()), mutant.description
    assert [mutant.description for mutant in found] == [
        "small.py:8 boolop: y < 0 and x is not None -> (y < 0 or x is not None )",
        "small.py:8 compare: y < 0 -> (y <= 0)",
        "small.py:8 constant: 0 -> (1)",
        "small.py:8 constant: 0 -> (-1)",
        "small.py:9 compare: x is not None -> (x is None)",
        "small.py:10 continue: continue -> pass",
        "small.py:12 boolop: min(bisect_left(xs, x), bisect.bisect_right(xs, 2)) == 1 or label"
        " -> (min(bisect_left(xs, x), bisect.bisect_right(xs, 2)) == 1 and label)",
        "small.py:12 compare: min(bisect_left(xs, x), bisect.bisect_right(xs, 2)) == 1"
        " -> (min(bisect_left(xs, x), bisect.bisect_right(xs, 2)) != 1)",
        "small.py:12 swap: min -> max",
        "small.py:12 swap: bisect_left -> bisect_right",
        "small.py:12 swap: bisect.bisect_right -> bisect.bisect_left",
        "small.py:12 constant: 2 -> (3)",
        "small.py:12 constant: 2 -> (1)",
        "small.py:12 constant: 1 -> (2)",
        "small.py:12 constant: 1 -> (0)",
    ]

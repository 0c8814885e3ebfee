"""Where the package touches the outside: one file reader, one file writer, one printer."""

from __future__ import annotations

import ast
from pathlib import Path

import vcseffort

PACKAGE = Path(vcseffort.__file__).parent

# Call -> the only places that may make it: "module.function", or "module" for anywhere in it.
ALLOWED = {
    "open": {"ingest.open_input"},
    "write_text": {"cli._write_outputs"},
    "write_bytes": {"cli._write_outputs"},
    "mkdir": {"cli._write_outputs"},
    "json.dump": {"cli._write_outputs"},
    "print": {"cli"},
}


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "json":
            return f"json.{func.attr}"
        return func.attr  # any receiver: path.mkdir(), Path(...).open(), io.open()
    return None


def _call_sites() -> set[tuple[str, str]]:
    """(called name, module.function) for every call in the package; the function is the
    outermost one around the call, or absent at module level."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            where = module
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where = f"{module}.{node.name}"
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and (name := _called_name(call.func)):
                    sites.add((name, where))
    return sites


def test_files_are_opened_written_and_printed_in_one_place_each():
    sites = _call_sites()
    stray = sorted(
        f"{name}() in {where}"
        for name, where in sites
        if name in ALLOWED and not {where, where.partition(".")[0]} & ALLOWED[name]
    )
    assert stray == []
    # The walk sees the allowed places, so an empty list above means something.
    assert {("open", "ingest.open_input"), ("mkdir", "cli._write_outputs"),
            ("write_text", "cli._write_outputs"), ("print", "cli.main")} <= sites

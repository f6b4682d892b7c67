"""Every top-level function and class of src/spinrest has a caller in src/.

A definition counts as called when some other top-level statement of a
package module names it: as a loaded Name, as `module.name` on a module
imported from the package, or as a name imported from a package module.
The re-exports of __init__.py do not count, since a name that only the
package namespace lists has no caller.  The suite registrations (@_suite)
and the console entry point cli.main are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinrest"
ENTRY_POINTS = {("cli", "main")}


def _uses(stmt: ast.stmt, module_aliases: set[str]) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in module_aliases:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            used.update(alias.name for alias in node.names)
    return used


def _is_suite(stmt: ast.stmt) -> bool:
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "_suite"
        for dec in stmt.decorator_list
    )


def uncalled(modules: dict[str, ast.Module]) -> list[str]:
    """'module.name' of each top-level def or class that no other top-level
    statement of the given modules uses."""
    uses = []  # (statement, names it uses)
    for tree in modules.values():
        aliases = {
            alias.asname or alias.name
            for stmt in tree.body
            if isinstance(stmt, ast.ImportFrom) and stmt.level and stmt.module is None
            for alias in stmt.names
        }
        uses += [(stmt, _uses(stmt, aliases)) for stmt in tree.body]
    out = []
    for mod, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _is_suite(stmt) or (mod, stmt.name) in ENTRY_POINTS:
                continue
            if not any(other is not stmt and stmt.name in names for other, names in uses):
                out.append(f"{mod}.{stmt.name}")
    return out


def test_every_definition_in_src_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    del modules["__init__"]
    assert uncalled(modules) == []


def test_uncalled_flags_what_only_itself_or_a_field_names():
    """Recursion, a dataclass field and an attribute on a non-module value do
    not count as callers; a Name, `module.name` and an import do, and a suite
    registration and cli.main need none."""
    modules = {
        "a": ast.parse(
            "def rec(n):\n    return rec(n - 1)\n"
            "def phi():\n    pass\n"
            "class Row:\n    phi: int\n"
            "def show(row):\n    return row.phi\n"
            "def used():\n    pass\n"
            "def imported():\n    pass\n"
            "def dotted():\n    pass\n"
        ),
        "cli": ast.parse(
            "from . import a as aa\nfrom .a import imported\n"
            "@_suite('x')\ndef check():\n    pass\n"
            "def main():\n    return used, aa.dotted, Row, show\n"
        ),
    }
    assert uncalled(modules) == ["a.rec", "a.phi"]

"""tests/oracles.py shares no code with the elimination it checks: it
imports nothing from spinrest.gfp, neither the module nor, through another
package module, any name that gfp defines."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GFP = TESTS.parent / "src" / "spinrest" / "gfp.py"


def _defined(tree: ast.Module) -> set[str]:
    """The names a module defines at top level."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def gfp_uses(tree: ast.Module, gfp_names: set[str]) -> list[str]:
    """Every import of spinrest.gfp or of a name gfp defines from a spinrest
    module, and every attribute access `.gfp`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[:2] == ["spinrest", "gfp"]]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "spinrest"):
            module = "." * node.level + (node.module or "")
            if module.split(".")[-1] == "gfp":
                found += [f"{module}.{alias.name}" for alias in node.names]
            else:
                found += [f"{module}.{alias.name}" for alias in node.names if alias.name == "gfp" or alias.name in gfp_names]
        elif isinstance(node, ast.Attribute) and node.attr == "gfp":
            found.append(f"<attribute>.gfp, line {node.lineno}")
    return found


def test_oracles_import_nothing_from_gfp():
    gfp_names = _defined(ast.parse(GFP.read_text(), str(GFP)))
    assert {"rank", "kernel", "matmul_mod", "Subspace", "_echelon"} <= gfp_names
    path = TESTS / "oracles.py"
    assert gfp_uses(ast.parse(path.read_text(), str(path)), gfp_names) == []


def test_gfp_uses_flags_every_form():
    """The module imported whole, from its package, by name, through another
    package module, and reached as an attribute; other spinrest names and
    numpy's own linear algebra are not flagged."""
    tree = ast.parse(
        "import spinrest.gfp\n"
        "import spinrest.gfp as g\n"
        "from spinrest import gfp\n"
        "from spinrest.gfp import rank\n"
        "from spinrest.specht import kernel, perm_basis\n"
        "import spinrest\n"
        "x = spinrest.gfp.rank\n"
        "import numpy.linalg\n"
        "from spinrest.specht import generators\n"
    )
    assert gfp_uses(tree, {"rank", "kernel"}) == [
        "spinrest.gfp",
        "spinrest.gfp",
        "spinrest.gfp",
        "spinrest.gfp.rank",
        "spinrest.specht.kernel",
        "<attribute>.gfp, line 7",
    ]

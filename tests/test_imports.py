"""Every name a package module imports at module level is referenced in that
module or listed in its __all__, unless the import carries `# noqa: F401`.
No linter ships with the project, so this AST scan stands in for the unused
import check (pyflakes F401)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msgeom"


def unused_imports(source, filename="<source>"):
    """(line, name) of each module-level import never referenced."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from sys import argv  # noqa: F401\n"
        "from . import helpers as h\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    return os.path.join(h.x, str(pi))\n"
    )
    assert unused_imports(source) == [(2, "json")]


def test_no_unused_module_level_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)

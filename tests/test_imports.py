"""Every name a package module imports at module level is referenced in that
module or listed in its __all__, unless the import carries `# noqa: F401`,
and every local name a package function assigns is read somewhere in that
function (`_` is exempt).  No linter ships with the project, so these AST
scans stand in for the unused import and unused variable checks (pyflakes
F401 and F841)."""

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


def _scope_nodes(fn):
    """The nodes of a function's own scope: nested functions, lambdas and
    classes are left out (their loads still count for the outer scope)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def dead_stores(source, filename="<source>"):
    """(line, function, name) of each local name a function assigns (or binds
    with `except ... as`) and never reads, nested functions included."""
    tree = ast.parse(source, filename)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(name for node in ast.walk(fn)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names)
        stored = {}
        for node in _scope_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
        found += [(line, fn.name, name) for name, line in stored.items()
                  if name != "_" and name not in read]
    return sorted(found)


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


def test_dead_store_scan_flags_only_unread_locals():
    source = (
        "def f(xs):\n"
        "    total, w = 0, 1\n"
        "    for i, x in enumerate(xs):\n"
        "        total += x\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as err:\n"
        "        pass\n"
        "    def g():\n"
        "        unused = total\n"
        "    _ = g\n"
        "    return [y for y in xs]\n"
    )
    assert dead_stores(source) == [(2, "f", "w"), (3, "f", "i"), (7, "f", "err"),
                                   (10, "g", "unused")]


def test_no_dead_stores():
    found = [
        f"{path.name}:{line}: {name} in {fn}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, fn, name in dead_stores(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, "locals assigned and never read:\n" + "\n".join(found)

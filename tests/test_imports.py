"""Every name a package module imports at module level is referenced in that
module or listed in its __all__, unless the import carries `# noqa: F401`,
and every local name a package function assigns is read somewhere in that
function (`_` is exempt), and every defaulted parameter of a package
function, method or constructor is passed by some call in the package, the
tests or the benchmark (whose sources are parsed, never imported).  No
linter ships with the project, so these AST scans stand in for the unused
import and unused variable checks (pyflakes F401 and F841) and for a
dead-parameter check.  Every private package name a test imports or
reaches through a package module is read somewhere in the package, so no
test keeps a dead private helper alive.  No package module imports scipy,
whose kd-tree and special functions alone cost a fresh process half a
second; the tests use it as an oracle only.  Nor do the point-cloud
commands load the standard library's statistics: only a stratum's normal
quantile imports it.
Outside `geometry.pairwise_distances`, no package code takes the norm of a
difference of two None-broadcast arrays, so pairwise distances have one
kernel; and no field of `harmonic` sums a squared norm but by
`geometry.sum_last`, so squared norms have one kernel too.  `geometry` and
`moments` subscript no transpose (`X.T[...]`): their per-item gathers read
contiguous coordinate-major arrays."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msgeom"
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


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


def _defaulted(fn, is_method):
    """{name: position} of a function's defaulted parameters; keyword-only
    ones get position None, and a method's positions skip self or cls."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method else 0
    out = {a.arg: i - skip
           for i, a in enumerate(positional)
           if i >= len(positional) - len(fn.args.defaults)}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None})
    return out


def _calls(tree):
    """(call, name) of each call in the tree: f(...) and obj.f(...) are
    named f, and cls(...) inside a class body is named after that class."""
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            owner.update({id(node): cls.name for node in ast.walk(cls)})
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield call, owner.get(id(call)) if name == "cls" else name


def unpassed_defaults(package_sources, caller_sources):
    """(function, parameter) of each defaulted parameter of a package
    function, method or constructor that no call in the package or caller
    sources passes, by position or by keyword.  Calls are matched by name,
    as f(...) or obj.f(...); a constructor is called by its class name and a
    method is reported as Class.method.  A call with *args or **kwargs
    counts as passing everything.  Dunders other than __init__ are left
    out."""
    defined = {}   # call name -> [(reported name, {parameter: position})]
    for source in package_sources:
        tree = ast.parse(source)
        owners = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("__") and fn.name != "__init__"):
                continue
            cls = owners.get(id(fn))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            params = _defaulted(fn, cls is not None and not static)
            if params:
                call_name = cls.name if fn.name == "__init__" else fn.name
                reported = fn.name if cls is None else f"{cls.name}.{fn.name}"
                defined.setdefault(call_name, []).append((reported, params))
    unpassed = {(reported, p) for defs in defined.values()
                for reported, params in defs for p in params}
    for source in list(package_sources) + list(caller_sources):
        for call, name in _calls(ast.parse(source)):
            starred = (any(isinstance(a, ast.Starred) for a in call.args)
                       or any(kw.arg is None for kw in call.keywords))
            keywords = {kw.arg for kw in call.keywords}
            for reported, params in defined.get(name, ()):
                unpassed -= {(reported, p) for p, i in params.items()
                             if starred or p in keywords
                             or (i is not None and i < len(call.args))}
    return sorted(unpassed)


def test_dead_parameter_scan_flags_only_unpassed_defaults():
    package = (
        "def _f(a, b=1, c=2, *, d=3):\n"
        "    return _g(a) + _h(*a)\n"
        "def _g(a, e=4):\n"
        "    return a\n"
        "def _h(a, e=4):\n"
        "    return a\n"
        "def public(a, b=1):\n"
        "    return a\n"
        "def used(a, b=1):\n"
        "    return a\n"
        "class C:\n"
        "    def _m(self, x=0, y=1):\n"
        "        return x\n"
        "    def __init__(self, z=0, w=1):\n"
        "        self._m(5)\n"
        "    def __eq__(self, other=None):\n"
        "        return True\n"
        "    @classmethod\n"
        "    def make(cls, v=0):\n"
        "        return cls(1)\n"
        "    @staticmethod\n"
        "    def s(a=0):\n"
        "        return a\n"
        "class D:\n"
        "    def __init__(self, q=0):\n"
        "        pass\n"
    )
    callers = "_f(1, 2)\n_f(0, d=1)\nused(1, b=2)\nobj.make(v=1)\nC.s(3)\nm.D()\n"
    assert unpassed_defaults([package], [callers]) == [
        ("C.__init__", "w"), ("C._m", "y"), ("D.__init__", "q"), ("_f", "c"),
        ("_g", "e"), ("public", "b")]


def test_no_unpassed_defaults():
    read = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    callers = [path.read_text(encoding="utf-8")
               for path in sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py"))]
    found = [f"{fn}({param})" for fn, param in unpassed_defaults(read, callers)]
    assert not found, "defaults no call passes:\n" + "\n".join(found)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dotted(node):
    """'a.b.c' for a chain of Name and Attribute nodes, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def private_reaches(source, modules, filename="<source>"):
    """(line, name) of each private name of a package module that the source
    imports (`from msgeom.m import _name`) or reaches through a package
    module (`m._name`, `msgeom.m._name`, `setattr(m, "_name", ...)`).
    `modules` holds the package's module names; dunders are left out."""
    tree = ast.parse(source, filename)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "msgeom":
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module == "msgeom" and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "msgeom")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and _dotted(node.value) in aliases):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and _dotted(node.args[0]) in aliases and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str) and _private(node.args[1].value)):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def read_names(sources):
    """Every name the sources read, as a Name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_private_reach_scan_flags_every_form():
    source = (
        "import msgeom.harmonic\n"
        "import msgeom.geometry as g\n"
        "from msgeom import moments, covering as cov, AtomicMeasure\n"
        "from msgeom.cli import _check, main\n"
        "monkeypatch.setattr(moments, '_budget', 1)\n"
        "monkeypatch.setattr(moments, 'ball_sums', f)\n"
        "x = msgeom.harmonic._rule(3) + g._kernel + cov._walk + moments.__name__\n"
        "y = AtomicMeasure._index + other._hidden\n"
    )
    modules = {"harmonic", "geometry", "moments", "covering", "cli"}
    assert private_reaches(source, modules) == [(4, "_check"), (5, "_budget"), (7, "_kernel"),
                                                (7, "_rule"), (7, "_walk")]
    assert read_names(["def _walk(a):\n    return _kernel(a.x)\n_rule = 1\n"]) == {
        "_kernel", "a", "x"}


def test_tests_reach_no_dead_private_names():
    package = sorted(PACKAGE.glob("*.py"))
    read = read_names(path.read_text(encoding="utf-8") for path in package)
    modules = {path.stem for path in package}
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(TESTS.glob("*.py"))
        for line, name in private_reaches(path.read_text(encoding="utf-8"), modules, str(path))
        if name not in read
    ]
    assert not found, "private names only tests use:\n" + "\n".join(found)


def scipy_imports(source, filename="<source>"):
    """Line of each import of scipy (or a submodule), at any depth."""
    def scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import) and any(scipy(a.name) for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and scipy(node.module):
            found.append(node.lineno)
    return sorted(found)


def test_scipy_scan_flags_every_form():
    source = (
        "import numpy.linalg\n"
        "import scipy.special\n"
        "from scipy import special, stats\n"
        "from scipy.stats.qmc import Halton\n"
        "from scipyx import y\n"
        "import scipy_like, os\n"
        "def f():\n"
        "    import os, scipy as sp\n"
        "    from scipy.spatial import cKDTree\n"
        "    return sp, cKDTree\n"
        "from .scipy import z\n"
    )
    assert scipy_imports(source) == [2, 3, 4, 8, 9]


def test_package_never_imports_scipy():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in scipy_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, "scipy imported at:\n" + "\n".join(found)


def _command_runs(tmp_path):
    """Every command on a tiny input, by name, each writing its report
    under tmp_path."""
    from msgeom.fixtures import dyadic_segment_family, plane_cloud

    def cloud(name, mu):
        path = tmp_path / name
        path.write_text("".join(",".join(f"{v:.17g}" for v in (*p, w)) + "\n"
                                for p, w in zip(mu.positions, mu.weights)))
        return str(path)

    centers, radii = dyadic_segment_family(levels=3)
    balls = tmp_path / "balls.csv"
    balls.write_text("".join(f"{c[0]:.17g},{c[1]:.17g},{r:.17g}\n"
                             for c, r in zip(centers, radii)))
    line, flat = cloud("line.csv", plane_cloud(2, 1, count=100, seed=2)), \
        cloud("flat.csv", plane_cloud(3, 2, count=200, seed=3))
    runs = [
        ["beta", "--input", line, "--dim", "2", "--k", "1"],
        ["fit-plane", "--input", flat, "--dim", "3", "--k", "2"],
        ["reconstruct", "--input", line, "--dim", "2", "--k", "1", "--scales", "2"],
        ["pack", "--input", str(balls), "--dim", "2", "--k", "1"],
        ["stratify", "--fixture", "radial_projection", "--dim", "3", "--k", "0",
         "--grid-step", "0.5", "--r-min", "0.25"],
    ]
    return {argv[0]: argv + ["--output", str(tmp_path / f"report{i}.json")]
            for i, argv in enumerate(runs)}


def _fresh_run(runs, package):
    """The exit statuses of the CLI runs, made in turn in one fresh
    interpreter after `import msgeom.cli`, then the sorted names of the
    modules of `package` loaded there, as printed words."""
    code = (
        "import sys\n"
        "from msgeom.cli import main\n"
        f"status = [main(argv) for argv in {runs!r}]\n"
        f"print(*status, sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.split()


def test_commands_leave_scipy_unloaded(tmp_path):
    runs = list(_command_runs(tmp_path).values())
    assert _fresh_run(runs, "scipy") == ["0"] * len(runs) + ["[]"]


def test_point_cloud_commands_leave_statistics_unloaded(tmp_path):
    # only a stratum's normal quantile imports statistics, inside the call
    runs = [argv for name, argv in _command_runs(tmp_path).items() if name != "stratify"]
    assert _fresh_run(runs, "statistics") == ["0"] * len(runs) + ["[]"]


def _broadcast(node):
    """Whether node is a subscript with a None in its index, as a[:, None]."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(i, ast.Constant) and i.value is None for i in index)


def broadcast_norms(source, filename="<source>"):
    """Line of each `*.linalg.norm(x[..., None, ...] - y[None, ...], ...)`,
    a pairwise distance table built through a 3-D difference array, outside
    a function named pairwise_distances."""
    tree = ast.parse(source, filename)
    kernel = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "pairwise_distances"
              for node in ast.walk(fn)}
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in kernel or not call.args:
            continue
        func, arg = call.func, call.args[0]
        if (isinstance(func, ast.Attribute) and func.attr == "norm"
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
                and isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                and _broadcast(arg.left) and _broadcast(arg.right)):
            found.append(call.lineno)
    return sorted(found)


def test_broadcast_norm_scan_flags_every_form():
    source = (
        "import numpy as np\n"
        "d1 = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)\n"
        "d2 = numpy.linalg.norm(a[:, None] - b[None], axis=-1)\n"
        "d3 = np.linalg.norm(a - b[None], axis=1)\n"
        "d4 = np.linalg.norm(a[:, 0] - b[:, 1], axis=1)\n"
        "d5 = np.linalg.norm(a[:, None] + b[None], axis=2)\n"
        "def f(a, b):\n"
        "    return np.linalg.norm(a[None] - b[:, None], axis=2)\n"
        "def pairwise_distances(a, b):\n"
        "    return np.linalg.norm(a[:, None] - b[None], axis=2)\n"
    )
    assert broadcast_norms(source) == [2, 3, 8]


def test_one_pairwise_distance_kernel():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in broadcast_norms(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, ("pairwise norms outside geometry.pairwise_distances at:\n"
                       + "\n".join(found))


def squared_norm_sums(source, filename="<source>"):
    """Line of each einsum call, `linalg.norm` call and `.sum` call given an
    axis (by keyword, or as x.sum(1) or np.sum(x, 1)) between the `# fields`
    banner and the `# ball quadrature` banner.  A sum with no axis, a matrix
    norm like (A**2).sum(), is not flagged."""
    lines = source.splitlines()
    start, stop = lines.index("# fields") + 1, lines.index("# ball quadrature") + 1
    found = []
    for call in ast.walk(ast.parse(source, filename)):
        if not isinstance(call, ast.Call) or not start < call.lineno < stop:
            continue
        func, name = call.func, (_dotted(call.func) or "").split(".")
        axis = isinstance(func, ast.Attribute) and func.attr == "sum" and (
            any(kw.arg == "axis" for kw in call.keywords)
            or len(call.args) > (_dotted(func.value) in ("np", "numpy")))
        if name[-1] == "einsum" or name[-2:] == ["linalg", "norm"] or axis:
            found.append(call.lineno)
    return sorted(found)


def test_squared_norm_scan_flags_every_form():
    source = (
        "import numpy as np\n"
        "a = np.einsum('ij,ij->i', x, x)\n"
        "# fields\n"
        "b = np.einsum('ij,ij->i', x, x) + einsum('ij->i', x)\n"
        "c = np.linalg.norm(x, axis=1) + linalg.norm(x) + numpy.linalg.norm(x)\n"
        "d = (x**2).sum(axis=1) + x.sum(1) + np.sum(x * x, axis=-1) + np.sum(x, 1)\n"
        "e = (A**2).sum() + np.sum(x) + sum_last(x * x) + norm(x)\n"
        "def f(x):\n"
        "    return x.sum(axis=0)\n"
        "# ball quadrature\n"
        "g = np.linalg.norm(x, axis=1) + (x**2).sum(axis=1)\n"
    )
    assert squared_norm_sums(source) == [4, 4, 5, 5, 5, 6, 6, 6, 6, 9]


def test_one_squared_norm_kernel():
    path = PACKAGE / "harmonic.py"
    found = [f"{path.name}:{line}"
             for line in squared_norm_sums(path.read_text(encoding="utf-8"), str(path))]
    assert not found, ("field squared norms not summed by geometry.sum_last at:\n"
                       + "\n".join(found))


def transpose_subscripts(source, filename="<source>"):
    """Line of each subscript of a `.T` attribute, like a.T[:, i]: a strided
    gather that reads one coordinate of every item from its own row."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source, filename))
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "T")


def test_transpose_subscript_scan_flags_every_form():
    source = (
        "import numpy as np\n"
        "a = x.T[:, i]\n"
        "b = mu.positions.T[:, idx] - c.T[:, lo:hi][:, owner]\n"
        "c = np.take(x.T, i, axis=1) + x.T + x[:, i].T + (x.T)[0]\n"
        "d = np.ascontiguousarray(x.T)[:, i] + T[i] + x.t[i]\n"
    )
    assert transpose_subscripts(source) == [2, 3, 3, 4]


def test_kernel_gathers_read_contiguous_arrays():
    found = [f"{path.name}:{line}"
             for path in (PACKAGE / "geometry.py", PACKAGE / "moments.py")
             for line in transpose_subscripts(path.read_text(encoding="utf-8"), str(path))]
    assert not found, ("strided gathers through a transpose at:\n" + "\n".join(found))

"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gia"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports excluded)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_detected():
    assert MODULES, f"no modules found under {SRC}"
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: os", "line 2: tau"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.ones(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's own top-level statements."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def declared_all(tree: ast.Module) -> list[str]:
    """The module's ``__all__`` list; every module in the package declares one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no __all__ assignment")


def stale_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module does not bind at top level."""
    tree = ast.parse(source)
    bound = top_level_names(tree)
    return [name for name in declared_all(tree) if name not in bound]


def test_stale_export_detected():
    assert stale_exports('import os\nX: int = 1\nclass C: pass\n'
                         '__all__ = ["os", "X", "C", "gone"]\n') == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_names_are_bound(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def test_package_imports_only_exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = SRC / f"{node.module}.py"
            exported = declared_all(ast.parse(module.read_text(encoding="utf-8")))
            missing.extend(f"{node.module}.{a.name}" for a in node.names if a.name not in exported)
    assert missing == []


def orphan_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of each module that no module in ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in sorted(top_level_names(tree))
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_orphan_private_name_detected():
    sources = {"a": "def _used(): pass\ndef _gone(): pass\n_LEFT = 1\n__all__ = []\n",
               "b": "from .a import _used\nimport a\n_used()\na._LEFT\n"}
    assert orphan_private_names(sources) == ["a: _gone"]


def test_no_orphan_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphan_private_names(sources) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of each function or lambda that its body never reads.

    ``self``, ``cls`` and ``_``-prefixed names are exempt; a read in a nested
    function or lambda counts for the enclosing one.
    """
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unused.extend(f"line {node.lineno}: {name}({p})" for p in params
                      if p not in read and p not in ("self", "cls") and not p.startswith("_"))
    return unused


def test_unused_parameter_detected():
    source = ("def f(a, b, *args, c, _d, **kw):\n    return a + kw['x']\n"
              "class C:\n    def m(self, x):\n        return lambda y, z: x + y\n"
              "def g(n):\n    def h():\n        return n\n    return h\n")
    assert unused_parameters(source) == [
        "line 1: f(b)", "line 1: f(c)", "line 1: f(args)", "line 5: lambda(z)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


#: The package's layers, lowest first: a module imports only from lower layers.
LAYERS = ({"linalg", "network"}, {"aligner", "feasibility"}, {"harness"}, {"cli"})


def layering_violations(sources: dict[str, str], package: str = "gia") -> list[str]:
    """Imports of a ``package`` module that is not in a lower layer than the importer.

    Relative imports and absolute ``package.x`` imports both count, and a
    module that belongs to no layer is never lower.
    """
    layer = {module: i for i, group in enumerate(LAYERS) for module in group}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [a.name.split(".") for a in node.names]
                targets = [n[1] for n in names if n[0] == package and len(n) > 1]
            elif isinstance(node, ast.ImportFrom):
                parts = node.module.split(".") if node.module else []
                if node.level == 0 and parts[:1] == [package]:
                    parts = parts[1:]
                elif node.level != 1:
                    continue
                targets = parts[:1] or [a.name for a in node.names]
            else:
                continue
            found.extend(f"{module} line {node.lineno}: imports {target}" for target in targets
                         if layer.get(target, len(LAYERS)) >= layer[module])
    return found


def test_layering_violation_detected():
    sources = {"feasibility": "from .aligner import x\nfrom .network import y\nimport numpy\n",
               "network": "from . import linalg\nimport gia.harness, os\n",
               "cli": "from gia.harness import z\nfrom .tool import w\nfrom gia import aligner\n"}
    assert layering_violations(sources) == [
        "feasibility line 1: imports aligner", "network line 1: imports linalg",
        "network line 2: imports harness", "cli line 2: imports tool"]


def test_imports_point_to_lower_layers():
    assert {p.stem for p in MODULES} == set().union(*LAYERS)
    assert layering_violations({p.stem: p.read_text(encoding="utf-8") for p in MODULES}) == []


#: The functions that test finiteness: the checks where input enters the package.
FINITENESS_CHECKS = {("network", "check_channel"), ("network", "check_transceivers")}


def stray_finiteness_checks(sources: dict[str, str]) -> list[str]:
    """Uses of numpy's ``isfinite`` outside the boundary checks ``FINITENESS_CHECKS``.

    ``np.isfinite``, ``numpy.isfinite`` and ``from numpy import isfinite``
    count; ``math.isfinite`` on a scalar parameter does not.  A use belongs
    to the top-level function that contains it.
    """
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if (module, getattr(top, "name", None)) in FINITENESS_CHECKS:
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")) or (
                        isinstance(node, ast.ImportFrom) and node.module == "numpy"
                        and any(a.name == "isfinite" for a in node.names)):
                    found.append(f"{module} line {node.lineno}")
    return found


def test_stray_finiteness_check_detected():
    sources = {"network": ("import numpy as np\ndef check_channel(h):\n    return np.isfinite(h)\n"
                           "def other(h):\n    return np.isfinite(h)\n"),
               "linalg": ("import math\nimport numpy\nfrom numpy import isfinite\n"
                          "OK = math.isfinite(1.0)\nclass C:\n    def f(self, a):\n"
                          "        return numpy.isfinite(a)\n")}
    assert stray_finiteness_checks(sources) == ["network line 5", "linalg line 3", "linalg line 7"]


def test_finiteness_checked_only_at_boundary():
    assert stray_finiteness_checks({p.stem: p.read_text(encoding="utf-8") for p in MODULES}) == []


def array_dataclasses_with_eq(sources: dict[str, str]) -> list[str]:
    """Dataclasses that keep the generated ``__eq__`` and annotate a field
    with ``np.ndarray``: directly, inside another type, or through a
    top-level alias of any module in ``sources``.

    That ``__eq__`` compares the arrays elementwise, so ``==`` and ``in``
    raise on two equal-shaped values, and the class is unhashable.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    aliases: set[str] = set()

    def holds_array(node) -> bool:
        return any((isinstance(n, ast.Attribute) and n.attr == "ndarray")
                   or (isinstance(n, ast.Name) and n.id in aliases) for n in ast.walk(node))

    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and holds_array(node.value):
                aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                eq = next((kw.value for kw in (call.keywords if call else []) if kw.arg == "eq"), None)
                if isinstance(eq, ast.Constant) and eq.value is False:
                    continue
                if any(isinstance(field, ast.AnnAssign) and holds_array(field.annotation)
                       for field in node.body):
                    found.append(f"{module} line {node.lineno}: {node.name}")
    return found


def test_array_dataclass_with_eq_detected():
    sources = {"a": "import numpy as np\nChannel = dict[int, np.ndarray]\n",
               "b": ("import dataclasses\nfrom dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass A:\n    m: np.ndarray\n"
                     "@dataclass(frozen=True, eq=False)\nclass B:\n    m: np.ndarray\n"
                     "@dataclasses.dataclass\nclass C:\n    c: Channel\n"
                     "@dataclass\nclass D:\n    n: int\n    t: tuple[np.ndarray, ...] = ()\n"
                     "@dataclass(eq=True)\nclass E:\n    n: int\n"
                     "class F:\n    m: np.ndarray\n")}
    assert array_dataclasses_with_eq(sources) == ["b line 4: A", "b line 10: C", "b line 13: D"]


def test_no_array_dataclass_with_eq():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert array_dataclasses_with_eq(sources) == []

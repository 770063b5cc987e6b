"""Every module of the package reads each name it imports, and only
``surface._scipy`` imports scipy."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "volfit"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, with their line numbers.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing; a
    name listed in ``__all__`` counts as read, since it is re-exported.
    """
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import RankError, FormatError\n"
        "from .surface import TermSet\n"
        "__all__ = ['TermSet']\n"
        "def f(a: np.ndarray):\n"
        "    from scipy import linalg\n"
        "    raise RankError(os.path.join('a', 'b'))\n"
    )
    assert unused_imports(source) == ["FormatError (line 4)", "linalg (line 8)"]


def boundary_imports(source: str) -> list[tuple[str | None, str]]:
    """``(function, module)`` for each absolute import of scipy or ctypes: the
    innermost function the statement sits in (None at module level) and the
    module it names."""
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((function, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((function, child.module))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            else:
                walk(child, function)

    walk(ast.parse(source), None)
    return [(function, module) for function, module in found
            if module.split(".")[0] in ("scipy", "ctypes")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_surface_scipy(path):
    """scipy is loaded, and replaced in tests, in one place: ``surface._scipy``."""
    for function, module in boundary_imports(path.read_text(encoding="utf-8")):
        assert path.name == "surface.py", f"{path.name} imports {module}"
        if module.split(".")[0] == "scipy":
            assert function == "_scipy", f"{module} imported in {function}"


def test_checker_finds_boundary_imports():
    source = (
        "import ctypes, json\n"
        "from . import scipy\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    def g():\n"
        "        from scipy.special import stdtrit\n"
        "    from numpy import linalg\n"
    )
    assert boundary_imports(source) == [
        (None, "ctypes"), ("f", "scipy.linalg"), ("g", "scipy.special")]

"""Every module of the package reads each name it imports."""

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

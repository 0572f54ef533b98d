"""Static checks on the source of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import petctraffic

SRC = Path(petctraffic.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order.
    A dotted `import a.b` binds a; `from __future__` binds nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def private_reads(source: str) -> list[str]:
    """The private (_-prefixed) names of other modules of the package
    that source imports, or reads as attributes of a module it imports.
    The package imports its own modules relatively."""
    tree = ast.parse(source)
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    found = [f"{node.module}.{a.name}" for node in relative
             for a in node.names if a.name.startswith("_")]
    modules = {a.asname or a.name for node in relative if node.module is None
               for a in node.names}
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return found


def test_private_reads_found():
    assert private_reads("from . import qfnra, ratlin as rl\n"
                         "from .semantics import _form, level\n"
                         "from numpy import _private\n"
                         "x = qfnra._kernel(rl.mat, level, other._y)\n") \
        == ["semantics._form", "qfnra._kernel"]


def test_no_private_reads():
    # no module of the package reaches into another one's private names
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := private_reads(path.read_text()))}
    assert found == {}


def test_unused_imports_found():
    assert unused_imports("import os.path\nfrom typing import Iterable, "
                          "Sequence\nfrom __future__ import annotations\n"
                          "def f(x: Iterable):\n    return os.sep\n") \
        == ["Sequence"]


def test_no_unused_imports():
    # every name a module of the package imports is read in it
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}

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

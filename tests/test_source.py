"""Static checks on the source of the package."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def unread_private_names(source: str) -> list[str]:
    """The private (_-prefixed, not dunder) top-level functions, classes
    and constants of source that no other top-level statement reads: a
    recursive helper that nothing else calls is unread."""
    tree = ast.parse(source)
    defined, reads = [], []
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.name, i))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            defined += [(t.id, i) for t in targets if isinstance(t, ast.Name)]
        reads.append({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)})
    return [name for name, i in defined
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_unread_private_names_found():
    assert unread_private_names(
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _walk(x):\n    return _walk(x[1:]) if x else _A\n"
        "class _Used:\n    pass\n"
        "def f():\n    return _Used()\n") == ["_B", "_walk"]


def test_no_unread_private_names():
    # every private helper of a module of the package is read in it
    unread = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := unread_private_names(path.read_text()))}
    assert unread == {}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports of source."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_found():
    assert imported_modules("import numpy.linalg as la\nfrom os import sep\n"
                            "from . import ratlin\ndef f():\n"
                            "    import json\n") == {"numpy", "os", "json"}


def test_no_numpy_import():
    # the float stage is pure Python: no module of the package imports
    # numpy, not even inside a function
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "numpy" in imported_modules(path.read_text())]
    assert found == []


def test_casestudy_never_loads_numpy(tmp_path):
    # a whole casestudy run, validation and trace.csv included, in a
    # fresh interpreter that has not imported numpy before
    code = ("import sys\nfrom petctraffic import cli\n"
            "rc = cli.main(['casestudy', '--out', sys.argv[1], "
            "'--samples', '2', '--steps', '2'])\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").is_file()

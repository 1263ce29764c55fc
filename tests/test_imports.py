"""Every module of the package uses each name it imports, and imports no
private (underscore) name of another package module.

The scans read the source with `ast` only: a name bound by an import
must be read somewhere in the module, and a name that one module keeps
private is not another module's to import.  `__init__.py` is left out,
since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eigenwave"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # `np.zeros` is an Attribute whose chain starts with the Name `np`
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def private_imports(source: str) -> list[str]:
    """'name from module (line n)' for each underscore name imported from a package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level or module.split(".")[0] == PACKAGE.name:
            found += [
                f"{a.name} from {module} (line {node.lineno})"
                for a in node.names
                if a.name.startswith("_")
            ]
    return found


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"cli.py", "grid.py", "inversion.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.sparse.linalg\n"
        "from .grid import Model, speed_to_slowness\n"
        "def f(m: Model):\n"
        "    return np.sqrt(scipy.sparse.linalg.norm(m))\n"
    )
    assert unused_imports(source) == ["speed_to_slowness (line 4)"]


def test_scan_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from numpy.linalg import _umath_linalg\n"
        "from .helmholtz import Acquisition, _run_lanes\n"
        "from . import _util\n"
        "from eigenwave.grid import _private, Grid2D\n"
        "def f():\n"
        "    from ..other import _nested\n"
    )
    assert private_imports(source) == [
        "_run_lanes from .helmholtz (line 3)",
        "_util from . (line 4)",
        "_private from eigenwave.grid (line 5)",
        "_nested from ..other (line 7)",
    ]

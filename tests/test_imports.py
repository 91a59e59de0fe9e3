"""No module of the package keeps an import it does not use.

Each module under ``src/ginisafe`` is walked with ``ast``: every name an
``import`` binds must be read somewhere in the module.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is
``from __future__ import ...``, which binds nothing the code reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ginisafe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and its code never reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_walk_covers_the_package():
    assert {p.name for p in MODULES} >= {"cli.py", "eta.py", "quantum.py", "errors.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport string\nimport numpy as np\nfrom .a import b, c\nnp.ones(c)\n"
    assert unused_imports(source) == ["string", "b"]

"""No module of the package keeps an import, or a public name, that nothing uses.

Each module under ``src/ginisafe`` is walked with ``ast``: every name an
``import`` binds must be read somewhere in the module.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is
``from __future__ import ...``, which binds nothing the code reads.

Every public function, class and public method must be read, as a name or an
attribute, by the package's code outside its own definition, by the
benchmark's workloads, by the acceptance tests or by a README ``python``
block.  A re-export in ``__init__.py`` is an import, not a read, so it keeps
no name, and neither do the unit tests, which would keep alive whatever they
test.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ginisafe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Public names kept though nothing reads them.  ``sample_codes`` is kept for the
#: layer row that ROADMAP item A2 plans for it; no benchmark code calls it yet,
#: and the verbs read only the estimators built on it.
UNREAD_KEPT = {"ensembles.sample_codes"}


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


def reads(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute read under `node`, outside the subtree `skip`."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack += ast.iter_child_nodes(node)
    return found


def public_definitions(tree: ast.Module):
    """(name, node) of each public function and class of a module, and ("Class.method", node) of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unread_public_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` for each public name of `modules` (module name to source) read nowhere outside its definition.

    A name counts as read when the package's code outside its own definition,
    or a user's code, reads it as a name or as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    outside = set().union(*(reads(ast.parse(source)) for source in users))
    unread = []
    for module, tree in trees.items():
        others = outside.union(*(reads(other) for other_module, other in trees.items() if other_module != module))
        unread += [f"{module}.{name}" for name, node in public_definitions(tree)
                   if name.rpartition(".")[2] not in others | reads(tree, skip=node)]
    return unread


def test_every_public_name_is_read():
    modules = {path.stem: path.read_text() for path in MODULES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    users = [(ROOT / "perfbench" / "workloads.py").read_text(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    users += re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert sorted(set(unread_public_names(modules, users)) - UNREAD_KEPT) == []


def test_an_unread_public_name_is_found():
    modules = {
        "a": "def used(): ...\ndef unused():\n    used()\ndef recursive(n):\n    return recursive(n - 1)\n"
             "class Box:\n    def shown(self): ...\n    def hidden(self):\n        return self.hidden()\n"
             "    def _private(self): ...\ndef _helper(): ...\n",
        "b": "from .a import Box, unused\nBox().shown()\n",
    }
    # an import binds "unused" but reads nothing; "recursive" and "hidden" read only themselves
    assert unread_public_names(modules, ["import b\nb.helper()\n"]) == ["a.unused", "a.recursive", "a.Box.hidden"]

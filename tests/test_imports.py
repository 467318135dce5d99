"""Every module-level import in the package and its tests is used by its
module, every private helper of the package is used by the package, the
package imports nothing outside the standard library, and it names no
``isinstance``.

A deletion that leaves an import behind fails here.  Names listed in a
module's ``__all__`` count as used, so the package root may import only to
re-export.  A private function or method (one leading underscore) that no
code in ``src/`` names outside its own body fails too, so an unused helper
cannot land.  A door of the package tests a handed object's type exactly,
``type(x) is T``: ``isinstance`` (or ``issubclass``) would let a subclass in,
whose methods a door would then run.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ringauction"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported = {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: (
    path.name if path.parent == PACKAGE else f"tests/{path.name}"))
def test_every_module_level_import_is_used(module):
    assert unused_imports(module.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert PACKAGE / "__init__.py" in MODULES and TESTS / "support.py" in MODULES
    source = "import os\nfrom .group import Point, mul\n__all__ = ['mul']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Point"]


def _names(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """Each private function or method in ``sources`` (module name ->
    source; one leading underscore, so dunders aside) whose name appears,
    as a name or an attribute, nowhere but inside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = sum(map(_names, trees.values()), Counter())
    return [f"{module}:{node.lineno}: {node.name}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and names[node.name] == _names(node)[node.name]]


def test_every_private_helper_is_used():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_helpers(sources) == []


def test_the_check_sees_an_unused_helper():
    a = ("def _loop(k):\n    return _loop(k - 1) if k else 0\n"
         "def _used():\n    pass\n"
         "class C:\n    def __len__(self):\n        return 0\n"
         "    def _method(self):\n        return self._called()\n")
    b = "from .a import _used\nclass D:\n    def _called(self):\n        _used()\n"
    assert unused_private_helpers({"a.py": a, "b.py": b}) == ["a.py:1: _loop", "a.py:8: _method"]


def outside_imports(source: str) -> list[str]:
    """Each ``import`` or ``from`` anywhere in ``source`` that is neither
    relative nor of a standard-library module (``sys.stdlib_module_names``,
    by the name's first part)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.lineno, node.module))
    return [f"line {line}: {name}" for line, name in names
            if name.partition(".")[0] not in sys.stdlib_module_names]


def test_src_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        assert outside_imports(path.read_text()) == [], path.name


def test_the_check_sees_a_non_stdlib_import():
    source = ("from __future__ import annotations\nimport os.path\nfrom . import group\n"
              "from .group import mul\ndef f():\n    import numpy as np\n"
              "    from hypothesis import given\n")
    assert outside_imports(source) == ["line 6: numpy", "line 7: hypothesis"]


def subclass_tests(source: str) -> list[str]:
    """Each name ``isinstance`` or ``issubclass`` anywhere in ``source``,
    called or not."""
    names = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name) and node.id in ("isinstance", "issubclass")]
    return [f"line {node.lineno}: {node.id}" for node in sorted(names, key=lambda node: node.lineno)]


def test_src_tests_types_exactly():
    assert [f"{path.name} {found}" for path in sorted(PACKAGE.glob("*.py"))
            for found in subclass_tests(path.read_text())] == []


def test_the_check_sees_a_subclass_test():
    source = ("def f(x):\n    return type(x) is int\n"
              "def g(x):\n    return isinstance(x, int)\n"
              "check = issubclass\n")
    assert subclass_tests(source) == ["line 4: isinstance", "line 5: issubclass"]

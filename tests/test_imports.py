"""Every module-level import in the package and its tests is used by its module.

A deletion that leaves an import behind fails here.  Names listed in a
module's ``__all__`` count as used, so the package root may import only to
re-export.
"""

import ast
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

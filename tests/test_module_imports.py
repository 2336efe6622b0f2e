"""Every name a package module imports is used in that module, and every
private module-level definition is used somewhere in the package.

``__init__`` is left out of the import check: it imports names to
re-export them.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

import rbfam

MODULES = sorted(p for p in Path(rbfam.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def _names(tree):
    """Every name a tree reads: variables, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_definition_is_used():
    """Every private module-level function or class of the package is
    referenced somewhere in the package outside its own definition."""
    trees = {path: ast.parse(path.read_text()) for path in Path(rbfam.__file__).parent.glob("*.py")}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and used[node.name] == Counter(_names(node))[node.name]
    ]
    assert sorted(unused) == []

"""Every name a package module imports is used in that module.

No linter ships with the project, so this is a small ``ast`` check: each
name bound by an ``import`` or ``from … import`` must be read somewhere
in the module, as a name, as the base of an attribute, or inside a string
annotation.
"""

import ast
from pathlib import Path

import pytest

import freebycyclic

MODULES = sorted(Path(freebycyclic.__file__).parent.glob("*.py"))


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_read(tree: ast.Module) -> set[str]:
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _names_read(tree)
    unused = sorted((line, name)
                    for name, line in _bound_imports(tree).items()
                    if name not in read)
    assert unused == [], f"{path.name} imports names it never uses"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Iterable, Optional\n"
                     "import os.path\n"
                     "def f(x: 'Optional[int]'):\n    return x\n")
    unused = set(_bound_imports(tree)) - _names_read(tree)
    assert unused == {"Iterable", "os"}

"""Every name a package module imports is used in that module, and every
private helper it defines is referenced in it.

No linter ships with the project, so these are small ``ast`` checks: each
name bound by an ``import`` or ``from … import`` must be read somewhere
in the module, as a name, as the base of an attribute, or inside a string
annotation; each private module-level function or class, and each private
method, must be referenced by name or as an attribute.
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


def _unreferenced_privates(tree: ast.Module) -> set[str]:
    """Private module-level functions and classes, and private methods,
    that the module never refers to."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = set()
    for node in tree.body:
        if isinstance(node, defs) and node.name.startswith("_"):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined |= {item.name for item in node.body
                        if isinstance(item, defs)
                        and item.name.startswith("_")
                        and not item.name.endswith("__")}
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    return defined - referenced


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_unreferenced_privates(tree)) == [], \
        f"{path.name} defines private helpers it never uses"


def test_the_check_sees_an_unreferenced_helper():
    tree = ast.parse("def _used():\n    pass\n"
                     "def _unused():\n    pass\n"
                     "class _Gone:\n    pass\n"
                     "class Kept:\n"
                     "    def __init__(self):\n        self._step()\n"
                     "    def _step(self):\n        return _used()\n"
                     "    def _orphan(self):\n        pass\n")
    assert _unreferenced_privates(tree) == {"_unused", "_Gone", "_orphan"}

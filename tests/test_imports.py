"""Every name a package module imports is used in that module and is not
another module's private name, every private helper it defines is
referenced in it, and every public function and class it defines, and
every public method, classmethod and property of a public class, is
referenced by the package or the benchmark.

No linter ships with the project, so these are small ``ast`` checks: each
name bound by an ``import`` or ``from … import`` must be read somewhere
in the module, as a name, as the base of an attribute, or inside a string
annotation; no module imports an underscore name from another package
module or reads one off a package module it imported; each private
module-level function or class, and each private method, must be
referenced by name or as an attribute; each public module-level function
or class must be referenced by name or as an attribute, and each public
method of a public class read as an attribute, somewhere in
``src/freebycyclic`` or ``bench``, where a mention in a docstring or other
string does not count; so must each public module-level alias of a
package function or class.  Public names that only the tests call move to
the tests.  Likewise each annotated field of a public dataclass must be
read as an attribute somewhere in ``src/freebycyclic`` or ``bench``; a
field whose name another class also has is pinned in a table reviewed by
hand, since a read of that name counts for both.
"""

import ast
from pathlib import Path

import pytest

import freebycyclic

MODULES = sorted(Path(freebycyclic.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that nothing in the package or the benchmark calls yet
UNCALLED_PUBLIC = {
    "cohomology.h1": "ROADMAP item 14: H^1 of a torus built from a .map file",
    "cohomology.mapping_torus_h1_rank": "ROADMAP item 9: the rank check of "
                                        "every torus built",
    "traintrack.lone_axis_check": "ROADMAP items 10 and 11: the atlas "
                                  "verdict of one class",
    "traintrack.nielsen_search": "ROADMAP item 11; bench/spans.py traces it",
}


# dataclass fields that nothing in the package or the benchmark reads
UNREAD_FIELDS = {
    "cohomology.H1Data.torsion": "the torsion divisors of H_1; "
                                 "test_cohomology pins them",
    "cohomology.H1Data.cycles": "the cycle basis the duals pair with; "
                                "test_cohomology pins it",
    "section.SectionAudit.skew_crossings": "printed whole by cli through "
                                           "dataclasses.asdict",
    "section.SectionAudit.valence_profile": "printed whole by cli through "
                                            "dataclasses.asdict",
    "section.SectionAudit.illegal_turns_at_trivalent": "printed whole by "
                                                       "cli through "
                                                       "dataclasses.asdict",
    "traintrack.NielsenReport.note": "the caveat of a bounded search; "
                                     "test_traintrack reads it",
}


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


def _private_imports(tree: ast.Module) -> set[str]:
    """Underscore names the module takes from another package module:
    imported with ``from .module import _name``, or read as
    ``module._name`` off a package module it imported."""
    taken = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    taken.add(alias.name)
                elif node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            taken.add(f"{node.value.id}.{node.attr}")
    return taken


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_names_cross_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_private_imports(tree)) == [], \
        f"{path.name} takes private names from another package module"


def test_the_check_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from . import section as sect, _hidden as h\n"
                     "from .words import Word, _CHAR as chars\n"
                     "from .graphs import (tighten,\n    _private)\n"
                     "print(sect._build(), sect.build(), h, chars)\n"
                     "def f(self):\n    return self._own\n")
    assert _private_imports(tree) == {"_hidden", "_CHAR", "_private",
                                      "sect._build"}


def _referenced(tree: ast.Module) -> set[str]:
    """Names the module reads, as a name or as an attribute; a name only
    bound, as by ``alias = function``, is not read."""
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    return referenced


def _unreferenced_privates(tree: ast.Module) -> set[str]:
    """Private module-level functions and classes, and private methods,
    that the module never refers to."""
    defined = set()
    for node in tree.body:
        if isinstance(node, DEFS) and node.name.startswith("_"):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined |= {item.name for item in node.body
                        if isinstance(item, DEFS)
                        and item.name.startswith("_")
                        and not item.name.endswith("__")}
    return defined - _referenced(tree)


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


def _public_defs(tree: ast.Module):
    """``(qualified name, name)`` of each public module-level function or
    class, of each public method, classmethod or property of a public
    class, and of each public module-level name bound to a function or
    class that the module defines or imports from the package (an alias
    such as ``tighten = reduce_word``; ``Chain = dict`` is left out)."""
    package = {node.name for node in tree.body if isinstance(node, DEFS)}
    package |= {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in package:
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]):
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("_"):
                    yield target.id, target.id


def _attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unreferenced_publics(modules: dict[str, ast.Module],
                          readers: list[ast.Module]) -> set[str]:
    """``module.name`` of each public definition of ``modules`` (see
    :func:`_public_defs`) that no tree in ``readers`` refers to; a method
    or property counts only when it is read as an attribute, so a local
    variable of the same name does not hide it."""
    referenced = set().union(*map(_referenced, readers))
    attributes = set().union(*map(_attributes_read, readers))
    return {f"{module}.{qualified}" for module, tree in modules.items()
            for qualified, name in _public_defs(tree)
            if name not in (attributes if "." in qualified else referenced)}


def _package_and_readers() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The package modules by name, and those modules with the benchmark's."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in MODULES}
    readers = list(modules.values())
    readers += [ast.parse(path.read_text(), filename=str(path))
                for path in BENCH]
    assert BENCH, "the benchmark sources are not beside the tests"
    return modules, readers


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    modules, readers = _package_and_readers()
    unused = _unreferenced_publics(modules, readers)
    assert sorted(unused - set(UNCALLED_PUBLIC)) == [], \
        "public names that only the tests use belong in the tests"
    assert sorted(set(UNCALLED_PUBLIC) - unused) == [], \
        "allowlisted names that are now used leave the allowlist"


def test_the_check_sees_an_unused_public_name():
    module = ast.parse("def used():\n    pass\n"
                       "def unused():\n    pass\n"
                       "class Mentioned:\n    pass\n"
                       "class Based:\n    pass\n"
                       "def _private():\n    pass\n"
                       "class Kept:\n"
                       "    def __init__(self):\n        self._step()\n"
                       "    def _step(self):\n        pass\n"
                       "    def called(self):\n        pass\n"
                       "    def uncalled(self):\n        pass\n"
                       "    @classmethod\n"
                       "    def made(cls):\n        return cls()\n"
                       "    @classmethod\n"
                       "    def unmade(cls):\n        return cls()\n"
                       "    @property\n"
                       "    def read(self):\n        return 1\n"
                       "    @property\n"
                       "    def unread(self):\n        return 2\n"
                       "    @property\n"
                       "    def shadowed(self):\n        return 3\n")
    reader = ast.parse('"""Mentioned only here."""\n'
                       "import mod\n"
                       "class Child(mod.Based):\n"
                       "    def method(self):\n        return used()\n"
                       "shadowed = [mod.Kept().read]\n"
                       "print(mod.Kept.made().called(), shadowed)\n")
    assert _unreferenced_publics({"mod": module}, [module, reader]) == \
        {"mod.unused", "mod.Mentioned", "mod.Kept.uncalled",
         "mod.Kept.unmade", "mod.Kept.unread", "mod.Kept.shadowed"}


def test_the_check_sees_an_unused_alias():
    module = ast.parse("from .words import reduce_word, multiply\n"
                       "from os.path import join\n"
                       "Chain = dict\n"
                       "def tidy(word):\n    return word\n"
                       "tighten = reduce_word\n"
                       "product = multiply\n"
                       "neat = tidy\n"
                       "kept: object = tidy\n"
                       "joined = join\n"
                       "_hidden = tidy\n")
    reader = ast.parse("import mod\n"
                       "print(mod.product, mod.kept(mod.tidy('')))\n")
    assert _unreferenced_publics({"mod": module}, [module, reader]) == \
        {"mod.tighten", "mod.neat"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            name = decorator.attr
        else:
            name = getattr(decorator, "id", None)
        if name == "dataclass":
            return True
    return False


# public dataclass fields whose name another class of the package also
# defines, as a field, method, property or attribute set on ``self``: a
# read of that name counts for both, so the unread-field check cannot see
# such a field go unread.  Reviewed by hand, by the receivers of every read
# of each name in the package and the benchmark: each field is read on an
# instance of its own class, except those in SHARED_AND_UNREAD.  A new
# shared name is reviewed the same way before it joins this table
SHARED_FIELDS = {
    "assumptions": ("graphs.MapFile", "traintrack.Verdict"),
    "basepoint": ("graphs.MarkedGraph", "section.MonodromyData",
                  "section.SectionGraph"),
    "bottom": ("section.HeightChart", "torus.SkewCell", "torus.Trapezoid"),
    "charts": ("section.SectionGraph",),
    "codomain": ("graphs.GraphMap", "words.FreeGroupMap"),
    "complex": ("section.SectionGraph",),
    "components": ("section.SectionAudit", "section.SectionGraph",
                   "traintrack.WhiteheadData"),
    "corners": ("section.HeightChart", "torus.Trapezoid"),
    "direction": ("bns.AxisLine", "torus.SkewCell"),
    "domain": ("graphs.GraphMap", "words.FreeGroupMap"),
    "duals": ("cli.Workspace", "cohomology.H1Data"),
    "edge_labels": ("folding.Stage",),
    "edges": ("graphs.Graph", "section.SectionAudit", "traintrack.EigenMetric",
              "traintrack.TransitionMatrix"),
    "end": ("bns.ConeComponent", "torus.Vertical"),
    "ends": ("torus.Skeleton",),
    "generators": ("bns.TwoGenPresentation", "graphs.MarkedGraph",
                   "section.MonodromyData"),
    "graph": ("folding.Stage", "graphs.MarkedGraph", "graphs.Subdivision",
              "section.SectionGraph"),
    "index": ("folding.FoldRecord", "torus.SkewCell"),
    "kind": ("folding.FoldRecord", "torus.SkewCell"),
    "lattice": ("section.SectionGraph",),
    "left": ("section.HeightChart", "torus.Trapezoid"),
    "name": ("torus.SkewCell", "torus.Trapezoid", "torus.Vertical",
             "torus.ZeroCell"),
    "one_cell_names": ("torus.Skeleton",),
    "phase": ("cli.RunConfig", "section.SectionGraph"),
    "rank": ("cohomology.H1Data", "section.SectionAudit"),
    "right": ("section.HeightChart", "torus.Trapezoid"),
    "rows": ("torus.Skeleton",),
    "sign": ("section.TopGeom", "torus.TopPiece"),
    "skew": ("section.TopGeom", "torus.TopPiece"),
    "stage": ("torus.ZeroCell",),
    "start": ("bns.ConeComponent", "torus.Vertical"),
    "top": ("section.HeightChart", "torus.SkewCell", "torus.Trapezoid"),
    "tree_edges": ("graphs.SpanningTree", "section.LineSection"),
    "vertex": ("folding.FoldRecord", "torus.ZeroCell"),
    "vertex_labels": ("folding.Stage",),
    "vertices": ("graphs.Graph", "section.SectionAudit"),
    "x_hi": ("section.TopGeom", "torus.TopPiece"),
    "x_lo": ("section.TopGeom", "torus.TopPiece"),
}

# shared fields that the review found read on no instance of their own
# class in the package or the benchmark
SHARED_AND_UNREAD = {
    "cohomology.H1Data.rank": "read only by the tests, as h1 is",
    "cohomology.H1Data.duals": "read only by the tests, as h1 is",
    "section.SectionAudit.vertices": "printed whole by cli through "
                                     "dataclasses.asdict",
    "section.SectionAudit.edges": "printed whole by cli through "
                                  "dataclasses.asdict",
    "section.SectionAudit.rank": "printed whole by cli through "
                                 "dataclasses.asdict",
    "section.SectionAudit.components": "printed whole by cli through "
                                       "dataclasses.asdict",
}


def _dataclass_fields(tree: ast.Module):
    """``(class name, field name)`` of each annotated field of each public
    dataclass of the module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def _class_attributes(node: ast.ClassDef) -> set[str]:
    """The annotated fields, methods and properties of a class, and the
    names it sets on ``self``."""
    names = {item.target.id for item in node.body
             if isinstance(item, ast.AnnAssign)
             and isinstance(item.target, ast.Name)}
    names |= {item.name for item in node.body if isinstance(item, DEFS)}
    names |= {sub.attr for sub in ast.walk(node)
              if isinstance(sub, ast.Attribute)
              and isinstance(sub.ctx, ast.Store)
              and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    return names


def _shared_fields(modules: dict[str, ast.Module]
                   ) -> dict[str, tuple[str, ...]]:
    """Each field name of a public dataclass that some other class of
    ``modules`` also defines, with the public dataclasses, sorted, whose
    field of that name is so shared."""
    owners: dict[str, set[str]] = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for name in _class_attributes(node):
                    owners.setdefault(name, set()).add(
                        f"{module}.{node.name}")
    shared: dict[str, list[str]] = {}
    for module, tree in sorted(modules.items()):
        for cls, name in _dataclass_fields(tree):
            if owners[name] - {f"{module}.{cls}"}:
                shared.setdefault(name, []).append(f"{module}.{cls}")
    return {name: tuple(sorted(classes)) for name, classes in shared.items()}


def test_every_shared_field_name_is_reviewed():
    modules, _readers = _package_and_readers()
    assert _shared_fields(modules) == SHARED_FIELDS, \
        "a field that shares its name escapes the unread-field check; " \
        "review where it is read and update SHARED_FIELDS"
    listed = {f"{cls}.{name}" for name, classes in SHARED_FIELDS.items()
              for cls in classes}
    assert sorted(set(SHARED_AND_UNREAD) - listed) == []


def test_the_check_sees_a_shared_field_name():
    module = ast.parse("from dataclasses import dataclass\n"
                       "@dataclass\n"
                       "class Point:\n    x: int\n    y: int\n"
                       "@dataclass\n"
                       "class _Hidden:\n    y: int\n    w: int\n"
                       "class Walker:\n"
                       "    def __init__(self):\n        self.z = 0\n"
                       "    def x(self):\n        return self.z\n")
    other = ast.parse("from dataclasses import dataclass\n"
                      "@dataclass\n"
                      "class Cell:\n    z: int\n    w: int\n    v: int\n")
    assert _shared_fields({"mod": module, "other": other}) == {
        "x": ("mod.Point",), "y": ("mod.Point",), "z": ("other.Cell",),
        "w": ("other.Cell",)}


def _unread_fields(modules: dict[str, ast.Module],
                   readers: list[ast.Module]) -> set[str]:
    """``module.Class.field`` of each annotated field of a public dataclass
    of ``modules`` that no tree in ``readers`` reads as an attribute."""
    read = set().union(*map(_attributes_read, readers))
    return {f"{module}.{cls}.{name}" for module, tree in modules.items()
            for cls, name in _dataclass_fields(tree) if name not in read}


def test_every_dataclass_field_is_read_by_the_package_or_the_benchmark():
    unread = _unread_fields(*_package_and_readers())
    assert sorted(unread - set(UNREAD_FIELDS)) == [], \
        "fields that nothing reads go, or go in the allowlist with a reason"
    assert sorted(set(UNREAD_FIELDS) - unread) == [], \
        "allowlisted fields that are now read leave the allowlist"


def test_the_check_sees_an_unread_field():
    module = ast.parse("from dataclasses import dataclass\n"
                       "import dataclasses\n"
                       "@dataclass\n"
                       "class Point:\n    x: int\n    y: int\n"
                       "    z: int = 0\n"
                       "@dataclasses.dataclass(frozen=True)\n"
                       "class Pair:\n    left: int\n    right: int\n"
                       "@dataclass\n"
                       "class _Hidden:\n    secret: int\n"
                       "class Plain:\n    kept: int\n")
    reader = ast.parse("import mod\n"
                       "p = mod.Point(1, 2)\n"
                       "p.y = p.x\n"
                       "print(mod.Pair(1, 2).left, 'right')\n")
    assert _unread_fields({"mod": module}, [module, reader]) == \
        {"mod.Point.y", "mod.Point.z", "mod.Pair.right"}

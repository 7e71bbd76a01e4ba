"""Every module of the package uses what it imports, every local it assigns,
every attribute it stores and every function, class and method it defines,
and imports at module level; every test file uses what it imports and every
local it assigns.

No linter is installed, so a walk over each module's syntax tree stands in
for pyflakes' unused-import and unused-local checks and for vulture's unused
attributes and definitions.  ``__init__.py`` is left out of the import check: its imports are
the package's public names.  An import inside a function would hide its cost
(scipy's submodules cost RSS and start-up time) in whichever call runs it
first, so every module imports at its top level.
"""

import ast
from pathlib import Path

import pytest

import alexkit

MODULES = sorted(p for p in Path(alexkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom math import pi, tau\nnp.zeros(1) * tau\n")
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_locals(source: str) -> list[str]:
    """``function.name`` for each name a function body assigns and never
    reads there (nested functions included); ``_`` names are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            found += [f"{fn.name}.{name}" for name in sorted(stored - read)
                      if not name.startswith("_")]
    return found


def test_checker_finds_unused_locals():
    source = ("x = 1\n\ndef f(a):\n    b, _c = a\n    d = 2\n    e = 3\n"
              "    def g():\n        h = 4\n        return d\n    return g\n\n"
              "class C:\n    def m(self):\n        total = 0\n        total += 1\n")
    assert unused_locals(source) == ["f.b", "f.e", "f.h", "g.h", "m.total"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def stored_attributes(source: str) -> set[tuple[str, str]]:
    """(class, name) for each ``self.name`` a class's methods assign and each
    field of a dataclass."""
    found = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            found |= {(cls.name, n.target.id) for n in cls.body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
        found |= {(cls.name, n.attr) for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return found


def unread_attributes(sources: list[str], readers: list[str]) -> list[str]:
    """``class.name`` for each attribute the ``sources`` store whose name no
    ``reader`` reads as an attribute (of any object: a name-based check)."""
    read = {n.attr for text in readers for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stored = set().union(*map(stored_attributes, sources))
    return sorted(f"{c}.{name}" for c, name in stored if name not in read)


def test_checker_finds_unread_attributes():
    source = ("from dataclasses import dataclass\n\n@dataclass(frozen=True)\n"
              "class A:\n    x: int\n    y: int = 0\n    Z = 1\n\n"
              "class B(Exception):\n    def __init__(self, why):\n"
              "        self.why = why\n        self.n = 0\n        self.n += 1\n\n"
              "def f(a):\n    a.y = 2\n    return a.x\n")
    reader = "def g(b):\n    return b.n\n"
    assert unread_attributes([source], [source, reader]) == ["A.y", "B.why"]


def test_no_unread_attributes():
    root = Path(alexkit.__file__).parents[2]
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    package = sorted(Path(alexkit.__file__).parent.glob("*.py"))
    assert unread_attributes([p.read_text() for p in package], readers) == []


def definitions(source: str) -> set[str]:
    """Names of the functions, classes and methods a module defines, nested
    ones included; dunders are left out (Python calls them)."""
    return {n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))}


def unread_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """Each definition of the ``sources`` whose name no ``reader`` reads as a
    name, as an attribute, or as a string (``getattr`` by name, as the
    benchmark's tracer does): a name-based stand-in for vulture.  An import
    is not a read, so a name that only ``__init__.py`` re-exports is unread."""
    read = set()
    for node in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(set().union(*map(definitions, sources)) - read)


def test_checker_finds_unread_definitions():
    source = ("class A:\n    def __init__(self):\n        pass\n    def m(self):\n"
              "        pass\n    def n(self):\n        pass\n\n"
              "class B:\n    pass\n\n"
              "def f():\n    def inner():\n        pass\n    return A().n\n\n"
              "def g():\n    pass\n\ndef h():\n    pass\n")
    reader = "from mod import g, B\n\ngetattr(mod, 'h')()\nf()\n"
    assert unread_definitions([source], [source, reader]) == ["B", "g", "inner", "m"]


def test_no_unread_definitions():
    root = Path(alexkit.__file__).parents[2]
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    package = sorted(Path(alexkit.__file__).parent.glob("*.py"))
    assert unread_definitions([p.read_text() for p in package], readers) == []


def function_imports(source: str) -> list[int]:
    """Line numbers of the import statements inside function bodies."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_checker_finds_function_imports():
    source = ("import math\n\ndef f():\n    import os\n    def g():\n"
              "        from scipy import sparse\n    return os, sparse\n\n"
              "class C:\n    def m(self):\n        import json\n")
    assert function_imports(source) == [4, 6, 11]


@pytest.mark.parametrize("path", sorted(Path(alexkit.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []

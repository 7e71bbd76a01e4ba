"""Every module of the package uses what it imports, every local it assigns,
every attribute it stores and every function, class and method it defines,
and imports at module level; every test file uses what it imports and every
local it assigns.  Every public function or class of the package is read by
another part of it or carries a claim of the ledger in the package
docstring, and every ledger entry names a real function and a real test.
Every parameter with a default, of a function or method of the package, is
passed by some call in ``src/`` or ``tests/``.

No linter is installed, so a walk over each module's syntax tree stands in
for pyflakes' unused-import and unused-local checks and for vulture's unused
attributes and definitions.  An import inside a function would hide its cost
(a library's submodules cost RSS and start-up time) in whichever call runs
it first, so every module imports at its top level.  For the same reason, in a
fresh interpreter ``import alexkit.cli`` loads no scipy, and no workload
command loads a module that the import did not.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import alexkit

ROOT = Path(alexkit.__file__).parents[2]
MODULES = sorted(Path(alexkit.__file__).parent.glob("*.py"))
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
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_attributes([p.read_text() for p in MODULES], readers) == []


def names_read(readers: list[str]) -> set[str]:
    """Every name the ``readers`` read as a name, as an attribute, or as a
    string (``getattr`` by name, as the benchmark's tracer does).  An import
    is not a read."""
    read = set()
    for node in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def definitions(source: str) -> set[str]:
    """Names of the functions, classes and methods a module defines, nested
    ones included; dunders are left out (Python calls them)."""
    return {n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))}


def unread_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """Each definition of the ``sources`` whose name no ``reader`` reads
    (:func:`names_read`): a name-based stand-in for vulture."""
    return sorted(set().union(*map(definitions, sources)) - names_read(readers))


def test_checker_finds_unread_definitions():
    source = ("class A:\n    def __init__(self):\n        pass\n    def m(self):\n"
              "        pass\n    def n(self):\n        pass\n\n"
              "class B:\n    pass\n\n"
              "def f():\n    def inner():\n        pass\n    return A().n\n\n"
              "def g():\n    pass\n\ndef h():\n    pass\n")
    reader = "from mod import g, B\n\ngetattr(mod, 'h')()\nf()\n"
    assert unread_definitions([source], [source, reader]) == ["B", "g", "inner", "m"]


def test_no_unread_definitions():
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_definitions([p.read_text() for p in MODULES], readers) == []


# an entry of the claims ledger: a bullet ``module.name``, then its tests as
# file::test, up to the next bullet, the next numbered claim or the end
LEDGER_ENTRY = re.compile(r"^\s*- ``(\w+)\.(\w+)``(.*?)(?=^\s*- |^\d+\. |\Z)",
                          re.MULTILINE | re.DOTALL)
GATE = re.compile(r"tests/\w+\.py::[\w:]+")


def ledger(doc: str) -> list[tuple[str, str, list[str]]]:
    """(module, name, its tests as file::test) for each entry of the ledger."""
    return [(module, name, GATE.findall(body))
            for module, name, body in LEDGER_ENTRY.findall(doc)]


def public_definitions(source: str) -> set[str]:
    """Names of the public functions and classes at a module's top level."""
    return {n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not n.name.startswith("_")}


def unclaimed_definitions(modules: dict[str, str], doc: str) -> list[str]:
    """``module.name`` for each public definition of the ``modules`` (module
    name -> source) that no module reads and the ledger in ``doc`` does not
    name."""
    read = names_read(list(modules.values()))
    claimed = {f"{module}.{name}" for module, name, _ in ledger(doc)}
    return sorted(f"{module}.{name}" for module, text in modules.items()
                  for name in public_definitions(text) - read
                  if f"{module}.{name}" not in claimed)


def gate_ids(source: str) -> set[str]:
    """``test`` for each test function and ``Class::test`` for each test method."""
    ids = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            ids.add(node.name)
        elif isinstance(node, ast.ClassDef):
            ids |= {f"{node.name}::{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)}
    return ids


def unresolved_entries(doc: str, modules: dict[str, str], tests: dict[str, str]) -> list[str]:
    """Each ``module.name`` of the ledger that no module defines at its top
    level, and each file::test it names that is not in ``tests`` (path ->
    source)."""
    bad = []
    for module, name, gates in ledger(doc):
        if name not in public_definitions(modules.get(module, "")):
            bad.append(f"{module}.{name}")
        for gate in gates:
            path, test = gate.split("::", 1)
            if path not in tests or test not in gate_ids(tests[path]):
                bad.append(gate)
    return bad


SYNTHETIC_LEDGER = """1. A claim, not gated by tests/test_mod.py::test_claim itself.

   - ``mod.claimed`` (a note on ``two``
     lines)
     tests/test_mod.py::test_claim
     tests/test_mod.py::TestClass::test_method
   - ``mod.gone``
     tests/test_mod.py::test_gone

2. Another claim.

   - ``other.g`` tests/test_other.py::test_g
"""


def test_checker_finds_unclaimed_definitions():
    modules = {"mod": "def claimed():\n    pass\n\ndef orphan():\n    pass\n\n"
                      "def _private():\n    pass\n\nclass Read:\n    def method(self):\n"
                      "        pass\n",
               "other": "from mod import Read, orphan\n\nRead().method()\n"}
    assert ledger(SYNTHETIC_LEDGER) == [
        ("mod", "claimed", ["tests/test_mod.py::test_claim",
                            "tests/test_mod.py::TestClass::test_method"]),
        ("mod", "gone", ["tests/test_mod.py::test_gone"]),
        ("other", "g", ["tests/test_other.py::test_g"])]
    assert unclaimed_definitions(modules, SYNTHETIC_LEDGER) == ["mod.orphan"]


def test_checker_finds_unresolved_ledger_entries():
    modules = {"mod": "def claimed():\n    pass\n\ndef _g():\n    pass\n"}
    tests = {"tests/test_mod.py": "def test_claim():\n    pass\n\nclass TestClass:\n"
                                  "    def test_other(self):\n        pass\n"}
    assert unresolved_entries(SYNTHETIC_LEDGER, modules, tests) == [
        "tests/test_mod.py::TestClass::test_method", "mod.gone",
        "tests/test_mod.py::test_gone", "other.g", "tests/test_other.py::test_g"]


def test_every_public_definition_is_read_or_claimed():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unclaimed_definitions(modules, alexkit.__doc__) == []


def test_every_ledger_entry_resolves():
    modules = {p.stem: p.read_text() for p in MODULES}
    tests = {f"tests/{p.name}": p.read_text() for p in TEST_FILES}
    assert len(ledger(alexkit.__doc__)) == len(re.findall(r"^\s*- ", alexkit.__doc__, re.M))
    assert unresolved_entries(alexkit.__doc__, modules, tests) == []


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None, str]]:
    """(qualified name, callee name, position, parameter) for each parameter
    with a default of each function and method of a module, nested ones
    included.  A constructor's callee name is its class's name; a method's
    positions do not count ``self``; a keyword-only parameter has position
    None.  Dataclass fields are not parameters of any definition here."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, qual = child.args, f"{prefix}{child.name}"
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                callee = cls if child.name == "__init__" else child.name
                found.extend((qual, callee, i - skip, positional[i].arg)
                             for i in range(len(positional) - len(a.defaults),
                                            len(positional)))
                found.extend((qual, callee, None, arg.arg)
                             for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                             if default is not None)
                visit(child, f"{qual}.", None)
            else:
                visit(child, prefix, cls)

    visit(ast.parse(source), "", None)
    return found


def passed_arguments(callers: list[str]) -> dict[str, tuple[int, set[str], bool]]:
    """For each callee name (a called name or attribute): the most positional
    arguments one call passes (a ``*`` argument counts as all), the keywords
    passed, and whether some call passes ``**``."""
    calls = {}
    for node in (n for text in callers for n in ast.walk(ast.parse(text))):
        name = (getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if isinstance(node, ast.Call) else None)
        if name is None:
            continue
        most, keywords, mapping = calls.get(name, (0, set(), False))
        count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
        calls[name] = (max(most, count), keywords | {k.arg for k in node.keywords},
                       mapping or any(k.arg is None for k in node.keywords))
    return calls


def never_passed_parameters(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` for each parameter with a default of the
    ``modules`` (module name -> source) that no call in the ``callers``
    passes, by position, by keyword or through ``**``: a name-based check."""
    calls = passed_arguments(callers)
    found = []
    for module, text in modules.items():
        for qual, callee, pos, param in defaulted_parameters(text):
            most, keywords, mapping = calls.get(callee, (0, set(), False))
            if not (mapping or param in keywords or pos is not None and pos < most):
                found.append(f"{module}.{qual}({param})")
    return sorted(found)


def test_checker_finds_never_passed_parameters():
    source = ("class A:\n    def __init__(self, x, y=1, z=2):\n        pass\n"
              "    def m(self, a=0, *, b=1, c=2):\n        def inner(q=3):\n"
              "            pass\n        return inner\n"
              "    @staticmethod\n    def s(u=0):\n        pass\n\n"
              "def f(p, r=0, t=1):\n    pass\n\ndef g(v=0, w=1):\n    pass\n\n"
              "def h(k=0):\n    pass\n")
    caller = ("A(1, 2).m(c=5)\nA(0, z=3).s(4)\nf(*args)\ng(**opts)\n"
              "h\nobj.inner()\n")
    assert never_passed_parameters({"mod": source}, [source, caller]) == [
        "mod.A.m(a)", "mod.A.m(b)", "mod.A.m.inner(q)", "mod.h(k)"]


def test_every_defaulted_parameter_is_passed():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for d in ("src", "tests")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert never_passed_parameters(modules, callers) == []


# run in a fresh interpreter: import the CLI, then every workload's tiny
# set-up and pipeline in process through cli.main, as the benchmark's workers
# do; print the scipy modules the import loaded and the modules the commands
# added
FRESH_PROCESS_RUN = """
import json, os, sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads
from alexkit import cli

print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
before = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0, "tiny")
        work = Path(tmp, name)
        work.mkdir()
        os.chdir(work)
        for file, text in wl.setup_files.items():
            Path(file).write_text(text)
        for argv in wl.setup:
            assert cli.main(argv) == 0, argv
        for argv in wl.pipeline(wl.facts(json.loads(Path(wl.space_file).read_text()))):
            assert cli.main(argv) == 0, argv
        os.chdir(tmp)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_the_cli_loads_no_scipy_and_its_commands_load_no_module():
    # scipy's csgraph would cost every CLI process about 33 MiB of RSS and
    # 0.24 s; a module a command loads on its first call (numpy.random,
    # numpy.ma, locale) lands in that command's time
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS_RUN, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    scipy, added = map(json.loads, proc.stdout.splitlines()[-2:])
    assert scipy == []
    assert added == []

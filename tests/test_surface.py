"""The library surface is what the library, the acceptance gate and perfbench read.

Every public module-level function and class in `src/stringnet` must be read
outside its own definition: by name, as an attribute, or in an import, in
the library itself, in `tests/test_acceptance.py` or in `perfbench/*.py`.
A public helper that only its unit test calls fails here.  Immutability has
one home: no class but `Record` defines `__setattr__` or `__delattr__`.  All
files are parsed, not imported.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "stringnet").glob("*.py"))
READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _reads(node: ast.AST) -> Counter:
    """Each name `node` reads, counted: Name loads, attributes, imported aliases."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            reads[sub.name.split(".")[-1]] += 1
    return reads


def _unread_public_names(library: list[str], readers: list[str]) -> list[str]:
    """Public top-level defs of `library` that nothing reads outside their own body."""
    trees = [ast.parse(source) for source in library]
    total = sum((_reads(tree) for tree in trees), Counter())
    total += sum((_reads(ast.parse(source)) for source in readers), Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                if total[node.name] == _reads(node)[node.name]:
                    unread.append(node.name)
    return sorted(unread)


def test_the_check_finds_a_helper_only_its_own_body_reads():
    library = [
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Unread:\n    pass\n"
        "def _private():\n    return used()\n",
        "from .a import used as renamed\n",
    ]
    readers = ["import stringnet.a\nstringnet.a.Imported\n"]
    assert _unread_public_names(library, readers) == ["Unread", "recursive"]
    library.append("def Imported():\n    return 0\n")
    assert _unread_public_names(library, readers) == ["Unread", "recursive"]


def test_every_public_library_name_is_read():
    library = [path.read_text() for path in LIBRARY]
    readers = [path.read_text() for path in READERS]
    assert _unread_public_names(library, readers) == []


def _mutators(source: str) -> list[str]:
    """Class.method for each class in `source` that defines `__setattr__` or `__delattr__`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{node.name}.{n}" for n in names if n in ("__setattr__", "__delattr__")]
    return sorted(found)


def test_the_check_finds_a_class_that_defines_assignment():
    source = (
        "class A:\n    def __setattr__(self, name, value):\n        pass\n"
        "class B:\n    __delattr__ = A.__setattr__\n"
        "class C:\n    def __getattr__(self, name):\n        pass\n"
    )
    assert _mutators(source) == ["A.__setattr__", "B.__delattr__"]


def test_only_record_defines_assignment_and_deletion():
    found = [name for path in LIBRARY for name in _mutators(path.read_text())]
    assert sorted(found) == ["Record.__delattr__", "Record.__setattr__"]

"""Every module-level import in the library is used by its module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stringnet"


def _unused_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_import_left_behind():
    source = (
        "from functools import lru_cache\n"
        "from .category import MEMO_SIZE, identity\n"
        "import os.path\n"
        "def strand(x):\n"
        "    return identity(x)\n"
    )
    assert _unused_imports(source) == ["MEMO_SIZE", "lru_cache", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text()) == []

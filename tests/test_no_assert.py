"""The library states its checks with `require`, never with `assert`.

`python -O` strips every `assert` statement, and the theorem checks must
still run there (README: "the checks are explicit, not `assert`s").
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stringnet"


def _assert_lines(source: str) -> list[int]:
    """The line of every `assert` statement in a module, nested ones included."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_finds_a_nested_assert():
    source = (
        "def f(x):\n"
        "    require(x, 'x holds')  # an assert in a comment is no statement\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert'\n"
    )
    assert _assert_lines(source) == [4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert _assert_lines(path.read_text()) == []

"""Every named check the library states with `require` is fired by a test.

The lint collects each `require(..., "<name>")` in `src/stringnet/` and each
name a test expects: `<error>.invariant == "<name>"`, a CLI payload's
`["invariant"] == "<name>"`, or either compared with a `pytest.mark.parametrize`
argument, whose rows then give the names.  A name that no test expects fails
here unless it is exempt; an exempt name fails once a test expects it or the
library no longer states it.  All files are parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "stringnet").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("test_*.py"))

# Implied by the checks made before it (associativity, the left unit and the
# left Frobenius relation with the right counit, in finite dimension), so no
# edit of mu, eta, Delta or eps fires it alone.
EXEMPT = frozenset({"right Frobenius relation"})


def _required(source: str) -> set[str]:
    """The name of every `require` call; one that is not a string literal is named by its line."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "require":
                name = node.args[1] if len(node.args) == 2 else None
                literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
                names.add(name.value if literal else f"<require on line {node.lineno}>")
    return names


def _parametrized(func: ast.FunctionDef) -> dict[str, set[str]]:
    """The string values each `pytest.mark.parametrize` argument of `func` takes."""
    values: dict[str, set[str]] = {}
    for deco in func.decorator_list:
        if not (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Attribute)):
            continue
        if deco.func.attr != "parametrize" or len(deco.args) < 2:
            continue
        argnames, rows = deco.args[0], deco.args[1]
        if not (isinstance(argnames, ast.Constant) and isinstance(rows, (ast.List, ast.Tuple))):
            continue
        names = [n.strip() for n in argnames.value.split(",")]
        for row in rows.elts:
            cells = row.elts if len(names) > 1 and isinstance(row, ast.Tuple) else [row]
            for name, cell in zip(names, cells):
                if isinstance(cell, ast.Constant) and isinstance(cell.value, str):
                    values.setdefault(name, set()).add(cell.value)
    return values


def _reads_invariant(node: ast.AST) -> bool:
    """`x.invariant` or `x["invariant"]`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "invariant"
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "invariant"
    )


def _expected(source: str) -> set[str]:
    """Every invariant name a test module compares an error or payload against."""
    names = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = _parametrized(func)
        for node in ast.walk(func):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            if not isinstance(node.ops[0], ast.Eq):
                continue
            left, right = node.left, node.comparators[0]
            for read, other in ((left, right), (right, left)):
                if not _reads_invariant(read):
                    continue
                if isinstance(other, ast.Constant) and isinstance(other.value, str):
                    names.add(other.value)
                elif isinstance(other, ast.Name):
                    names |= params.get(other.id, set())
    return names


def _lint(library: list[str], tests: list[str], exempt: frozenset) -> tuple[list, list]:
    """(names no test fires and none exempts, exempt names a test fires or src lacks)."""
    required = set().union(*map(_required, library))
    expected = set().union(*map(_expected, tests))
    unfired = sorted(required - expected - exempt)
    stale = sorted((exempt & expected) | (exempt - required))
    return unfired, stale


def test_the_check_finds_unfired_and_stale_names():
    library = [
        "def f(x, name):\n"
        "    require(x, 'fired')\n"
        "    require(\n        x,\n        'by a row',\n    )\n"
        "    require(x, 'unfired')\n"
        "    require(x, 'implied')\n"
        "    require(x, name)\n",
    ]
    tests = [
        "def test_a(exc):\n"
        "    assert exc.value.invariant == 'fired'\n"
        "    assert 'unfired' in exc.value.message  # no comparison with .invariant\n",
        "@pytest.mark.parametrize('r, which', [(1, 'by a row'), (2, 'payload')])\n"
        "def test_b(r, which, payload):\n"
        "    assert which == payload['invariant']\n",
    ]
    assert _lint(library, tests, frozenset({"implied"})) == (
        ["<require on line 9>", "unfired"],
        [],
    )
    # an exempt name that a test fires, or that no `require` states, is stale
    assert _lint(library, tests, frozenset({"implied", "fired", "gone"})) == (
        ["<require on line 9>", "unfired"],
        ["fired", "gone"],
    )


def test_every_named_invariant_is_fired_by_a_test():
    library = [path.read_text() for path in LIBRARY]
    tests = [path.read_text() for path in TESTS]
    assert _lint(library, tests, EXEMPT) == ([], [])

"""The library computes exactly: no float or complex value enters a computation.

Float and complex literals, `float(` and `complex(` calls, `cmath`, any
`math` function outside the integer ones, and true division (`/`, `/=`) are
rejected in every module; a `/` with a string or f-string operand is a path
join and passes.  The one exemption is `cyclotomic.approx_complex`, the
opt-in `--approx` rendering, whose result is never fed back.  Calls are
matched, not names: `complex` is also a parameter name in `rspin`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stringnet"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
EXEMPT = {"cyclotomic.py": {"approx_complex"}}


def _float_uses(source: str, exempt=frozenset()) -> list[tuple[int, str]]:
    """(line, what) for every inexact construct outside the `exempt` functions."""
    tree = ast.parse(source)
    skip = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in exempt
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"{type(node.value).__name__} literal"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
            found.append((node.lineno, f"{node.func.id}( call"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "cmath import") for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append((node.lineno, "cmath import"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names]
            found += [(node.lineno, f"math.{n}") for n in names if n not in INTEGER_MATH]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
            if node.attr not in INTEGER_MATH:
                found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (_is_text(node.left) or _is_text(node.right)):
                found.append((node.lineno, "true division"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not _is_text(node.value):
                found.append((node.lineno, "true division"))
    return sorted(found)


def _is_text(node) -> bool:
    """A string literal or an f-string: the operand of a path join."""
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def test_the_check_finds_each_inexact_construct():
    source = (
        "import math\n"
        "from math import gcd, sqrt\n"
        "from cmath import exp\n"
        "def f(complex, r):\n"
        "    x = 0.5 + 2j\n"
        "    return float(r), complex(r), math.pi, math.isqrt(r), gcd(r, complex)\n"
        "def approx_complex(a):\n"
        "    import cmath\n"
        "    return complex(cmath.exp(1.0j / a))\n"
        "def g(a, b, root, name):\n"
        "    a /= b\n"
        "    return a / b, a // b, root / 'data' / f'{name}.json'\n"
    )
    want = [
        (2, "math.sqrt"),
        (3, "cmath import"),
        (5, "complex literal"),
        (5, "float literal"),
        (6, "complex( call"),
        (6, "float( call"),
        (6, "math.pi"),
        (11, "true division"),
        (12, "true division"),
    ]
    assert _float_uses(source, {"approx_complex"}) == want
    assert {(8, "cmath import"), (9, "true division")} <= set(_float_uses(source))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_a_computation(path):
    assert _float_uses(path.read_text(), EXEMPT.get(path.name, frozenset())) == []

"""A fresh CLI process loads only the modules its subcommand runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringnet.cli import COMMANDS
from stringnet.modular import sample_path

SRC = Path(__file__).resolve().parents[1] / "src"
# The layers behind the diagram-built routes; none is needed to parse a
# command line, to print a schema, or by the r-spin and modular commands.
DIAGRAM_LAYERS = {
    f"stringnet.{name}"
    for name in ("category", "coends", "diagrams", "centre", "spaces", "frobenius")
}


# The exact-rational modules: `fractions` loads `decimal` and `numbers`.
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}
# The numeric subcommands, each at an r whose weight 1/r is not an integer.
PROJECTOR_COMMANDS = [
    ("bp-operator", "--r", "2", "--genus", "1"),
    ("sphere", "--r", "3"),
    ("annulus", "--r", "2", "--a", "1", "--b", "1"),
    ("torus-basis", "--r", "2"),
]
STATE_SUM_COMMANDS = [
    ("sigma-f", "--r", "2", "--genus", "1", "--indices", "0,1"),
    ("frobenius-check", "--r", "3"),
]


def _modules_loaded_by(code: str, *flags: str) -> set[str]:
    """Modules a fresh interpreter, started with `flags`, gains by running `code`."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _modules_loaded_by_cli(*argv: str) -> set[str]:
    return _modules_loaded_by_calls([list(argv)])


def _modules_loaded_by_calls(calls: list[list[str]], *flags: str) -> set[str]:
    return _modules_loaded_by(
        "from stringnet.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    try:\n        main(argv)\n    except SystemExit:\n        pass",
        *flags,
    )


def test_parser_loads_no_arithmetic():
    loaded = _modules_loaded_by("import stringnet.cli\nstringnet.cli._build_parser()")
    assert "stringnet.cli" in loaded
    assert not loaded & {"dataclasses", "stringnet.category", "stringnet.cyclotomic"}


def test_state_sum_loads_no_dataclasses():
    loaded = _modules_loaded_by_cli("sigma-f", "--r", "2", "--genus", "1", "--indices", "0,1")
    assert "stringnet.frobenius" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma-f", "--json-schema"),
        ("sn-dim", "--r", "0", "--genus", "1"),
        ("sn-dim", "--r", "2", "--genus", "1"),
        ("rspin-enumerate", "--r", "2", "--genus", "1"),
        ("rspin-check", "--r", "2", "--genus", "1", "--indices", "0,1"),
        ("validate-modular", "--data", str(sample_path("semion"))),
        ("charge", "--data", str(sample_path("semion")), "--j", "s", "--u", "1", "--v", "1"),
    ],
)
def test_light_commands_skip_the_diagram_layers(argv):
    assert not _modules_loaded_by_cli(*argv) & DIAGRAM_LAYERS


@pytest.mark.parametrize(
    "calls",
    [
        [["charge", "--data", str(sample_path("semion")), "--j", "s", "--u", "1", "--v", "1"]],
        [["validate-modular", "--data", str(sample_path("semion"))]],
        [[name, "--json-schema"] for name in COMMANDS],
    ],
    ids=["charge", "validate-modular", "json-schema"],
)
def test_package_data_is_read_without_importlib_resources(calls):
    # -S keeps site's .pth files from loading importlib.resources beforehand
    loaded = _modules_loaded_by_calls(calls, "-S")
    assert "stringnet.cli" in loaded
    assert "importlib.resources" not in loaded


@pytest.mark.parametrize(
    "argv", PROJECTOR_COMMANDS + STATE_SUM_COMMANDS, ids=lambda argv: argv[0]
)
def test_numeric_commands_load_no_rational_modules(argv):
    loaded = _modules_loaded_by_cli(*argv)
    assert "stringnet.diagrams" in loaded
    assert not loaded & RATIONAL_MODULES


@pytest.mark.parametrize("argv", PROJECTOR_COMMANDS, ids=lambda argv: argv[0])
def test_projector_commands_skip_the_rspin_module(argv):
    loaded = _modules_loaded_by_cli(*argv)
    assert "stringnet.diagrams" in loaded
    assert "stringnet.rspin" not in loaded


def test_frobenius_check_skips_the_rspin_module():
    """frobenius-check proves the algebra's axioms; only the state sum reads markings."""
    loaded = _modules_loaded_by_cli("frobenius-check", "--r", "3")
    assert "stringnet.frobenius" in loaded
    assert "stringnet.rspin" not in loaded


# The library builds its rationals, then `fractions` is loaded: a Fraction
# made afterwards must still meet those rationals as it did before.
LATE_FRACTIONS = """
import sys
from stringnet.category import CategoryParams, identity, loop_weight
from stringnet.coends import simples_object
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.frobenius import frobenius_zr
from stringnet.spaces import bp_scalar
params = CategoryParams(4)
quarter = loop_weight(0, "right", params)
inv_r = frobenius_zr(params).delta.entry(0, 0)
half_sum = bp_scalar(CategoryParams(2), 0)
one = CycNum.one(4)
assert one == 1 and 1 == one and one != 2 and hash(one) == hash(1)
assert "fractions" not in sys.modules, "the library loaded fractions"
from fractions import Fraction
assert quarter == inv_r == Fraction(1, 4) and Fraction(1, 4) == quarter
assert hash(quarter) == hash(inv_r) == hash(Fraction(1, 4))
assert quarter != Fraction(1, 3) and zeta_power(4, 1) != Fraction(1, 4)
assert half_sum == 1 and hash(half_sum) == hash(Fraction(1))
assert len({quarter, Fraction(1, 4)}) == 1
assert one * Fraction(1, 4) == quarter == Fraction(1, 4) * one
assert quarter + Fraction(3, 4) == 1 and zeta_power(4, 2) * Fraction(-1, 2) == Fraction(1, 2)
assert CycNum.from_rational(4, Fraction(2, 8)) == quarter
f = simples_object(4)
assert identity(f).scale(Fraction(1, 4)) == identity(f).scale(quarter)
assert identity(f).scale(Fraction(0)).columns == ((),) * f.dim
"""


def test_modular_commands_on_the_shipped_files_load_no_rational_modules():
    calls = []
    for name in ("trivial", "semion", "z3_pointed", "z5_pointed"):
        data = str(sample_path(name))
        labels = json.loads(Path(data).read_text())["labels"]
        calls.append(["validate-modular", "--data", data])
        j, u, v = labels[0], labels[-1], labels[1 % len(labels)]
        calls.append(["charge", "--data", data, "--j", j, "--u", u, "--v", v])
    loaded = _modules_loaded_by_calls(calls)
    assert "stringnet.modular" in loaded
    assert not loaded & RATIONAL_MODULES


def test_closed_form_counts_load_no_decimal():
    loaded = _modules_loaded_by_calls(
        [["sn-dim", "--r", "2", "--genus", "3"], ["rspin-count", "--r", "3", "--genus", "4"]]
    )
    assert "stringnet.rspin" in loaded
    assert "decimal" not in loaded


def test_a_size_refusal_loads_no_decimal(monkeypatch):
    # 2^18 plaquette-basis vectors are over the default cap; the short
    # exponent is printed in the error without `decimal`
    monkeypatch.delenv("STRINGNET_CAP", raising=False)
    loaded = _modules_loaded_by(
        "from stringnet.cli import main\n"
        "if main(['bp-operator', '--r', '2', '--genus', '9']) != 1:\n"
        "    raise SystemExit('bp-operator --r 2 --genus 9 was not refused')"
    )
    assert "stringnet.spaces" in loaded
    assert not loaded & RATIONAL_MODULES


def test_rationals_built_before_fractions_loads_agree_with_fractions():
    assert "fractions" in _modules_loaded_by(LATE_FRACTIONS)

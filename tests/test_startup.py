"""A fresh CLI process loads only the modules its subcommand runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringnet.modular import sample_path

SRC = Path(__file__).resolve().parents[1] / "src"
# The layers behind the diagram-built routes; none is needed to parse a
# command line, to print a schema, or by the r-spin and modular commands.
DIAGRAM_LAYERS = {
    f"stringnet.{name}"
    for name in ("category", "coends", "diagrams", "centre", "spaces", "frobenius")
}


def _modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter gains by running `code`."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _modules_loaded_by_cli(*argv: str) -> set[str]:
    return _modules_loaded_by(
        "from stringnet.cli import main\n"
        f"try:\n    main({list(argv)!r})\nexcept SystemExit:\n    pass"
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

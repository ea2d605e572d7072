"""CLI subcommands: values, schemas, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet import cli
from stringnet.caps import ENV_VAR
from stringnet.category import CategoryParams
from stringnet.centre import h_vector, list_centre_simples
from stringnet.cli import COMMANDS, _build_parser, main, schema_text
from stringnet.cyclotomic import CycNum, to_json, zeta_power
from stringnet.modular import sample_path

Z3 = str(sample_path("z3_pointed"))
SEMION = str(sample_path("semion"))


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    return code, capsys.readouterr().out


def _payload(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_sn_dim_example(capsys):
    payload = _payload(capsys, "sn-dim", "--r", "2", "--genus", "3")
    assert payload["dim"] == 64
    assert payload["inputs"] == {"r": 2, "genus": 3}
    assert isinstance(payload["reference"], str)


def test_rspin_count_example(capsys):
    assert _payload(capsys, "rspin-count", "--r", "3", "--genus", "2")["count"] == 0


def test_invalid_r_exits_2(capsys):
    code, out = _run(capsys, "sn-dim", "--r", "0", "--genus", "1")
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_flag_and_unknown_command_exit_2(capsys):
    code, out = _run(capsys, "sn-dim", "--r", "2")
    assert code == 2 and "error" in json.loads(out)
    code, out = _run(capsys, "does-not-exist")
    assert code == 2 and "error" in json.loads(out)
    code, out = _run(capsys, "sn-dim", "--r", "x", "--genus", "1")
    assert code == 2 and "error" in json.loads(out)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sn-dim", "--r", "x", "--genus", "1"], "argument --r: not an integer: 'x'"),
        (["annulus", "--r", "3", "--a", "1.5", "--b", "0"], "argument --a: not an integer: '1.5'"),
        (["sn-dim", "--r", "0", "--genus", "1"], "argument --r: must be >= 1, got 0"),
        (["sn-dim", "--r", "2", "--genus", "-1"], "argument --genus: must be >= 0, got -1"),
    ],
    ids=["r-not-integer", "a-not-integer", "r-below-1", "genus-below-0"],
)
def test_integer_flag_errors(capsys, argv, error):
    code, out = _run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": error}


def test_sphere_values(capsys):
    assert _payload(capsys, "sphere", "--r", "2")["dim"] == 1
    assert _payload(capsys, "sphere", "--r", "5")["dim"] == 0


def test_annulus_values(capsys):
    assert _payload(capsys, "annulus", "--r", "3", "--a", "1", "--b", "1")["dim"] == 3
    assert _payload(capsys, "annulus", "--r", "3", "--a", "1", "--b", "2")["dim"] == 0
    code, out = _run(capsys, "annulus", "--r", "3", "--a", "7", "--b", "1")
    assert code == 2 and "0..2" in json.loads(out)["error"]


def test_torus_basis_matches_library(capsys):
    payload = _payload(capsys, "torus-basis", "--r", "2")
    assert payload["rank"] == 4
    params = CategoryParams(2)
    want = [
        {"coords": [to_json(c) for c in h_vector(z, params).coords], "z": {"a": z.a, "k": z.k}}
        for z in list_centre_simples(params)
    ]
    assert payload["vectors"] == want


def test_bp_operator_torus_is_identity(capsys):
    payload = _payload(capsys, "bp-operator", "--r", "2", "--genus", "1")
    assert payload["rank"] == 4 and payload["dim"] == 4
    one = to_json(CategoryParams(2).zeta(0))
    for i in range(4):
        assert payload["matrix"][i][i] == one
    assert payload["scalar"] == one


@pytest.mark.parametrize(
    "argv, price",
    [
        (["bp-operator", "--r", "2", "--genus", "1"], 4),
        (["rspin-enumerate", "--r", "3", "--genus", "1"], 9),
        (["torus-basis", "--r", "2"], 16),
        (["sigma-f", "--r", "2", "--genus", "1", "--indices", "0,1"], 4),
        (["sphere", "--r", "3"], 9),
        (["annulus", "--r", "5", "--a", "1", "--b", "1"], 5),
        (["frobenius-check", "--r", "2"], 8),
    ],
    ids=[
        "bp-operator",
        "rspin-enumerate",
        "torus-basis",
        "sigma-f",
        "sphere",
        "annulus",
        "frobenius-check",
    ],
)
def test_the_cap_setting_prices_each_subcommand(capsys, monkeypatch, argv, price):
    monkeypatch.setenv(ENV_VAR, str(price - 1))
    code, out = _run(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert (payload["size"], payload["cap"]) == (price, price - 1)
    monkeypatch.setenv(ENV_VAR, str(price))
    _payload(capsys, *argv)


def test_sphere_and_annulus_are_priced_at_the_default_cap(capsys, monkeypatch):
    # sphere costs r^2 and annulus r, so the default cap admits r = 100 and 10,000;
    # frobenius-check costs r^3 and is refused from r = 22 on, before F is built
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert _payload(capsys, "sphere", "--r", "100")["dim"] == 0
    assert _payload(capsys, "annulus", "--r", "10000", "--a", "1", "--b", "1")["dim"] == 10000
    for argv, size in [
        (["sphere", "--r", "101"], 10201),
        (["annulus", "--r", "10001", "--a", "1", "--b", "1"], 10001),
        (["frobenius-check", "--r", "22"], 10648),
    ]:
        code, out = _run(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert (payload["size"], payload["cap"]) == (size, 10000)


DIGITS_GENUS = "25" + "0" * 4297 + "1"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sn-dim", "--r", "2", "--genus", "10000"], "r=2, genus=10000 has 6021 digits"),
        (["rspin-count", "--r", "2", "--genus", "10000"], "r=2, genus=10000 has 6021 digits"),
        (["bp-operator", "--r", "2", "--genus", "10000"], "needs 2^20000 > cap 10000"),
        (["rspin-enumerate", "--r", "2", "--genus", "100000"], "needs 2^200000 > cap 10000"),
        # 100 divides 2 - 2g, and 100^2g has 4g + 1 digits: a count of 4,301 digits
        (["sn-dim", "--r", "100", "--genus", DIGITS_GENUS],
         f"r=100, genus={DIGITS_GENUS} has n digits, n of 4301 digits, more than the 4300"),
        (["rspin-count", "--r", "100", "--genus", DIGITS_GENUS],
         f"r=100, genus={DIGITS_GENUS} has n digits, n of 4301 digits, more than the 4300"),
    ],
    ids=[
        "sn-dim", "rspin-count", "bp-operator", "rspin-enumerate",
        "sn-dim-digit-count", "rspin-count-digit-count",
    ],
)
def test_huge_powers_are_priced_without_being_built(argv, error):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ENV_VAR, None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stringnet.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, "")
    payload = json.loads(proc.stdout)
    assert error in payload["error"]
    assert payload.get("size", "absent") in (None, "absent")
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["rspin-check", "--r", "2", "--genus", "100000", "--indices", "0"], 2,
         "genus 100000 needs 200000 indices, got 1"),
        (["sigma-f", "--r", "2", "--genus", "100000", "--indices", "0"], 2,
         "genus 100000 needs 200000 indices, got 1"),
        (["bp-operator", "--r", "1", "--genus", "20000"], 1, "needs n = 40000 at r = 1 > cap 10000"),
        (["rspin-enumerate", "--r", "1", "--genus", "100000"], 1,
         "needs n = 200000 at r = 1 > cap 10000"),
    ],
    ids=["rspin-check", "sigma-f", "bp-operator-r1", "rspin-enumerate-r1"],
)
def test_genus_linear_work_is_priced_before_it_is_built(argv, code, error):
    # a wrong --indices count is refused before the 2g-edge decomposition is
    # built, and at r = 1, where r^n is 1, the cap prices n itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ENV_VAR, None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stringnet.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (code, "")
    payload = json.loads(proc.stdout)
    assert error in payload["error"]
    if code == 1:
        assert (payload["size"], payload["cap"]) == (2 * int(argv[4]), 10000)
    assert elapsed < 1


def test_sigma_f_is_priced_after_the_index_count(capsys, monkeypatch):
    # 2^14 state-sum coordinates are over the default cap
    monkeypatch.delenv(ENV_VAR, raising=False)
    code = main(["sigma-f", "--r", "2", "--genus", "7", "--indices", ",".join("0" * 14)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    payload = json.loads(captured.out)
    assert (payload["size"], payload["cap"]) == (16384, 10000)


def test_torus_basis_prices_its_r4_coordinates(capsys, monkeypatch):
    # r^2 vectors of r^2 coordinates: 3^4 = 81 is over a cap of 80, 2^4 is not
    monkeypatch.setenv(ENV_VAR, "80")
    code = main(["torus-basis", "--r", "3"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    payload = json.loads(captured.out)
    assert (payload["size"], payload["cap"]) == (81, 80)
    assert _payload(capsys, "torus-basis", "--r", "2")["rank"] == 4


# the longest genus Python parses by default; 2g then has 4,301 digits
LONG_GENUS = "5" + "0" * 4299


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bp-operator", "--r", "2", "--genus", LONG_GENUS],
         "string-net basis needs 2^n, n of 4301 digits, > cap 10000"),
        (["rspin-enumerate", "--r", "1", "--genus", LONG_GENUS],
         "edge-index assignments needs n of 4301 digits at r = 1 > cap 10000"),
    ],
    ids=["bp-operator", "rspin-enumerate-r1"],
)
def test_an_exponent_too_long_to_print_is_priced_by_its_digits(argv, error):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "stringnet.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    payload = json.loads(proc.stdout)
    assert error in payload["error"]
    assert (payload["size"], payload["cap"]) == (None, 10000)


def test_small_r1_requests_pass_the_cap(capsys):
    payload = _payload(capsys, "bp-operator", "--r", "1", "--genus", "3")
    assert (payload["dim"], payload["rank"]) == (1, 1)
    assert _payload(capsys, "sphere", "--r", "1")["dim"] == 1
    assert _payload(capsys, "rspin-enumerate", "--r", "1", "--genus", "2")["count"] == 1


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "3")
    code, out = _run(capsys, "bp-operator", "--r", "2", "--genus", "1")
    assert code == 1 and json.loads(out)["cap"] == 3
    # the setting is the cap's only one: no subcommand takes a --cap flag
    code, out = _run(capsys, "bp-operator", "--r", "2", "--genus", "1", "--cap", "10")
    assert (code, json.loads(out)) == (2, {"error": "unrecognized arguments: --cap 10"})
    # a setting below 1 or not an integer is refused
    for value, error in [("0", " must be positive, got 0"), ("x", "='x' is not an integer")]:
        monkeypatch.setenv(ENV_VAR, value)
        code, out = _run(capsys, "bp-operator", "--r", "2", "--genus", "1")
        assert (code, json.loads(out)) == (1, {"error": f"{ENV_VAR}{error}"})


def test_rspin_enumerate_order_and_sphere(capsys):
    payload = _payload(capsys, "rspin-enumerate", "--r", "2", "--genus", "1")
    assert payload["markings"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert payload["count"] == 4
    assert _payload(capsys, "rspin-enumerate", "--r", "3", "--genus", "0")["count"] == 0
    assert _payload(capsys, "rspin-enumerate", "--r", "2", "--genus", "0")["count"] == 1


def test_rspin_enumerate_prints_rows_without_building_markings(capsys, monkeypatch):
    from stringnet import Record, rspin
    from stringnet.rspin import MarkedPLCW

    built = []
    init = Record.__init__

    def counted(self, *values):
        if isinstance(self, MarkedPLCW):
            built.append(values)
        init(self, *values)

    calls = []
    census = rspin.enumerate_admissible

    def traced(complex, r, **kwargs):
        calls.append((len(complex.edges), r))
        return census(complex, r, **kwargs)

    # every MarkedPLCW, validated or wrapped from a census row, passes here
    monkeypatch.setattr(Record, "__init__", counted)
    # perfbench's tracer prices the census per call of this name
    monkeypatch.setattr(rspin, "enumerate_admissible", traced)
    payload = _payload(capsys, "rspin-enumerate", "--r", "9", "--genus", "1")
    assert payload["count"] == len(payload["markings"]) == 81
    assert payload["markings"][-1] == [8, 8]
    assert built == []
    assert calls == [(2, 9)]


def test_rspin_check(capsys):
    payload = _payload(capsys, "rspin-check", "--r", "2", "--genus", "1", "--indices", "1,1")
    assert payload["admissible"] is True and payload["residues"] == {"0": 0}
    payload = _payload(
        capsys, "rspin-check", "--r", "3", "--genus", "2", "--indices", "0,0,0,0"
    )
    assert payload["admissible"] is False and payload["residues"] == {"0": 2}
    code, out = _run(capsys, "rspin-check", "--r", "2", "--genus", "1", "--indices", "1")
    assert code == 2 and "needs 2 indices" in json.loads(out)["error"]


def test_sigma_f_success_and_rejections(capsys):
    payload = _payload(capsys, "sigma-f", "--r", "2", "--genus", "1", "--indices", "0,0")
    half = to_json(CycNum.from_rational(2, Fraction(1, 2)))
    assert payload["vector"]["coords"] == [half] * 4
    assert payload["marking"] == {"r": 2, "indices": {"0": 0, "1": 0}}
    code, out = _run(capsys, "sigma-f", "--r", "3", "--genus", "2", "--indices", "0,0,0,0")
    assert code == 1 and json.loads(out)["residues"] == {"0": 2}
    code, out = _run(capsys, "sigma-f", "--r", "2", "--genus", "0", "--indices", "1")
    assert code == 1 and "standard" in json.loads(out)["error"]


def test_sigma_f_validates_its_decomposition_once(capsys, monkeypatch):
    from stringnet.rspin import PLCW, standard_decomposition

    standard_decomposition.cache_clear()
    validated = []
    validate = PLCW._validate
    monkeypatch.setattr(PLCW, "_validate", lambda c: validated.append(c) or validate(c))
    _payload(capsys, "sigma-f", "--r", "2", "--genus", "2", "--indices", "0,1,1,0")
    assert len(validated) == 1


def test_frobenius_check(capsys):
    payload = _payload(capsys, "frobenius-check", "--r", "4")
    params = CategoryParams(4)
    assert payload["nakayama_diagonal"] == [to_json(params.zeta(-a)) for a in range(4)]
    assert payload["nakayama_order"] == 4
    assert _payload(capsys, "frobenius-check", "--r", "1")["nakayama_order"] == 1


def test_a_second_frobenius_check_reuses_the_proved_algebra(capsys, monkeypatch):
    from stringnet import frobenius

    first = _run(capsys, "frobenius-check", "--r", "4")
    evaluated = []
    real = frobenius.evaluate
    monkeypatch.setattr(frobenius, "evaluate", lambda *a: evaluated.append(a) or real(*a))
    assert _run(capsys, "frobenius-check", "--r", "4") == first and first[0] == 0
    assert evaluated == []


def test_sigma_f_reuses_the_handle_boxes_of_an_earlier_call(capsys, monkeypatch):
    from stringnet import frobenius

    _payload(capsys, "sigma-f", "--r", "2", "--genus", "1", "--indices", "0,1")
    boxes = dict(frobenius.frobenius_zr(CategoryParams(2)).handle_memo)
    built = []
    real = frobenius._chi_diagram
    monkeypatch.setattr(frobenius, "_chi_diagram", lambda *a: built.append(a[:2]) or real(*a))
    _payload(capsys, "sigma-f", "--r", "2", "--genus", "2", "--indices", "0,1,0,1")
    assert built == [] and frobenius.frobenius_zr(CategoryParams(2)).handle_memo[0, 1] is boxes[0, 1]


def test_a_warm_interpreter_prints_the_golden_bytes_twice(capsys, monkeypatch):
    """Every default-seed benchmark case, memory probe included, runs twice
    through this process's `main`, so a process-wide memo (products,
    decompositions, the Frobenius algebras) that changed an output shows as
    a digest off perfbench/golden.json, the fresh-process digests."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(root)  # the cases name their data files from the root
    monkeypatch.delenv(ENV_VAR, raising=False)
    from cases import DEFAULT_SEED, WORKLOADS, build_cases, build_probes, case_id
    from checks import digest, load_golden

    golden, wrong, runs = load_golden(), [], 0
    for workload in WORKLOADS:
        for argv in build_cases(workload, DEFAULT_SEED) + build_probes(workload, DEFAULT_SEED):
            for run in (1, 2):
                code, out = _run(capsys, *argv)
                runs += 1
                if code != 0 or digest(out.encode()) != golden.get(case_id(argv)):
                    wrong.append(f"run {run} of {case_id(argv)}: exit {code}")
    assert wrong == [] and runs == 116


def _key_order_cases(tmp_path) -> list[tuple[list[str], int]]:
    """(argv, exit code): the default-seed benchmark cases, `--approx` on each
    subcommand that renders scalars, a marking of 12 edges, whose edge ids
    sort differently as strings, and an error payload of every exit code."""
    from cases import DEFAULT_SEED, WORKLOADS, build_cases

    one = to_json(CycNum.one(2))
    singular = tmp_path / "singular.json"
    singular.write_text(
        json.dumps({"labels": ["0", "1"], "dual": [0, 1], "dims": [one, one], "s": [[one] * 2] * 2})
    )
    cases = [
        (argv, 0)
        for workload in WORKLOADS
        for argv in build_cases(workload, DEFAULT_SEED)
        if "--json-schema" not in argv  # prints a shipped file, not a payload
    ]
    cases += [
        (["torus-basis", "--r", "3", "--approx"], 0),
        (["bp-operator", "--r", "2", "--genus", "1", "--approx"], 0),
        (["sigma-f", "--r", "3", "--genus", "1", "--indices", "1,2", "--approx"], 0),
        (["frobenius-check", "--r", "4", "--approx"], 0),
        (["sigma-f", "--r", "2", "--genus", "6", "--indices", ",".join("01" * 6)], 0),
        (["rspin-check", "--r", "3", "--genus", "2", "--indices", "0,0,0,0"], 0),
        (["bp-operator", "--r", "2", "--genus", "9"], 1),  # SizeCapError
        (["sigma-f", "--r", "3", "--genus", "2", "--indices", "0,0,0,0"], 1),  # inadmissible
        (["charge", "--data", str(singular), "--j", "0", "--u", "0", "--v", "0"], 1),
        (["charge", "--data", Z3, "--j", "x", "--u", "1", "--v", "1"], 1),  # ValueError
        (["sn-dim", "--r", "0", "--genus", "1"], 2),  # argparse
        (["charge", "--data", "/no/such.json", "--j", "0", "--u", "0", "--v", "0"], 2),
    ]
    return cases


def test_every_payload_is_built_in_key_order(capsys, monkeypatch, tmp_path):
    """`_emit` orders only the top level, so every nested dict must come in
    key order from the handler; then stdout is the sorted-key dump."""
    from stringnet import spaces

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(root)  # the cases name their data files from the root
    monkeypatch.delenv(ENV_VAR, raising=False)
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: emitted.append(payload) or emit(payload))

    def check(argv, want):
        emitted.clear()
        code, out = _run(capsys, *argv)
        assert code == want and len(emitted) == 1, (argv, code, out)
        payload = emitted[0]
        top_sorted = {key: payload[key] for key in sorted(payload)}
        want_text = json.dumps(payload, indent=2, sort_keys=True)
        assert json.dumps(top_sorted, indent=2) == want_text, argv
        assert out == want_text + "\n", argv

    for argv, want in _key_order_cases(tmp_path):
        check(argv, want)
    # exit 3: the plaquette theorem broken as in _BROKEN_THEOREM below
    monkeypatch.setattr(spaces, "bp_scalar", lambda params, genus: CycNum.zero(params.r))
    check(["bp-operator", "--r", "2", "--genus", "1"], 3)


def test_charge_values_and_errors(capsys):
    assert _payload(capsys, "charge", "--data", Z3, "--j", "1", "--u", "2", "--v", "1")["dim"] == 1
    assert _payload(capsys, "charge", "--data", Z3, "--j", "1", "--u", "1", "--v", "2")["dim"] == 0
    assert _payload(capsys, "charge", "--data", SEMION, "--j", "s", "--u", "1", "--v", "1")["dim"] == 1
    code, out = _run(capsys, "charge", "--data", Z3, "--j", "1", "--u", "9", "--v", "1")
    assert code == 1 and "unknown label" in json.loads(out)["error"]
    code, out = _run(capsys, "charge", "--data", "/no/such.json", "--j", "1", "--u", "1", "--v", "1")
    assert code == 2


def test_validate_modular(capsys, tmp_path):
    payload = _payload(capsys, "validate-modular", "--data", Z3)
    assert payload == {
        "inputs": {"data": Z3},
        "reference": payload["reference"],
        "valid": True,
        "violations": [],
    }
    broken = json.loads(sample_path("z3_pointed").read_text())
    broken["s"][0][1] = {"order": 3, "coeffs": ["0/1", "1/1"]}
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken))
    payload = _payload(capsys, "validate-modular", "--data", str(bad))
    assert payload["valid"] is False
    assert payload["inputs"] == {"data": str(bad)}
    assert any("symmetric" in v for v in payload["violations"])
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[not json")
    code, out = _run(capsys, "validate-modular", "--data", str(garbage))
    assert code == 1
    code, out = _run(capsys, "validate-modular", "--data", str(tmp_path / "absent.json"))
    assert code == 2


def test_malformed_modular_files_give_json_errors(capsys, tmp_path):
    zero_denominator = tmp_path / "zero_denominator.json"
    zero_denominator.write_text(
        json.dumps(
            {
                "labels": ["1"],
                "dual": [0],
                "dims": [{"order": 1, "coeffs": ["1/0"]}],
                "s": [[{"order": 1, "coeffs": ["1/1"]}]],
            }
        )
    )
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"labels": [], "dual": [], "dims": [], "s": []}))
    charge = ("--j", "1", "--u", "1", "--v", "1")
    code, out = _run(capsys, "validate-modular", "--data", str(zero_denominator))
    assert code == 1 and "zero denominator" in json.loads(out)["error"]
    code, out = _run(capsys, "charge", "--data", str(zero_denominator), *charge)
    assert code == 1 and "zero denominator" in json.loads(out)["error"]
    float_order = tmp_path / "float_order.json"
    float_order.write_text(zero_denominator.read_text().replace('"order": 1', '"order": 1.5'))
    code, out = _run(capsys, "validate-modular", "--data", str(float_order))
    assert code == 1 and "order must be an integer" in json.loads(out)["error"]
    payload = _payload(capsys, "validate-modular", "--data", str(empty))
    assert payload["valid"] is False
    assert payload["violations"] == ["the label list is empty"]
    code, out = _run(capsys, "charge", "--data", str(empty), *charge)
    assert code == 1 and json.loads(out)["violations"] == ["the label list is empty"]
    # every other identity holds, and charge would answer dim 1 for x
    one, zero = ({"order": 1, "coeffs": [c]} for c in ("1/1", "0/1"))
    vanishing_dim = tmp_path / "vanishing_dim.json"
    s = [[one, zero], [zero, one]]
    vanishing_dim.write_text(
        json.dumps({"labels": ["1", "x"], "dual": [0, 1], "dims": [one, zero], "s": s})
    )
    payload = _payload(capsys, "validate-modular", "--data", str(vanishing_dim))
    assert payload["valid"] is False
    assert payload["violations"] == ["dim of x vanishes"]
    code, out = _run(
        capsys, "charge", "--data", str(vanishing_dim), "--j", "1", "--u", "x", "--v", "x"
    )
    assert code == 1 and json.loads(out)["violations"] == ["dim of x vanishes"]


def _one_label(order: int, coeffs: list) -> dict:
    cell = {"order": order, "coeffs": coeffs}
    return {"labels": ["1"], "dual": [0], "dims": [cell], "s": [[cell]]}


def _pointed(n: int) -> dict:
    """Z_n with s_{a,b} = zeta_n^{ab}: valid modular data, n labels at conductor n."""
    return {
        "labels": [str(a) for a in range(n)],
        "dual": [-a % n for a in range(n)],
        "dims": [to_json(CycNum.one(n))] * n,
        "s": [[to_json(zeta_power(n, a * b)) for b in range(n)] for a in range(n)],
    }


@pytest.mark.parametrize("command", ["validate-modular", "charge"])
@pytest.mark.parametrize(
    "obj, size",
    [
        (_one_label(30030, ["1/1"]), 30030**2),  # cyclotomic_polynomial(30030) alone takes a minute
        (_one_label(9973, ["1/1"] + ["0/1"] * 9971), 9973**2),  # 100 KB, n powers of zeta stored
        (_one_label(10**6, ["1/1"]), 10**12),
        (_pointed(40), 1600**2),  # valid, a 640 x 640 rank over Q
    ],
    ids=["conductor-30030", "conductor-9973", "conductor-1e6", "z40-pointed"],
)
def test_modular_data_is_priced_before_any_field_element_is_built(tmp_path, command, obj, size):
    # (labels x largest order)^2, read from the raw JSON
    data = tmp_path / "data.json"
    data.write_text(json.dumps(obj))
    argv = [command, "--data", str(data)]
    if command == "charge":
        argv += ["--j", "1", "--u", "1", "--v", "1"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ENV_VAR, None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stringnet.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, "")
    payload = json.loads(proc.stdout)
    assert (payload["size"], payload["cap"]) == (size, 10000)
    assert "(labels x conductor)^2 of the modular data" in payload["error"]
    assert elapsed < 1


def test_the_cap_setting_admits_modular_data_past_the_default(capsys, tmp_path, monkeypatch):
    # one label at conductor 101 prices at 101^2, just past the default cap
    data = tmp_path / "data.json"
    data.write_text(json.dumps(_one_label(101, ["1/1"] + ["0/1"] * 99)))
    charge = ["charge", "--data", str(data), "--j", "1", "--u", "1", "--v", "1"]
    monkeypatch.delenv(ENV_VAR, raising=False)
    for argv in (["validate-modular", "--data", str(data)], charge):
        code, out = _run(capsys, *argv)
        assert code == 1
        assert (json.loads(out)["size"], json.loads(out)["cap"]) == (10201, 10000)
    monkeypatch.setenv(ENV_VAR, "10201")
    assert _payload(capsys, "validate-modular", "--data", str(data))["valid"] is True
    assert _payload(capsys, *charge)["dim"] == 1
    # z5_pointed, the largest shipped sample, prices at 25^2
    monkeypatch.setenv(ENV_VAR, "624")
    code, out = _run(capsys, "validate-modular", "--data", str(sample_path("z5_pointed")))
    assert (code, json.loads(out)["size"]) == (1, 625)


def _example_argv(name):
    return {
        "sn-dim": ["--r", "2", "--genus", "2"],
        "sphere": ["--r", "3"],
        "torus-basis": ["--r", "2"],
        "bp-operator": ["--r", "2", "--genus", "1"],
        "annulus": ["--r", "2", "--a", "0", "--b", "0"],
        "rspin-count": ["--r", "2", "--genus", "3"],
        "rspin-enumerate": ["--r", "3", "--genus", "1"],
        "rspin-check": ["--r", "2", "--genus", "1", "--indices", "0,1"],
        "sigma-f": ["--r", "3", "--genus", "1", "--indices", "1,2"],
        "frobenius-check": ["--r", "3"],
        "charge": ["--data", Z3, "--j", "2", "--u", "1", "--v", "2"],
        "validate-modular": ["--data", SEMION],
    }[name]


def _subcommands(parser) -> dict:
    """The subcommand parsers a top-level parser holds, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _outcome(capsys, call):
    """What a call shows a user: its result or exit code, stdout, stderr."""
    try:
        result = call()
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _parse_outcome(capsys, parser, argv):
    return _outcome(capsys, lambda: vars(parser.parse_args(argv)))


def _record_parsers(monkeypatch) -> list:
    """The prog of every `_Parser` built from now on, in order."""
    cli._build_parser.cache_clear()  # so the parsers earlier tests built are built again
    built = []
    init = cli._Parser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recording_init)
    return built


@pytest.mark.parametrize("name", COMMANDS)
def test_the_one_subcommand_parser_parses_as_the_full_one(capsys, monkeypatch, name):
    built = _record_parsers(monkeypatch)
    one = _build_parser(name)
    assert built == [f"stringnet {name}"]
    example = _example_argv(name)
    shapes = [
        ["--help"],
        ["--json-schema"],
        [],  # every required flag missing
        [*example, "--r", "x"],
        [*example, "--r", "0"],
        [*example, "--bogus"],
        [*example, "extra"],
        example,
    ]
    for tail in shapes:
        assert _parse_outcome(capsys, one, tail) == _parse_outcome(
            capsys, _build_parser(), [name, *tail]
        ), tail


@pytest.mark.parametrize("name", ["rspin-check", "sigma-f"])
def test_a_negative_index_list_reads_the_same_in_both_spellings(capsys, name):
    head = ["--r", "2", "--genus", "1"]
    spaced, joined = [*head, "--indices", "-1,5"], [*head, "--indices=-1,5"]
    ran = [_outcome(capsys, lambda argv=argv: main([name, *argv])) for argv in (spaced, joined)]
    assert ran[0] == ran[1] and ran[0][0] == 0 and ran[0][2] == ""
    if name == "sigma-f":  # indices count mod r
        assert json.loads(ran[0][1])["marking"]["indices"] == {"0": 1, "1": 1}
    one, full = _build_parser(name), _build_parser()
    parsed = [
        _parse_outcome(capsys, parser, argv)
        for argv in (spaced, joined)
        for parser, argv in ((one, argv), (full, [name, *argv]))
    ]
    assert parsed[0][0]["indices"] == [-1, 5]
    assert parsed.count(parsed[0]) == 4
    # a malformed list still starts with a minus sign, so it is still an option
    malformed = [*head, "--indices", "-1,x"]
    for parser, argv in ((one, malformed), (full, [name, *malformed])):
        code, out, _ = _parse_outcome(capsys, parser, argv)
        assert code == 2
        assert json.loads(out) == {"error": "argument --indices: expected one argument"}


@pytest.mark.parametrize(
    "argv", [[], ["--help"], ["no-such-command"], ["--r", "2", "sn-dim"]], ids=str
)
def test_top_level_help_and_errors_get_the_full_parser(capsys, monkeypatch, argv):
    built = _record_parsers(monkeypatch)
    outcome = _outcome(capsys, lambda: main(argv))
    assert built == ["stringnet", *(f"stringnet {name}" for name in COMMANDS)]
    assert outcome == _parse_outcome(capsys, _build_parser(), argv)


def test_a_subcommand_run_builds_only_its_own_parser(capsys, monkeypatch):
    built = _record_parsers(monkeypatch)
    _payload(capsys, "sn-dim", "--r", "2", "--genus", "1")
    assert built == ["stringnet sn-dim"]
    assert tuple(_subcommands(_build_parser())) == COMMANDS


@pytest.mark.parametrize(
    "argv", [["sn-dim", "--r", "2", "--genus", "1"], ["sigma-f", "--help"], ["--help"]], ids=str
)
def test_a_second_call_builds_no_parser(capsys, monkeypatch, argv):
    built = _record_parsers(monkeypatch)
    first = _outcome(capsys, lambda: main(argv))
    assert built
    built.clear()
    assert _outcome(capsys, lambda: main(argv)) == first
    assert built == []


def test_a_shared_parser_keeps_nothing_between_calls(capsys):
    cli._build_parser.cache_clear()  # the first round builds its parsers, the second reuses them
    calls = [
        ["sn-dim", "--r", "2"],  # a usage error
        ["bp-operator", "--json-schema"],
        ["bp-operator", "--r", "2", "--genus", "1", "--approx"],
        ["bp-operator", "--r", "2", "--genus", "1"],
        ["bp-operator", "--help"],
        ["--help"],
        ["no-such-command"],
    ]

    def outcomes():
        return [_outcome(capsys, lambda: main(argv)) for argv in calls]

    first = outcomes()
    assert outcomes() == first
    assert [code for code, _, _ in first] == [2, 0, 0, 0, 0, 0, 2]
    assert "approx" in first[2][1] and "approx" not in first[3][1]


def test_each_distinct_scalar_is_rendered_once_per_call(capsys, monkeypatch):
    rendered = []
    render = cli._render

    def recording_render(a, approx, cyclotomic):
        rendered.append(a)
        return render(a, approx, cyclotomic)

    monkeypatch.setattr(cli, "_render", recording_render)
    for _ in range(2):  # the memo dies with its call: the second run renders again
        rendered.clear()
        payload = _payload(capsys, "bp-operator", "--r", "2", "--genus", "1")
        # the scalar and the 16 cells of the identity hold two values, one and zero
        assert sorted(map(str, rendered)) == ["CycNum(2, [0])", "CycNum(2, [1])"]
        one, zero = to_json(CycNum.one(2)), to_json(CycNum.zero(2))
        assert payload["scalar"] == one
        assert payload["matrix"] == [[one if i == j else zero for j in range(4)] for i in range(4)]


def test_approx_choice_does_not_outlive_its_call(capsys):
    def scalars(payload):
        if "vectors" in payload:  # torus-basis
            return [c for v in payload["vectors"] for c in v["coords"]]
        return [payload["scalar"], *(c for row in payload["matrix"] for c in row)]

    approx_torus = _payload(capsys, "torus-basis", "--r", "2", "--approx")
    plain = [
        _payload(capsys, "torus-basis", "--r", "2"),
        _payload(capsys, "bp-operator", "--r", "2", "--genus", "1"),
    ]
    approx_bp = _payload(capsys, "bp-operator", "--r", "2", "--genus", "1", "--approx")
    for payload in plain:
        assert not any("approx" in c for c in scalars(payload))
    for payload in (approx_torus, approx_bp):
        assert all("approx" in c for c in scalars(payload))


# Flag values the fuzz draws from: cheap valid sizes (r <= 3, genus <= 1)
# beside malformed and out-of-range ones.
_FUZZ_VALUES = {
    "r": ["1", "2", "3", "0", "-1", "x", ""],
    "genus": ["0", "1", "-1", "1.5"],
    "a": ["0", "1", "5", "x"],
    "b": ["0", "2", "-1"],
    "indices": ["0", "0,1", "1,2", "1,1,1", "x", "0,,1"],
    "orientation": ["anticlockwise", "clockwise", "sideways"],
    "data": [Z3, SEMION, "/no/such.json"],
    "j": ["0", "1", "s", "x"],
    "u": ["1", "2", "s"],
    "v": ["1", "2", "x"],
}


@st.composite
def _invocations(draw):
    name = draw(st.sampled_from(COMMANDS))
    pieces = []
    for action in _subcommands(_build_parser())[name]._actions:
        if action.dest in ("help", "json_schema") or not draw(st.integers(0, 7)):
            continue  # each flag is missing one time in eight
        flag = action.option_strings[0]
        values = _FUZZ_VALUES.get(action.dest)
        pieces.append([flag] if values is None else [flag, draw(st.sampled_from(values))])
    extras = [["extra"], ["--bogus"], ["--r"], ["--json-schema"]]
    pieces += draw(st.lists(st.sampled_from(extras), max_size=1))
    return [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@settings(max_examples=150, deadline=None)
@given(_invocations())
def test_any_invocation_prints_one_json_document_and_no_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    json.loads(out.getvalue())  # exactly one document: trailing text fails to parse
    assert err.getvalue() == ""


def test_every_payload_validates_against_its_schema(capsys):
    for name in COMMANDS:
        payload = _payload(capsys, name, *_example_argv(name))
        schema = json.loads(schema_text(name))
        jsonschema.Draft202012Validator(schema).validate(payload)


def test_reruns_are_byte_identical(capsys):
    for name in COMMANDS:
        argv = _example_argv(name)
        code1, first = _run(capsys, name, *argv)
        code2, second = _run(capsys, name, *argv)
        assert (code1, first) == (code2, second) == (0, first)


def test_json_schema_flag_prints_shipped_file(capsys):
    for name in COMMANDS:
        code, out = _run(capsys, name, "--json-schema")
        assert code == 0
        assert out == schema_text(name)
        json.loads(out)
    with pytest.raises(ValueError):
        schema_text("no-such-command")


def test_approx_rendering_is_opt_in(capsys):
    plain = _payload(capsys, "torus-basis", "--r", "2")
    approx = _payload(capsys, "torus-basis", "--r", "2", "--approx")
    assert "approx" not in json.dumps(plain)
    first = approx["vectors"][0]["coords"][0]
    assert "approx" in first
    # exact fields are unchanged by the rendering flag
    assert plain["vectors"][0]["coords"][0]["coeffs"] == first["coeffs"]


# Breaks one theorem (the plaquette operator equals the analytic scalar
# times the identity) and runs bp-operator with assert statements stripped.
_BROKEN_THEOREM = """
import sys
from stringnet import cli, spaces
from stringnet.cyclotomic import CycNum
if __debug__:
    sys.exit("expected python -O")
spaces.bp_scalar = lambda params, genus: CycNum.zero(params.r)
sys.exit(cli.main(["bp-operator", "--r", "2", "--genus", "1"]))
"""


def _invariant_payload_under_optimize(script: str) -> dict:
    """Run `script` under python -O, expect exit 3 and return its JSON payload."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    return json.loads(proc.stdout)


def test_invariant_failure_exits_3_under_optimize():
    payload = _invariant_payload_under_optimize(_BROKEN_THEOREM)
    assert payload["invariant"] == "plaquette operator is the analytic scalar times the identity"
    assert "invariant violated" in payload["error"]


# Moves one entry of the coend split H -> L^dual (x) L^dual (x) L (x) L to the
# second column, so the loop sums the plaquette operator is assembled from are
# no longer the scalar times the identity, and runs bp-operator under -O.
_MOVED_COEND_SPLIT_ENTRY = """
import sys
from stringnet import cli, spaces
from stringnet.category import GradedMorphism
from stringnet.coends import coend_split
if __debug__:
    sys.exit("expected python -O")
good = coend_split(2)
entries = good._entries()
row = next(i for i, j in entries if j == 0)
entries[row, 1] = entries.pop((row, 0))
spaces.coend_split = lambda r: GradedMorphism.from_entries(good.source, good.target, entries)
sys.exit(cli.main(["bp-operator", "--r", "2", "--genus", "1"]))
"""


def test_moved_coend_split_entry_exits_3_under_optimize():
    payload = _invariant_payload_under_optimize(_MOVED_COEND_SPLIT_ENTRY)
    assert payload["invariant"] == "plaquette operator is the analytic scalar times the identity"


# Weighs one pair of the left cap by zeta, so the mirrored rotation is no
# longer the inverse of the Nakayama automorphism, and runs frobenius-check
# under -O.
_REWEIGHTED_LEFT_CAP = """
import sys
from stringnet import cli, diagrams, frobenius
from stringnet.category import GradedMorphism
from stringnet.cyclotomic import zeta_power
if __debug__:
    sys.exit("expected python -O")
def cap_left(x):
    good = diagrams.cap_left(x)
    entries = good._entries()
    key = max(entries)
    entries[key] = entries[key] * zeta_power(x.r, 1)
    return GradedMorphism.from_entries(good.source, good.target, entries)
frobenius.cap_left = cap_left
sys.exit(cli.main(["frobenius-check", "--r", "3"]))
"""


def test_reweighted_left_cap_exits_3_under_optimize():
    payload = _invariant_payload_under_optimize(_REWEIGHTED_LEFT_CAP)
    assert payload["invariant"] == "Nakayama inverse"


def test_closed_stdout_exits_quietly():
    # the reader takes 10 bytes of a ~0.5 MB payload and closes the pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stringnet.cli", "bp-operator", "--r", "3", "--genus", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert head == b'{\n  "dim":'
    assert stderr == b""

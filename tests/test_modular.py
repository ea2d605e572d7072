"""Modular data files, validation gates, sphere charge."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stringnet import InvariantError, modular
from stringnet.caps import ENV_VAR, SizeCapError
from stringnet.cli import main
from stringnet.cyclotomic import CycNum, degree, to_json, zeta_power
from stringnet.modular import (
    ModularData,
    ModularDataError,
    load_modular_data,
    modular_data_from_json,
    sample_path,
    sphere_charge_dim,
)

SAMPLES = ("trivial", "semion", "z3_pointed", "z5_pointed")


def _load(name):
    return load_modular_data(sample_path(name))


def _sample_json(name):
    """A shipped sample file, read as a plain dict."""
    return json.loads(sample_path(name).read_text())


def test_sample_files_load():
    sizes = {"trivial": 1, "semion": 2, "z3_pointed": 3, "z5_pointed": 5}
    for name in SAMPLES:
        m = _load(name)
        n = sizes[name]
        assert len(m.labels) == n
        assert m.global_dim == CycNum.from_rational(m.order, n)
        # computed once, beside the fields that equality, hashing and repr read
        assert m.global_dim is m.global_dim and "global_dim" not in m._fields


def _assert_theta_oracle(name, labels, conductor, c):
    """Z_k labels with theta_a = zeta^{c a^2}: dims 1, dual a -> -a, and
    s_{a,b} = theta_{a+b} / (theta_a theta_b) = zeta^{2cab}, the quotient
    checked by cross-multiplying."""
    m = _load(name)
    k = len(labels)
    theta = [zeta_power(conductor, c * a * a) for a in range(k)]
    assert m.labels == labels
    assert m.dual == tuple((-a) % k for a in range(k))
    assert m.dims == (CycNum.one(conductor),) * k
    for a in range(k):
        for b in range(k):
            assert m.s_unnorm[a][b] * theta[a] * theta[b] == theta[(a + b) % k]
            assert m.s_unnorm[a][b] == zeta_power(conductor, 2 * c * a * b)


def test_semion_matches_theta_oracle():
    # theta_1 = i, indices in Z_2
    _assert_theta_oracle("semion", ("1", "s"), 4, 1)


def test_z3_matches_theta_oracle():
    _assert_theta_oracle("z3_pointed", ("0", "1", "2"), 3, 1)


def test_trivial_and_z5_match_theta_oracle():
    _assert_theta_oracle("trivial", ("0",), 1, 0)
    _assert_theta_oracle("z5_pointed", ("0", "1", "2", "3", "4"), 5, 2)


def test_degenerate_s_rejected():
    one = CycNum.one(1)
    with pytest.raises(ModularDataError) as exc:
        ModularData(("0", "x"), (0, 1), (one, one), ((one, one), (one, one)))
    assert any("not invertible" in v for v in exc.value.violations)


def test_violations_name_the_identity():
    base = _sample_json("z3_pointed")

    def broken(mutate):
        obj = json.loads(json.dumps(base))
        mutate(obj)
        with pytest.raises(ModularDataError) as exc:
            modular_data_from_json(obj)
        return exc.value.violations

    w = zeta_power(3, 1)

    def set_s(obj, i, j, val):
        obj["s"][i][j] = {"order": 3, "coeffs": val}

    v = broken(lambda o: set_s(o, 0, 1, ["0/1", "1/1"]))
    assert any("symmetric" in x for x in v)
    v = broken(lambda o: o.__setitem__("dual", [1, 2, 0]))
    assert any("involution" in x for x in v)
    v = broken(lambda o: o["dims"].__setitem__(0, {"order": 3, "coeffs": ["2/1", "0/1"]}))
    assert any("unit" in x for x in v)
    v = broken(lambda o: o["dims"].__setitem__(1, {"order": 3, "coeffs": ["0/1", "1/1"]}))
    assert any("disagrees with dim" in x for x in v)
    assert w  # silence linters; w used only as a sanity anchor for orders


def test_malformed_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_modular_data(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ValueError):
        load_modular_data(bad)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"labels": ["0"]}))
    with pytest.raises(ValueError, match="not a modular-data object"):
        load_modular_data(partial)
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
    with pytest.raises(ValueError, match="zero denominator"):
        load_modular_data(zero_denominator)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"labels": [], "dual": [], "dims": [], "s": []}))
    with pytest.raises(ModularDataError, match="label list is empty"):
        load_modular_data(empty)
    number_labels = tmp_path / "number_labels.json"
    number_labels.write_text(json.dumps({**_sample_json("semion"), "labels": 5}))
    with pytest.raises(ValueError, match="not a modular-data object"):
        load_modular_data(number_labels)
    fractional_dual = tmp_path / "fractional_dual.json"
    fractional_dual.write_text(json.dumps({**_sample_json("trivial"), "dual": [0.5]}))
    with pytest.raises(ModularDataError, match="dual entries must be integers"):
        load_modular_data(fractional_dual)
    string_labels = tmp_path / "string_labels.json"
    string_labels.write_text(json.dumps({**_sample_json("semion"), "labels": "1s"}))
    with pytest.raises(ValueError, match="labels must be a list of strings"):
        load_modular_data(string_labels)
    # every other identity holds for this file
    one, zero = ({"order": 1, "coeffs": [c]} for c in ("1/1", "0/1"))
    vanishing_dim = tmp_path / "vanishing_dim.json"
    s = [[one, zero], [zero, one]]
    vanishing_dim.write_text(
        json.dumps({"labels": ["1", "x"], "dual": [0, 1], "dims": [one, zero], "s": s})
    )
    with pytest.raises(ModularDataError, match="dim of x vanishes"):
        load_modular_data(vanishing_dim)


def test_files_are_priced_from_the_raw_json(monkeypatch):
    # (labels x largest integer order)^2, before any field element is built
    monkeypatch.delenv(ENV_VAR, raising=False)
    cell = {"order": 30030, "coeffs": ["1/1"]}
    obj = {"labels": ["1", "x"], "dual": [0, 1], "dims": [cell, cell], "s": [[cell]]}
    with pytest.raises(SizeCapError) as exc:
        modular_data_from_json(obj)
    assert (exc.value.size, exc.value.cap) == (60060**2, 10000)
    # the largest order counts, wherever it sits in dims or s
    small = {"order": 3, "coeffs": ["1/1", "0/1"]}
    obj = {**obj, "dims": [small, small], "s": [[small, small], [small, cell]]}
    with pytest.raises(SizeCapError, match="needs 3607203600 > cap"):
        modular_data_from_json(obj)
    # a malformed part is left out of the price, so the parse names it
    for order in ("30030", True, 30030.0):
        bad = {"order": order, "coeffs": ["1/1"]}
        with pytest.raises(ValueError, match="order must be an integer"):
            modular_data_from_json({"labels": ["1"], "dual": [0], "dims": [bad], "s": [[bad]]})
    with pytest.raises(ValueError, match="not a modular-data object"):
        modular_data_from_json([cell])
    with pytest.raises(SizeCapError, match=f"needs {30030**2} > cap"):
        modular_data_from_json({"labels": 5, "dims": [cell]})
    # the shipped samples price at 1, 64, 81 and 625
    monkeypatch.setenv(ENV_VAR, "625")
    for name in SAMPLES:
        modular_data_from_json(_sample_json(name))


def test_a_shape_that_cannot_fit_the_labels_is_refused_unparsed(monkeypatch):
    # one label and 3,000 dims at order 100: the lengths alone refuse it
    cell = {"order": 100, "coeffs": [1] + [0] * 39}
    long_dims = {"labels": ["1"], "dual": [0], "dims": [cell] * 3000, "s": [[cell]]}
    mixed = {**long_dims, "dims": [cell, {"order": 3, "coeffs": [1, 0]}], "s": [[cell], [cell]]}

    def parsed(cells):
        return [CycNum(c["order"], c["coeffs"]) for c in cells]

    # the payload is the one the parsed entries give
    expected = []
    for obj in (long_dims, mixed):
        with pytest.raises(ModularDataError) as exc:
            ModularData(obj["labels"], obj["dual"], parsed(obj["dims"]), map(parsed, obj["s"]))
        expected.append(exc.value.violations)
    assert expected == [
        ("dual and dims must both have length 1",),
        (
            "dual and dims must both have length 1",
            "s must be a 1x1 matrix",
            "entries use mixed cyclotomic orders",
        ),
    ]

    def unparsed(entry):
        raise AssertionError("from_json called on a file the shape refuses")

    monkeypatch.setattr(modular, "from_json", unparsed)
    for obj, violations in zip((long_dims, mixed), expected):
        with pytest.raises(ModularDataError) as exc:
            modular_data_from_json(obj)
        assert exc.value.violations == violations


def test_unknown_label():
    m = _load("semion")
    with pytest.raises(ValueError, match="unknown label"):
        m.index("f")
    with pytest.raises(ValueError, match="unknown label"):
        sphere_charge_dim("s", "f", "1", m)


def _ising():
    # dims (1, 1, sqrt2) with sqrt2 = zeta_8 + zeta_8^{-1}; all labels self-dual
    one = CycNum.one(8)
    minus = CycNum.from_rational(8, -1)
    r2 = zeta_power(8, 1) + zeta_power(8, -1)
    zero = CycNum.zero(8)
    return ModularData(
        ("1", "f", "sigma"),
        (0, 1, 2),
        (one, one, r2),
        ((one, one, r2), (one, one, minus * r2), (r2, minus * r2, zero)),
    )


def test_noninvertible_label_rejected():
    m = _ising()
    with pytest.raises(ValueError, match="not invertible"):
        sphere_charge_dim("sigma", "1", "1", m)
    # the fermion is invertible and order 2, so it charges the unit
    assert sphere_charge_dim("f", "1", "1", m) == 1
    assert sphere_charge_dim("f", "f", "f", m) == 0


def test_charge_tables_on_pointed_data():
    for name, n in [("z3_pointed", 3), ("z5_pointed", 5)]:
        m = _load(name)
        for j in range(n):
            jj = str((2 * j) % n)
            expected = {(jj, str((-2 * j) % n))}
            hits = {
                (u, v)
                for u in m.labels
                for v in m.labels
                if sphere_charge_dim(str(j), u, v, m) == 1
            }
            assert hits == expected


def test_charge_spec_values():
    m = _load("z3_pointed")
    assert sphere_charge_dim("1", "2", "1", m) == 1
    for u in range(3):
        for v in range(3):
            if (u, v) != (2, 1):
                assert sphere_charge_dim("1", str(u), str(v), m) == 0
    sem = _load("semion")
    assert sphere_charge_dim("s", "1", "1", sem) == 1
    assert sphere_charge_dim("s", "s", "s", sem) == 0


def test_exactly_one_charge_sector():
    for name in SAMPLES:
        m = _load(name)
        for j in m.labels:
            total = sum(
                sphere_charge_dim(j, u, m.labels[m.dual[m.index(u)]], m)
                for u in m.labels
            )
            assert total == 1


def test_unit_charge_only_at_unit():
    for name in SAMPLES:
        m = _load(name)
        unit = m.labels[0]
        for u in m.labels:
            for v in m.labels:
                want = 1 if (u, v) == (unit, unit) else 0
                assert sphere_charge_dim(unit, u, v, m) == want


def test_spherical_iff_unit_charge():
    # deforming by J is spherical iff dim_r(X) = s_{J,X}/s_{J,1} equals
    # dim_l(X) = s_{J*,X}/s_{J*,1} for every X, checked by cross-multiplying
    for m in [_load(name) for name in SAMPLES] + [_ising()]:
        unit = m.labels[0]
        s = m.s_unnorm
        for ji, j in enumerate(m.labels):
            if m.dims[ji] * m.dims[ji] != 1:
                continue  # sigma of Ising is not invertible
            jd = m.dual[ji]
            spherical = all(
                s[ji][x] * s[jd][0] == s[jd][x] * s[ji][0] for x in range(len(m.labels))
            )
            charged_at_unit = sphere_charge_dim(j, unit, unit, m) == 1
            assert spherical == charged_at_unit


def test_json_round_trip():
    # the shipped files store every number in the canonical form to_json writes
    for name in SAMPLES:
        obj = _sample_json(name)
        m = modular_data_from_json(obj)
        assert list(m.labels) == obj["labels"] and list(m.dual) == obj["dual"]
        assert [to_json(d) for d in m.dims] == obj["dims"]
        assert [[to_json(e) for e in row] for row in m.s_unnorm] == obj["s"]


# -- one proof per file content ----------------------------------------------


def _cli(capsys, *argv) -> tuple[int, str]:
    """Exit code and stdout of `main(argv)` in this interpreter."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    return code, capsys.readouterr().out


def _fresh_cli(*argv, cap=None) -> tuple[int, str]:
    """Exit code and stdout of `python -m stringnet.cli argv` in a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ENV_VAR, None)
    if cap is not None:
        env[ENV_VAR] = str(cap)
    proc = subprocess.run(
        [sys.executable, "-m", "stringnet.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout


def test_a_loaded_file_is_proven_once_and_an_edited_one_afresh(capsys, tmp_path):
    data = tmp_path / "data.json"
    data.write_text(sample_path("z3_pointed").read_text())
    first = load_modular_data(data)
    assert load_modular_data(data) is first
    # new valid content at the same path is the new data
    data.write_text(sample_path("semion").read_text())
    assert load_modular_data(data) == _load("semion") != first
    # new content with a violation is reported, not the cached "valid"
    broken = _sample_json("semion")
    broken["s"][1][1] = {"order": 4, "coeffs": ["2/1", "0/1"]}
    data.write_text(json.dumps(broken))
    code, out = _cli(capsys, "validate-modular", "--data", str(data))
    assert code == 0 and json.loads(out)["violations"] == [
        "orthogonality fails at (1, s)",
        "orthogonality fails at (s, 1)",
        "orthogonality fails at (s, s)",
    ]
    # a failed proof is not kept: every load raises it again
    for _ in range(2):
        with pytest.raises(ModularDataError) as exc:
            load_modular_data(data)
        assert exc.value.violations == tuple(json.loads(out)["violations"])


def test_the_price_is_checked_on_every_load(capsys, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    z5 = str(sample_path("z5_pointed"))
    load_modular_data(z5)
    monkeypatch.setenv(ENV_VAR, "624")
    with pytest.raises(SizeCapError) as exc:
        load_modular_data(z5)
    assert (exc.value.size, exc.value.cap) == (625, 624)
    # what a cold process prints for the same refusal
    assert _cli(capsys, "validate-modular", "--data", z5) == _fresh_cli(
        "validate-modular", "--data", z5, cap=624
    )


def test_a_warm_interpreter_prints_what_fresh_processes_print(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    data = tmp_path / "z5.json"
    data.write_text(sample_path("z5_pointed").read_text())
    charge = ["charge", "--data", str(data), "--j", "1", "--u", "2", "--v", "3"]
    for argv in (charge, ["validate-modular", "--data", str(data)], charge):
        warm = _cli(capsys, *argv)
        assert warm == _fresh_cli(*argv) and warm[0] == 0


# -- the packed orthogonality sums --------------------------------------------


def _reference_sums(s, dual):
    """sum_R s_{A,R} s_{R,B^dual}, one CycNum product and one sum at a time."""
    n, order = len(s), s[0][0].order
    sums = []
    for a in range(n):
        row = []
        for b in range(n):
            total = CycNum.zero(order)
            for r_ in range(n):
                total = total + s[a][r_] * s[r_][dual[b]]
            row.append(total)
        sums.append(row)
    return sums


def _drawn_matrix(rng, n, order):
    """An n x n matrix of elements with numerators up to 10^30 over
    denominators up to 10^12, about a third of the coordinates zero."""

    def coeff():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))

    return [[CycNum(order, [coeff() for _ in range(degree(order))]) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12, 15])
def test_packed_sums_equal_the_products_on_large_entries(order):
    rng = random.Random(order)
    for n in (1, 2, 4):
        s = _drawn_matrix(rng, n, order)
        dual = list(range(n))
        rng.shuffle(dual)
        assert modular._orthogonality_sums(s, dual, order) == _reference_sums(s, dual)


@pytest.mark.parametrize("order", [3, 5, 12])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_sums_hold_at_the_coefficient_bound(order, sign):
    # every numerator +-m: the middle coefficient of each summed product is
    # exactly n phi m^2, the bound the digit width is taken from
    m, n = 7**20, 3
    cell = CycNum(order, [sign * m] * degree(order))
    s = [[cell] * n for _ in range(n)]
    sums = modular._orthogonality_sums(s, [0, 2, 1], order)
    assert sums == _reference_sums(s, [0, 2, 1])


def _fibonacci():
    # phi = 1 + zeta_5 + zeta_5^4, the golden ratio; s = [[1, phi], [phi, -1]]
    one = CycNum.one(5)
    phi = one + zeta_power(5, 1) + zeta_power(5, 4)
    s = ((one, phi), (phi, CycNum.from_rational(5, -1)))
    return ModularData(("1", "t"), (0, 1), (one, phi), s)


@pytest.mark.parametrize("datum", [_fibonacci, _ising], ids=["fibonacci", "ising"])
def test_a_tiny_perturbation_gives_the_violations_the_products_give(datum):
    m = datum()
    labels, dual, dims, s, order = m.labels, m.dual, m.dims, m.s_unnorm, m.order
    n = len(labels)
    tiny = CycNum.from_rational(order, Fraction(1, 10**40))
    global_dim = sum((d * d for d in dims), CycNum.zero(order))
    for a, b in [(n - 1, n - 1), (1, n - 1)]:
        bent = [list(row) for row in s]
        bent[a][b] = bent[b][a] = s[a][b] + tiny
        want = [
            f"orthogonality fails at ({labels[x]}, {labels[y]})"
            for x, row in enumerate(_reference_sums(bent, dual))
            for y, total in enumerate(row)
            if total != (global_dim if x == y else 0)
        ]
        with pytest.raises(ModularDataError) as exc:
            ModularData(labels, dual, dims, bent)
        assert want and exc.value.violations == tuple(want)


def test_a_packed_sum_wider_than_its_digits_fails_its_check():
    assert modular._unpack(modular._pack([3, -4, 0, 5], 4), 4, 4) == [3, -4, 0, 5]
    with pytest.raises(InvariantError) as exc:
        modular._unpack(modular._pack([3, -4, 0, 5], 4), 4, 3)
    assert exc.value.invariant == "nothing is left after the last digit"

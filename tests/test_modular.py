"""Modular data files, validation gates, deformed dims, sphere charge."""

from __future__ import annotations

import json

import pytest

from stringnet.cyclotomic import CycNum, _inv, zeta_power
from stringnet.linalg import rank_cyc
from stringnet.modular import (
    DeformedDims,
    ModularData,
    ModularDataError,
    PointedFormSpec,
    deformed_dims,
    eta_scalar,
    load_modular_data,
    modular_data_from_json,
    pointed_modular_data,
    sample_path,
    sphere_charge_dim,
)

SAMPLES = ("trivial", "semion", "z3_pointed", "z5_pointed")


def _load(name):
    return load_modular_data(sample_path(name))


def test_sample_files_load():
    sizes = {"trivial": 1, "semion": 2, "z3_pointed": 3, "z5_pointed": 5}
    for name in SAMPLES:
        m = _load(name)
        n = sizes[name]
        assert len(m.labels) == n
        assert m.global_dim == CycNum.from_rational(m.order, n)


def test_semion_matches_theta_oracle():
    # theta_1 = i; s_{a,b} = theta_{a+b}/(theta_a theta_b) with indices in Z_2
    m = _load("semion")
    assert m.dims == (CycNum.one(4), CycNum.one(4))
    theta = [CycNum.one(4), zeta_power(4, 1)]
    for a in range(2):
        for b in range(2):
            want = theta[(a + b) % 2] * _inv(theta[a] * theta[b])
            assert m.s_unnorm[a][b] == want


def test_z3_matches_theta_oracle():
    m = _load("z3_pointed")
    for a in range(3):
        for b in range(3):
            want = zeta_power(3, (a + b) ** 2) * _inv(
                zeta_power(3, a * a) * zeta_power(3, b * b)
            )
            assert m.s_unnorm[a][b] == want
            assert m.s_unnorm[a][b] == zeta_power(3, 2 * a * b)


def test_shipped_pointed_files_match_generator():
    for name, form in [
        ("trivial", PointedFormSpec(1, 0)),
        ("z3_pointed", PointedFormSpec(3, 1)),
        ("z5_pointed", PointedFormSpec(5, 2)),
    ]:
        assert _load(name) == pointed_modular_data(form)


def test_pointed_form_validation():
    with pytest.raises(ValueError, match="degenerate"):
        PointedFormSpec(2, 1)
    with pytest.raises(ValueError, match="degenerate"):
        PointedFormSpec(3, 3)
    with pytest.raises(ValueError):
        PointedFormSpec(0, 1)
    m = pointed_modular_data(PointedFormSpec(5, 2))
    assert rank_cyc([list(row) for row in m.s_unnorm]) == 5


def test_degenerate_s_rejected():
    one = CycNum.one(1)
    with pytest.raises(ModularDataError) as exc:
        ModularData(("0", "x"), (0, 1), (one, one), ((one, one), (one, one)))
    assert any("not invertible" in v for v in exc.value.violations)


def test_violations_name_the_identity():
    m = _load("z3_pointed")
    base = m.to_json()

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
    number_labels.write_text(json.dumps({**_load("semion").to_json(), "labels": 5}))
    with pytest.raises(ValueError, match="not a modular-data object"):
        load_modular_data(number_labels)
    fractional_dual = tmp_path / "fractional_dual.json"
    fractional_dual.write_text(json.dumps({**_load("trivial").to_json(), "dual": [0.5]}))
    with pytest.raises(ModularDataError, match="dual entries must be integers"):
        load_modular_data(fractional_dual)


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
        eta_scalar("sigma", "1", m)
    with pytest.raises(ValueError, match="not invertible"):
        deformed_dims("sigma", m)
    # the fermion is invertible and order 2, so its deformation is spherical
    assert deformed_dims("f", m).is_spherical
    assert sphere_charge_dim("f", "1", "1", m) == 1
    assert sphere_charge_dim("f", "f", "f", m) == 0


def test_eta_unit_and_z3_values():
    m = _load("z3_pointed")
    for x in m.labels:
        assert eta_scalar("0", x, m) == CycNum.one(3)
    for a in range(3):
        assert eta_scalar("1", str(a), m) == zeta_power(3, 2 * a)


def test_eta_multiplicative_on_pointed():
    for name, n in [("z3_pointed", 3), ("z5_pointed", 5)]:
        m = _load(name)
        for j in range(n):
            for x in range(n):
                for y in range(n):
                    lhs = eta_scalar(str(j), str(x), m) * eta_scalar(str(j), str(y), m)
                    rhs = eta_scalar(str(j), str((x + y) % n), m)
                    assert lhs == rhs


def test_deformed_dims_values():
    m = _load("z3_pointed")
    dd = deformed_dims("1", m)
    assert isinstance(dd, DeformedDims)
    assert not dd.is_spherical
    assert dd.dim_r == tuple(zeta_power(3, 2 * a) for a in range(3))
    unit = deformed_dims("0", m)
    assert unit.is_spherical
    assert unit.dim_r == m.dims
    assert deformed_dims("s", _load("semion")).is_spherical


def test_dim_l_is_dim_r_of_dual():
    for name in SAMPLES:
        m = _load(name)
        for j in m.labels:
            dd = deformed_dims(j, m)
            for x in range(len(m.labels)):
                assert dd.dim_l[x] == dd.dim_r[m.dual[x]]


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
    for name in SAMPLES:
        m = _load(name)
        unit = m.labels[0]
        for j in m.labels:
            charged_at_unit = sphere_charge_dim(j, unit, unit, m) == 1
            assert deformed_dims(j, m).is_spherical == charged_at_unit


def test_json_round_trip():
    for name in SAMPLES:
        m = _load(name)
        assert modular_data_from_json(m.to_json()) == m

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet import InvariantError, cyclotomic
from stringnet.cyclotomic import (
    PRODUCT_MEMO_SIZE,
    ConductorMismatchError,
    CycNum,
    approx_complex,
    cyclotomic_polynomial,
    degree,
    from_json,
    to_json,
    zeta_power,
)


def _sympy_phi(n: int) -> tuple[int, ...]:
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("n", list(range(1, 31)) + [36, 60, 105])
def test_cyclotomic_polynomial_matches_sympy(n):
    assert cyclotomic_polynomial(n) == _sympy_phi(n)


def test_a_divisor_that_is_not_monic_fails_its_check():
    # the division is written for the monic Phi_d; 1 + 2x leads with 2
    with pytest.raises(InvariantError) as exc:
        cyclotomic._poly_div_exact([0, 0, 1], (1, 2))
    assert exc.value.invariant == "divisor polynomial is monic"


def test_degree_is_totient():
    for n in range(1, 40):
        assert degree(n) == int(sympy.totient(n))


def test_zeta_power_trivial_values():
    assert zeta_power(4, 2) == -1
    assert zeta_power(5, 3) * zeta_power(5, 2) == 1
    assert zeta_power(1, 0) == 1


def test_zeta_power_rejects_zero_conductor():
    with pytest.raises(ValueError):
        zeta_power(0, 1)


def test_field_arithmetic_trivial_values():
    n3 = zeta_power(3, 0) + zeta_power(3, 1) + zeta_power(3, 2)
    assert not n3
    assert zeta_power(2, 1) * Fraction(1, 2) == Fraction(-1, 2)
    assert zeta_power(6, 1) * zeta_power(6, 5) == 1


def test_mixed_conductors_rejected():
    with pytest.raises(ConductorMismatchError):
        zeta_power(3, 1) + zeta_power(4, 1)
    with pytest.raises(ConductorMismatchError):
        zeta_power(3, 1) * zeta_power(6, 1)


def test_root_of_unity_order_and_equality():
    for n in range(1, 13):
        for k in range(n):
            power = CycNum.one(n)
            for _ in range(n):
                power = power * zeta_power(n, k)
            assert power == 1
            for j in range(n):
                assert (zeta_power(n, k) == zeta_power(n, j)) == (k % n == j % n)


def test_geometric_sum_orthogonality():
    # sum_k zeta_n^{mk} equals n when n | m and vanishes otherwise
    for n in range(1, 13):
        for m in range(-24, 25):
            total = CycNum.zero(n)
            for k in range(n):
                total = total + zeta_power(n, m * k)
            expected = n if m % n == 0 else 0
            assert total == expected, (n, m)


def _as_sympy_poly(coeffs, x):
    return sympy.Poly(
        sum(sympy.Rational(Fraction(c)) * x**j for j, c in enumerate(coeffs)), x, domain="QQ"
    )


@given(
    n=st.integers(min_value=1, max_value=10),
    ks=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=4),
    qs=st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_product_matches_sympy(n, ks, qs):
    # independent route: sympy multiplies the same input polynomials and
    # reduces modulo its own cyclotomic polynomial
    a = CycNum.zero(n)
    b = CycNum.zero(n)
    x = sympy.Symbol("x")
    pa = sympy.Poly(0, x, domain="QQ")
    pb = sympy.Poly(0, x, domain="QQ")
    for k, q in zip(ks, qs):
        a = a + zeta_power(n, k) * q
        b = b + zeta_power(n, -k) * (q + 1)
        pa = pa + sympy.Rational(q) * sympy.Poly(x ** (k % n), x, domain="QQ")
        pb = pb + sympy.Rational(q + 1) * sympy.Poly(x ** ((-k) % n), x, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    want = (pa * pb).rem(phi)
    got = _as_sympy_poly((a * b).coeffs, x)
    assert (got - want).is_zero, (got, want)


def test_json_round_trip():
    a = zeta_power(12, 5) * Fraction(-7, 3) + Fraction(1, 2)
    obj = to_json(a)
    assert obj["order"] == 12
    assert all("/" in s for s in obj["coeffs"])
    assert from_json(obj) == a


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"order": 3.9, "coeffs": ["1/1", "0/1"]}, "order"),
        ({"order": True, "coeffs": ["1/1"]}, "order"),
        ({"order": 3, "coeffs": [0.1, "0/1"]}, "coeffs"),
        ({"order": 3, "coeffs": [True, "0/1"]}, "coeffs"),
    ],
)
def test_from_json_rejects_floats_and_bools(obj, field):
    with pytest.raises(ValueError, match=field):
        from_json(obj)


def test_from_json_takes_integer_coefficients():
    assert from_json({"order": 3, "coeffs": [2, "-1/2"]}) == zeta_power(3, 1) * Fraction(-1, 2) + 2


def test_from_json_maps_a_zero_denominator_to_value_error():
    with pytest.raises(ValueError, match="zero denominator in coefficients"):
        from_json({"order": 3, "coeffs": ["1/0", "0/1"]})


def _outcome(read, obj):
    try:
        a = read(obj)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(a), a.order, a.nums, a.den


LONG = "9" * 4301  # longer than Python converts by default


@pytest.mark.parametrize(
    "coeffs, plain",
    [
        (["2/4", "-6/8"], True),
        (["-0/1", "0/7"], True),
        ([3, "-10/4"], True),
        (["-123456789012345678901234567890/7", "5/123456789012345678901"], True),
        (["1/0", "0/1"], False),
        (["+1/2", "0/1"], False),
        ([" 1/2", "0/1"], False),
        (["1/2 ", "0/1"], False),
        (["0.5", "0/1"], False),
        (["1", "0/1"], False),
        (["1_0/2", "0/1"], False),
        (["--1/2", "0/1"], False),
        (["1/-2", "0/1"], False),
        (["\u0661/2", "0/1"], False),
        (["1/2"], False),
        (["1/2", "0/1", "0/1"], False),
        ([LONG + "/1", "0/1"], False),
    ],
)
def test_from_json_reads_plain_coefficients_as_the_constructor_does(monkeypatch, coeffs, plain):
    from stringnet import cyclotomic

    obj = {"order": 3, "coeffs": coeffs}
    assert (cyclotomic._plain_json(3, coeffs) is not None) == plain
    got = _outcome(from_json, obj)
    monkeypatch.setattr(cyclotomic, "_plain_json", lambda order, coeffs: None)
    assert got == _outcome(from_json, obj)
    if plain:
        assert got == _outcome(lambda o: CycNum(o["order"], o["coeffs"]), obj)


def test_from_json_checks_the_conductor_before_the_coefficients():
    with pytest.raises(ValueError, match="conductor must be positive, got 0"):
        from_json({"order": 0, "coeffs": ["1/0"]})


def test_zero_is_canonical():
    z = zeta_power(6, 1) + zeta_power(6, 1) * -1
    assert z == CycNum.zero(6)
    assert not z


def test_approx_complex_hits_unit_circle():
    z = approx_complex(zeta_power(8, 1))
    assert abs(abs(z) - 1) < 1e-12
    assert abs(z.real - z.imag) < 1e-12


def _is_canonical(a: CycNum, n: int) -> bool:
    """phi(n) integer numerators over den > 0 sharing no factor with it, zero over 1,
    and equal and hash-equal to the checked rebuild from its Fraction coefficients."""
    rebuilt = CycNum(n, list(a.coeffs))
    return (
        a.order == n
        and len(a.nums) == degree(n)
        and all(type(c) is int for c in a.nums)
        and type(a.den) is int
        and a.den > 0
        and gcd(a.den, *a.nums) == 1
        and (any(a.nums) or a.den == 1)
        and all(type(c) is Fraction for c in a.coeffs)
        and a == rebuilt
        and hash(a) == hash(rebuilt)
    )


@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_are_canonical(n, data):
    """The public constructor and the unchecked internal one both give canonical values."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    a = CycNum(n, data.draw(st.lists(coeff, min_size=degree(n), max_size=degree(n))))
    b = CycNum(n, data.draw(st.lists(coeff, min_size=degree(n), max_size=degree(n))))
    k = data.draw(st.integers(-20, 20))
    q = data.draw(coeff)
    results = [a, b, a + b, a + b * -1, a * -1, a * b, a * q, 2 * a, a + 1]
    results += [zeta_power(n, k), CycNum.zero(n), CycNum.one(n), CycNum.from_rational(n, q)]
    for res in results:
        assert _is_canonical(res, n), res


def test_public_constructor_still_checks():
    with pytest.raises(ValueError, match="expected 2 coefficients"):
        CycNum(3, [1, 2, 3])
    with pytest.raises(ValueError, match="conductor must be positive"):
        CycNum(0, [])
    a = CycNum(3, [1, 2])
    assert all(type(c) is Fraction for c in a.coeffs)
    assert a.coeffs == (Fraction(1), Fraction(2))


@lru_cache(maxsize=None)
def _sympy_phi_poly(n: int):
    x = sympy.Symbol("x")
    return x, sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")


@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 840]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_arithmetic_matches_fraction_reference(n, data):
    """+ and * (by -1 for a difference) against sympy polynomials over QQ reduced mod Phi_n,
    and equal values reached by different routes are == and hash-equal."""
    d = degree(n)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    support = st.dictionaries(st.integers(0, d - 1), coeff, max_size=min(d, 10))

    def draw() -> CycNum:
        coeffs = [Fraction(0)] * d
        for i, c in data.draw(support).items():
            coeffs[i] = c
        return CycNum(n, coeffs)

    a, b, c = draw(), draw(), draw()
    q = data.draw(coeff)
    x, phi = _sympy_phi_poly(n)

    def poly(u: CycNum):
        return _as_sympy_poly(u.coeffs, x)

    cases = [
        (a + b, poly(a) + poly(b)),
        (a + b * -1, poly(a) - poly(b)),
        (a * -1, -poly(a)),
        (a * b, poly(a) * poly(b)),
        (a + q, poly(a) + sympy.Rational(q)),
        (q + a * -1, sympy.Rational(q) - poly(a)),
        (a * q, poly(a) * sympy.Rational(q)),
    ]
    for got, want in cases:
        assert (poly(got) - want.rem(phi)).is_zero, (got, want)
        assert _is_canonical(got, n), got
    routes = [
        ((a * b) * c, a * (b * c)),
        (a + b + b * -1, a),
        (a * (b + c), a * b + a * c),
        ((a * b) * q, (a * q) * b),
        (a + a * -1, CycNum.zero(n)),
        (a * zeta_power(n, 1) * zeta_power(n, -1), a),
    ]
    for u, v in routes:
        assert u == v and hash(u) == hash(v), (u, v)
        assert _is_canonical(u, n), u
    assert (a * b == q) == (poly(a * b) - sympy.Rational(q)).is_zero


def test_rational_values_hash_as_their_fractions():
    for n in (1, 3, 8, 840):
        for q in (0, 1, -2, Fraction(3, 7), Fraction(-5, 12)):
            a = CycNum.from_rational(n, q)
            assert a == q and hash(a) == hash(Fraction(q)), (n, q)
    assert len({CycNum.one(3), 1}) == 1
    assert len({Fraction(-1, 2), zeta_power(4, 2) * Fraction(1, 2)}) == 1
    assert {CycNum.zero(5): "zero"}[0] == "zero"


@given(
    n=st.sampled_from(list(range(1, 13)) + [840]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_product_memo_matches_sympy(n, data):
    """A first product, a repeated one and one made under a forced-small memo bound
    all equal the sympy product, are canonical and hash-equal, and the memo
    never holds more than its bound."""
    d = degree(n)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    support = st.dictionaries(st.integers(0, d - 1), coeff, max_size=min(d, 10))

    def draw() -> CycNum:
        coeffs = [Fraction(0)] * d
        for i, c in data.draw(support).items():
            coeffs[i] = c
        return CycNum(n, coeffs)

    a, b = draw(), draw()
    x, phi = _sympy_phi_poly(n)
    want = (_as_sympy_poly(a.coeffs, x) * _as_sympy_poly(b.coeffs, x)).rem(phi)
    first = a * b
    repeated = CycNum(n, a.coeffs) * CycNum(n, b.coeffs)  # equal operands, new objects
    assert repeated is first
    bound = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as mp:
        small = lru_cache(maxsize=bound)(cyclotomic._product.__wrapped__)
        mp.setattr(cyclotomic, "_product", small)
        for k in range(bound + 2):  # evict whatever the bound can hold
            zeta_power(n, k) * b
            assert small.cache_info().currsize <= bound
        under_small_bound = a * b
    assert (_as_sympy_poly(first.coeffs, x) - want).is_zero, (first, want)
    for got in (first, repeated, under_small_bound):  # so each equals the sympy product
        assert _is_canonical(got, n), got
        assert got == first and hash(got) == hash(first)
    info = cyclotomic._product.cache_info()
    assert info.maxsize == PRODUCT_MEMO_SIZE and info.currsize <= PRODUCT_MEMO_SIZE

"""The size guard: pricing r^n against the cap without building it."""

from __future__ import annotations

import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet.caps import (
    EXACT_DIGITS,
    SizeCapError,
    check_cap,
    int_digits,
    power_digits,
    power_fits,
    power_width,
)


@given(st.integers(1, 10**6), st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_power_digits_counts_the_printed_power(base, exponent):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = len(str(base**exponent))
    finally:
        sys.set_int_max_str_digits(limit)
    assert power_digits(base, exponent) == want


@given(st.integers(1, 10**6), st.integers(0, 3000), st.integers(-2, 2))
@settings(max_examples=200, deadline=None)
def test_fit_and_width_agree_with_the_printed_power(base, exponent, offset):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = len(str(base**exponent))
    finally:
        sys.set_int_max_str_digits(limit)
    # a limit at or next to the count, where the estimate straddles it
    assert power_fits(base, exponent, digits + offset) == (offset >= 0)
    assert power_width(base, exponent) == len(str(digits))


@pytest.mark.parametrize("base", [10, 2, 4, 2**10, 2**61])
def test_a_short_power_fits_without_a_logarithm(monkeypatch, base):
    from stringnet import caps

    real, logs = caps._digit_bounds, []
    monkeypatch.setattr(caps, "_digit_bounds", lambda b, e: logs.append(e) or real(b, e))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for digits in [1, 2, 3, 10, 11, 640, 641, 4300]:
            # around 3 (digits - 1) bits, the last power that skips the
            # logarithm, and around the last power of `digits` digits
            edge = 3 * (digits - 1) // base.bit_length()
            last = max(edge, int((digits - 1) / math.log10(base)) - 2)  # below the last
            while len(str(base ** (last + 1))) <= digits:
                last += 1
            for exponent in {*range(edge - 3, edge + 4), *range(last - 3, last + 4)} - {-3, -2, -1}:
                logs.clear()
                want = len(str(base**exponent)) <= digits
                assert power_fits(base, exponent, digits) == want
                assert (logs == []) == (exponent <= edge)
    finally:
        sys.set_int_max_str_digits(limit)


def test_width_of_a_count_at_a_power_of_ten():
    # 10^(10^20 - 1) has 10^20 digits, a power of ten, and the power below it one fewer
    assert power_width(10, 10**20 - 1) == 21 and power_width(10, 10**20 - 2) == 20
    assert power_fits(10, 10**20 - 1, 10**20) and not power_fits(10, 10**20, 10**20)


def test_power_digits_of_powers_of_ten_and_of_one():
    assert power_digits(10, 10**20) == 10**20 + 1
    assert power_digits(1000, 7) == 22
    assert power_digits(1, 10**30) == 1


def test_cap_compares_the_exact_power():
    assert check_cap("x", 3, 4, 81) == 81
    with pytest.raises(SizeCapError) as exc:
        check_cap("x", 3, 4, 80)
    assert (exc.value.size, exc.value.cap) == (81, 80)


def test_cap_prices_the_exponent_at_base_one():
    # 1^n is 1, but the work grows with n: n itself is priced
    assert check_cap("x", 1, 5, 5) == 5
    assert check_cap("x", 1, 0, 1) == 1
    with pytest.raises(SizeCapError, match=r"x needs n = 6 at r = 1 > cap 5") as exc:
        check_cap("x", 1, 6, 5)
    assert (exc.value.size, exc.value.cap) == (6, 5)
    with pytest.raises(SizeCapError) as exc:
        check_cap("x", 1, 10**30, 1)
    assert exc.value.size == 10**30


def test_size_stays_exact_up_to_the_printable_length():
    # 2^14284 has 4300 digits and 2^14286 has 4301
    with pytest.raises(SizeCapError) as exc:
        check_cap("x", 2, 14284, 10)
    assert exc.value.size == 2**14284 and power_digits(2, 14284) == EXACT_DIGITS
    with pytest.raises(SizeCapError, match=r"x needs 2\^14286 > cap 10") as exc:
        check_cap("x", 2, 14286, 10)
    assert exc.value.size is None
    with pytest.raises(SizeCapError, match=r"needs 7\^1000000000000000000000 > cap"):
        check_cap("x", 7, 10**21, 10)


def test_size_follows_a_lowered_printing_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SizeCapError, match=r"x needs 2\^3000 > cap 10") as exc:
            check_cap("x", 2, 3000, 10)  # 904 digits
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.size is None


def test_an_exponent_too_long_to_print_is_named_by_its_digits():
    assert [int_digits(n) for n in (0, 9, 10, 10**4300 - 1, 10**4300)] == [1, 1, 2, 4300, 4301]
    for base, shown in [(2, "2^n, n of 4301 digits,"), (1, "n of 4301 digits at r = 1")]:
        with pytest.raises(SizeCapError, match=rf"x needs {re.escape(shown)} > cap 10") as exc:
            check_cap("x", base, 10**4300, 10)
        assert exc.value.size is None
    # 4300 digits still print at base 1
    with pytest.raises(SizeCapError) as exc:
        check_cap("x", 1, 10**4299, 10)
    assert exc.value.size == 10**4299

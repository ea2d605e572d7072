"""The size guard: pricing r^n against the cap without building it."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet.caps import EXACT_DIGITS, SizeCapError, check_cap, power_digits


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

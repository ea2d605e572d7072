"""Size caps for brute-force enumerations and operator assembly, each size a power r^n.

At r = 1 the power is 1 whatever n is, but the work still grows with n (a
diagram of n strands, n edges to mark), so there the price is n itself.
"""

from __future__ import annotations

import os
import sys

DEFAULT_CAP = 10_000
ENV_VAR = "STRINGNET_CAP"
EXACT_DIGITS = 4300  # the longest int Python prints by default


class SizeCapError(RuntimeError):
    """A requested brute-force computation exceeds the configured cap.

    `size` is the exact power while Python prints it (EXACT_DIGITS at most), else
    None; at base 1 it is the exponent n, the price there.  An exponent too long
    to print is named by its digit count.
    """

    def __init__(self, what: str, base: int, exponent: int, cap: int) -> None:
        printable = min(EXACT_DIGITS, sys.get_int_max_str_digits() or EXACT_DIGITS)
        digits = int_digits(exponent)
        if digits > printable:
            size, n = None, f"n of {digits} digits"
            shown = f"{n} at r = 1" if base == 1 else f"{base}^n, {n},"
        elif base == 1:
            size, shown = exponent, f"n = {exponent} at r = 1"
        else:
            size = base**exponent if power_fits(base, exponent, printable) else None
            shown = f"{base}^{exponent}" if size is None else size
        super().__init__(
            f"{what} needs {shown} > cap {cap}; raise {ENV_VAR} "
            f"(or a library call's cap argument) to proceed"
        )
        self.what = what
        self.size = size
        self.cap = cap


def int_digits(n: int) -> int:
    """Decimal digits of n >= 0, counted without printing a long n.

    An n of at most 3 (limit - 1) bits has at most `limit` digits, the
    bound `power_fits` uses, so it is printed and measured without loading
    `decimal`; any longer n is counted by `Decimal`.
    """
    limit = min(EXACT_DIGITS, sys.get_int_max_str_digits() or EXACT_DIGITS)
    if n.bit_length() <= 3 * (limit - 1):
        return len(str(n))
    from decimal import Decimal

    return Decimal(n).adjusted() + 1


def _digit_bounds(base: int, exponent: int) -> tuple[int, int]:
    """low <= power_digits(base, exponent) <= high, from log10(base) to 30 places."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        # the log is rounded once and the product once, each within 1e-29 of
        # the value relatively; at 60 places x -+ x * 1e-27 is exact
        ctx.prec = 30
        x = Decimal(base).log10() * exponent
        ctx.prec = 60
        slack = x.scaleb(-27)
        return int(x - slack) + 1, int(x + slack) + 1


def power_digits(base: int, exponent: int) -> int:
    """Decimal digits of base**exponent, base >= 1, from its logarithm.

    The 30-place estimate settles it unless the power's log10 lies within
    its slack of an integer, as for a long exponent; then the log is taken
    to as many places as the count has digits.
    """
    low, high = _digit_bounds(base, exponent)
    if low == high:
        return low
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        # exact for a power of ten; any other log10 is irrational, and 30 spare
        # places misplace the floor only within 1e-29 of an integer
        ctx.prec = int_digits(exponent) + 30
        return int(Decimal(base).log10() * exponent) + 1


def power_fits(base: int, exponent: int, limit: int) -> bool:
    """Whether base**exponent has at most `limit` digits; the exact count is
    taken only when the estimate straddles `limit`.

    A power of at most 3 (limit - 1) bits fits without a logarithm: it has
    at most 0.302 * 3 (limit - 1) + 1 <= limit digits.
    """
    if exponent * base.bit_length() <= 3 * (limit - 1):
        return True
    low, high = _digit_bounds(base, exponent)
    return high <= limit or (low <= limit and power_digits(base, exponent) <= limit)


def power_width(base: int, exponent: int) -> int:
    """int_digits(power_digits(base, exponent)); the exact count is taken only
    when the estimate straddles a power of ten."""
    low, high = _digit_bounds(base, exponent)
    width = int_digits(high)
    return width if int_digits(low) == width else int_digits(power_digits(base, exponent))


def resolve_cap(cap: int | None = None) -> int:
    """Explicit argument wins, then the environment, then the default."""
    if cap is not None:
        if cap < 1:
            raise ValueError(f"cap must be positive, got {cap}")
        return cap
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR}={env!r} is not an integer") from None
        if value < 1:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_CAP


def check_cap(what: str, base: int, exponent: int, cap: int | None = None) -> int:
    """The active cap; SizeCapError when base**exponent, base >= 1, exceeds it.

    At base 1 the exponent itself is priced.  Past the cap's bit length
    2**exponent alone exceeds it, so no long power is built.
    """
    limit = resolve_cap(cap)
    if base == 1:
        over = exponent > limit
    else:
        over = exponent > limit.bit_length() or base**exponent > limit
    if over:
        raise SizeCapError(what, base, exponent, limit)
    return limit

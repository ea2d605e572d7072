"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Every scalar in this package is a CycNum: the coordinates of an element of
Q(zeta_n) in the power basis 1, zeta, ..., zeta^{d-1}, d = phi(n), kept
reduced modulo the n-th cyclotomic polynomial Phi_n.  They are stored as
integer numerators `nums` over one common denominator `den`, in canonical
form: den > 0, gcd(den, *nums) == 1, and zero is (0, ..., 0) over 1.
Equality and hashing are therefore structural, and there is no floating
point anywhere in the arithmetic.

A CycNum is a `Record` of `order`, `nums` and `den`.  The public
constructor `CycNum(order, coeffs)` checks and normalises its outside input,
any rationals `Fraction` accepts; `.coeffs` returns them as Fractions.  `+`,
`*`, `from_rational` and the shared per-conductor constants (`zero`, `one`,
`zeta_power`) skip those checks through `_from_reduced`, which trusts its
numerators to be reduced modulo Phi_order and canonical over `den`; the
library's own rationals, such as the weight 1/r, are built from two
integers by `_rational`.  A difference is a sum with the product by -1, a
rational rescale a product with the rational, and `not a` tests for zero.

A product is an integer schoolbook convolution, folded back below degree d
with a per-conductor table of the rows x^k mod Phi_n for d <= k <= 2d-2
(integral, because Phi_n is monic), then divided once by the gcd of the
numerators and the denominator.  Products are memoised on their canonical
operands (conductor, numerators and denominator of each side), with at
most `PRODUCT_MEMO_SIZE` entries, least recently used evicted first: the
diagram pushes multiply the same few roots of unity and rationals over and
over.  A memo hit returns the canonical value a miss computes, so equality,
hashing and every result are as without the memo.

Equality with an int or a Fraction holds exactly when the element is that
rational, and such an element hashes as the Fraction does, so CycNums and
rationals can share a set or a dict.

`Fraction` is imported only where outside input or output needs it: the
public constructor, `.coeffs`, `from_rational` of a non-int, `from_json` of
a coefficient that is neither an int nor a plain "n/d" string, repr, and
the hash of a rational element that is not an integer.  The arithmetic,
and equality with and coercion of an int, never load
`fractions` (nor `decimal` and `numbers`, which it loads), so the numeric
subcommands start without them.  A Fraction operand is recognised through
`sys.modules`: none can exist before `fractions` is loaded.

There is no division in the field: downstream computations only ever
rescale by nonzero rationals and multiply by roots of unity, and the one
quotient of quantum dimensions the charge criterion needs is decided by
cross-multiplying.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, lcm
from operator import add

from . import Record, require


class ConductorMismatchError(ValueError):
    """Two CycNums from different Q(zeta_n) met in one operation."""


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n // 2 + 1) if n % d == 0]
    out.append(n)
    return out


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (low degree first); remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    require(den[dd] == 1, "divisor polynomial is monic")
    quot = [0] * (len(num) - dd)
    for j in range(len(num) - 1, dd - 1, -1):
        c = num[j]
        if c:
            quot[j - dd] = c
            for i in range(dd + 1):
                num[j - dd + i] -= c * den[i]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first, monic.

    Computed by exact division of x^n - 1 by the product of Phi_d over
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def degree(n: int) -> int:
    """phi(n), the degree of Q(zeta_n) over Q."""
    return len(cyclotomic_polynomial(n)) - 1


class CycNum(Record):
    """An element of Q(zeta_n): integer power-basis numerators over one denominator."""

    __slots__ = _fields = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        from fractions import Fraction

        if order < 1:
            raise ValueError(f"conductor must be positive, got {order}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != degree(order):
            raise ValueError(
                f"expected {degree(order)} coefficients for conductor {order}, "
                f"got {len(cs)}"
            )
        # canonical as built: the top power of each prime in the lcm divides
        # some c.denominator, and that c's scaled numerator is prime to it
        den = lcm(*(c.denominator for c in cs))
        super().__init__(order, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return _zeta_table(order)[-1]

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return _zeta_table(order)[0]

    @classmethod
    def from_rational(cls, order: int, q) -> "CycNum":
        if isinstance(q, int):
            return _rational(order, q, 1)
        from fractions import Fraction

        q = Fraction(q)
        return _rational(order, q.numerator, q.denominator)

    # -- predicates --------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self) -> bool:
        return any(self.nums)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.order != self.order:
                raise ConductorMismatchError(
                    f"conductors differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, int) or _is_fraction(other):
            return CycNum.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not CycNum or other.order != self.order:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _product(self.order, self.nums, self.den, other.nums, other.den)

    __rmul__ = __mul__

    # -- comparison --------------------------------------------------------

    # Record's equality and hash would hold only between CycNums; these also
    # agree with int and Fraction.
    def __eq__(self, other):
        if type(other) is CycNum:
            return self.order == other.order and self.den == other.den and self.nums == other.nums
        if isinstance(other, int) or _is_fraction(other):
            return self.is_rational() and self.nums[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        nums = self.nums
        if any(nums[1:]):
            return hash((self.order, nums, self.den))
        # the hash of the rational it equals; an integer's is the int's
        if self.den == 1:
            return hash(nums[0])
        from fractions import Fraction

        return hash(Fraction(nums[0], self.den))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"CycNum({self.order}, [{body}])"


def _from_reduced(order: int, nums: tuple, den: int) -> CycNum:
    """Wrap phi(order) canonical integer numerators over den, unchecked."""
    a = object.__new__(CycNum)
    object.__setattr__(a, "order", order)
    object.__setattr__(a, "nums", nums)
    object.__setattr__(a, "den", den)
    return a


def _rational(order: int, num: int, den: int) -> CycNum:
    """num / den in Q(zeta_order), for integers num and den > 0."""
    g = gcd(num, den)
    return _from_reduced(order, (num // g,) + (0,) * (degree(order) - 1), den // g)


def _is_fraction(x) -> bool:
    """Whether x is a Fraction, without loading `fractions` to ask."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _canonical(order: int, nums: list, den: int) -> CycNum:
    """Wrap reduced numerators over den > 0 after dividing out their common factor."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _from_reduced(order, tuple(nums), den)


# Bound of the product memo.  At r=8 one sigma_F marking makes about 10^5
# products that take some 150 distinct values; a larger run evicts the
# least recently used products, which changes only its speed.
PRODUCT_MEMO_SIZE = 4096


@lru_cache(maxsize=PRODUCT_MEMO_SIZE)
def _product(order: int, a: tuple, da: int, b: tuple, db: int) -> CycNum:
    """(a / da) * (b / db) in Q(zeta_order), from canonical operands."""
    b = [(j, y) for j, y in enumerate(b) if y]
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                conv[i + j] += x * y
    return _folded(order, conv, da * db)


def _folded(order: int, conv: list, den: int) -> CycNum:
    """conv / den, for the 2 phi(order) - 1 integer coefficients conv of a
    product of two reduced elements, or of a sum of such products: folded
    below degree phi(order) in place with `_fold_rows`, then made canonical."""
    d = (len(conv) + 1) // 2
    for k, row in enumerate(_fold_rows(order), d):
        c = conv[k]
        if c:
            for i, p in row:
                conv[i] += c * p
    del conv[d:]
    return _canonical(order, conv, den)


def _combine(a: CycNum, b: CycNum) -> CycNum:
    """a + b over a common denominator."""
    da, db = a.den, b.den
    if da == db:
        return _canonical(a.order, list(map(add, a.nums, b.nums)), da)
    return _canonical(a.order, [x * db + y * da for x, y in zip(a.nums, b.nums)], da * db)


@lru_cache(maxsize=None)
def _zeta_table(n: int) -> tuple[CycNum, ...]:
    """Shared constants zeta_n^0 .. zeta_n^{n-1}, then zero, for conductor n.

    Row k is row k-1 times x: shift up one degree, then cancel the one
    coefficient that reached degree phi(n) with a single multiple of Phi_n.
    """
    phi = cyclotomic_polynomial(n)
    row, rows = [1] + [0] * (len(phi) - 2), []
    for _ in range(n):
        rows.append(_from_reduced(n, tuple(row), 1))
        top = row[-1]
        row = [c - top * p for c, p in zip([0] + row[:-1], phi)]
    return (*rows, _from_reduced(n, (0,) * (len(phi) - 1), 1))


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_n for phi(n) <= k <= 2 phi(n) - 2, as sparse (index, coefficient) rows.

    x^k and x^(k mod n) agree modulo Phi_n, which divides x^n - 1.
    """
    table, d = _zeta_table(n), degree(n)
    return tuple(
        tuple((i, c) for i, c in enumerate(table[k % n].nums) if c) for k in range(d, 2 * d - 1)
    )


def zeta_power(n: int, k: int) -> CycNum:
    """The canonical representative of zeta_n^{k mod n}."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    return _zeta_table(n)[k % n]


# -- JSON ------------------------------------------------------------------


def to_json(a: CycNum) -> dict:
    """Each coordinate as the reduced fraction "n/d", with d > 0 and 0 as "0/1"."""
    den = a.den
    coeffs = []
    for c in a.nums:
        g = gcd(c, den)
        coeffs.append(f"{c // g}/{den // g}")
    return {"order": a.order, "coeffs": coeffs}


def from_json(obj: dict) -> CycNum:
    """The inverse of `to_json`; also takes integer coefficients, never a float or bool.

    Coefficients that are all ints or plain "n/d" strings, as `to_json`
    writes them, are read with `int` alone (`_plain_json`); any other entry
    goes through `CycNum(order, coeffs)`, which gives the same value for
    those and reports every malformed one.
    """
    order, coeffs = obj["order"], obj["coeffs"]
    if type(order) is not int:
        raise ValueError(f"order must be an integer, got {order!r}")
    if type(coeffs) is not list or any(type(c) not in (str, int) for c in coeffs):
        raise ValueError(f"coeffs must be a list of strings or integers, got {coeffs!r}")
    a = _plain_json(order, coeffs)
    if a is not None:
        return a
    try:
        return CycNum(order, coeffs)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficients {coeffs}") from None


def _plain_json(order: int, coeffs: list) -> CycNum | None:
    """The CycNum of phi(order) coefficients, each an int or an ASCII string
    -?[0-9]+/[0-9]+ with a nonzero denominator, over the lcm of their
    denominators; None for any other entry.  The canonical form is unique,
    so the result equals the public constructor's."""
    nums, dens = [], []
    for c in coeffs:
        if type(c) is int:
            nums.append(c)
            dens.append(1)
            continue
        top, slash, bottom = c.partition("/")
        digits = top.removeprefix("-")
        if not (slash and (digits + bottom).isascii() and digits.isdigit() and bottom.isdigit()):
            return None
        try:  # int refuses a string longer than Python converts; Fraction says why
            num, den = int(top), int(bottom)
        except ValueError:
            return None
        if not den:
            return None
        nums.append(num)
        dens.append(den)
    if order < 1 or len(nums) != degree(order):
        return None
    den = lcm(*dens)
    return _canonical(order, [n * (den // d) for n, d in zip(nums, dens)], den)


def approx_complex(a: CycNum) -> complex:
    """Floating-point value, for opt-in human-readable rendering only.

    Never feed the result back into any computation.
    """
    import cmath

    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(complex(c) * z**j for j, c in enumerate(a.coeffs))

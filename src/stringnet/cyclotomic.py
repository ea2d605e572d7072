"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Every scalar in this package is a CycNum: a vector of rational coordinates
in the power basis 1, zeta, ..., zeta^{d-1} of Q(zeta_n), d = phi(n),
kept reduced modulo the n-th cyclotomic polynomial.  Equality is decidable
coefficient-wise and there is no floating point anywhere in the arithmetic.

The public constructor `CycNum(order, coeffs)` checks and normalises its
outside input.  `+`, `-`, negation, `*`, `rational_scale`, `from_rational`
and the shared per-conductor constants (`zero`, `one`, `zeta_power`) skip
that through `_from_reduced`, which trusts its tuple to hold exactly phi(order)
Fractions already reduced modulo Phi_order.

There is no division in the field: downstream computations only ever
rescale by nonzero rationals and multiply by roots of unity, and the one
quotient of quantum dimensions the charge criterion needs is decided by
cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub

from . import require


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


def _reduce(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Reduce a coefficient list modulo Phi_n, returning exactly phi(n) entries."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    for j in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[j]
        if c:
            for i in range(d + 1):
                coeffs[j - d + i] -= c * phi[i]
    del coeffs[d:]
    coeffs.extend([Fraction(0)] * (d - len(coeffs)))
    return coeffs


class CycNum:
    """An element of Q(zeta_n) with exact rational power-basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError(f"conductor must be positive, got {order}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != degree(order):
            raise ValueError(
                f"expected {degree(order)} coefficients for conductor {order}, "
                f"got {len(cs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return _zeta_table(order)[-1]

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return _zeta_table(order)[0]

    @classmethod
    def from_rational(cls, order: int, q) -> "CycNum":
        return _from_reduced(order, (Fraction(q),) + (Fraction(0),) * (degree(order) - 1))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.order != self.order:
                raise ConductorMismatchError(
                    f"conductors differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_reduced(self.order, tuple(map(add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_reduced(self.order, tuple(map(sub, self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _from_reduced(self.order, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        conv = [Fraction(0)] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _from_reduced(self.order, tuple(_reduce(conv, self.order)))

    __rmul__ = __mul__

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"CycNum({self.order}, [{body}])"


def _from_reduced(order: int, coeffs: tuple) -> CycNum:
    """Wrap a reduced tuple of exactly phi(order) Fractions, unchecked."""
    a = object.__new__(CycNum)
    object.__setattr__(a, "order", order)
    object.__setattr__(a, "coeffs", coeffs)
    return a


@lru_cache(maxsize=None)
def _zeta_table(n: int) -> tuple[CycNum, ...]:
    """Shared constants zeta_n^0 .. zeta_n^{n-1}, then zero, for conductor n.

    Row k is row k-1 times x: shift up one degree, then cancel the one
    coefficient that reached degree phi(n) with a single multiple of Phi_n.
    """
    phi = cyclotomic_polynomial(n)
    row, rows = [1] + [0] * (len(phi) - 2), []
    for _ in range(n):
        rows.append(_from_reduced(n, tuple(map(Fraction, row))))
        top = row[-1]
        row = [c - top * p for c, p in zip([0] + row[:-1], phi)]
    return (*rows, _from_reduced(n, (Fraction(0),) * (len(phi) - 1)))


def zeta_power(n: int, k: int) -> CycNum:
    """The canonical representative of zeta_n^{k mod n}."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    return _zeta_table(n)[k % n]


def rational_scale(a: CycNum, q) -> CycNum:
    """Multiply by an exact rational."""
    q = Fraction(q)
    return _from_reduced(a.order, tuple([c * q for c in a.coeffs]))


# -- JSON ------------------------------------------------------------------


def to_json(a: CycNum) -> dict:
    return {
        "order": a.order,
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in a.coeffs],
    }


def from_json(obj: dict) -> CycNum:
    try:
        coeffs = [Fraction(s) for s in obj["coeffs"]]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficients {obj['coeffs']}") from None
    return CycNum(int(obj["order"]), coeffs)


def approx_complex(a: CycNum) -> complex:
    """Floating-point value, for opt-in human-readable rendering only.

    Never feed the result back into any computation.
    """
    import cmath

    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(complex(c) * z**j for j, c in enumerate(a.coeffs))


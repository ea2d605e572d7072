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

Division is deliberately not public: downstream computations only ever
rescale by nonzero rationals and multiply by roots of unity.  A private
`_inv` exists for the one consumer that needs quotients of quantum
dimensions; it is not part of the supported surface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub

from . import require


class ConductorMismatchError(ValueError):
    """Two CycNums from different Q(zeta_n) met without an explicit embed."""


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


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^k in the power basis for k = 0..n-1 (integer coordinates)."""
    rows = []
    for k in range(n):
        row = _reduce([Fraction(0)] * k + [Fraction(1)], n)
        rows.append(tuple(int(c) for c in row))
    return tuple(rows)


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
                    f"conductors differ: {self.order} vs {other.order}; "
                    "embed into a common conductor first"
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

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not public; see module docstring")
        result = CycNum.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
    """Shared constants zeta_n^0 .. zeta_n^{n-1}, then zero, for conductor n."""
    rows = [tuple(map(Fraction, row)) for row in _power_table(n)] + [(Fraction(0),) * degree(n)]
    return tuple(_from_reduced(n, row) for row in rows)


def zeta_power(n: int, k: int) -> CycNum:
    """The canonical representative of zeta_n^{k mod n}."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    return _zeta_table(n)[k % n]


def rational_scale(a: CycNum, q) -> CycNum:
    """Multiply by an exact rational (the only public scalar division route)."""
    q = Fraction(q)
    return _from_reduced(a.order, tuple([c * q for c in a.coeffs]))


def conjugate(a: CycNum) -> CycNum:
    """Complex conjugation, zeta |-> zeta^{-1}; a ring automorphism."""
    n = a.order
    table = _power_table(n)
    out = [Fraction(0)] * degree(n)
    for j, c in enumerate(a.coeffs):
        if c:
            row = table[(n - j) % n]
            for i, t in enumerate(row):
                if t:
                    out[i] += c * t
    return CycNum(n, out)


def embed(a: CycNum, new_order: int) -> CycNum:
    """Lift from Q(zeta_n) into Q(zeta_m) when n | m, via zeta_n = zeta_m^{m/n}."""
    n = a.order
    if new_order % n != 0:
        raise ConductorMismatchError(
            f"cannot embed conductor {n} into {new_order}: not a multiple"
        )
    step = new_order // n
    table = _power_table(new_order)
    out = [Fraction(0)] * degree(new_order)
    for j, c in enumerate(a.coeffs):
        if c:
            row = table[(j * step) % new_order]
            for i, t in enumerate(row):
                if t:
                    out[i] += c * t
    return CycNum(new_order, out)


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


# -- private ---------------------------------------------------------------


def _ptrim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ptrim(out)


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _ptrim(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]):
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for j in range(len(rem) - len(b), -1, -1):
        c = rem[j + len(b) - 1] / lead
        if c:
            quot[j] = c
            for i, bi in enumerate(b):
                rem[j + i] -= c * bi
    return quot, _ptrim(rem)


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid in Q[x]: returns (g, u) with u*a = g mod b, g the gcd."""
    r0, r1 = _ptrim(list(a)), _ptrim(list(b))
    u0, u1 = [Fraction(1)], []
    while r1:
        q, rem = _pdivmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
    return r0, u0


def _inv(a: CycNum) -> CycNum:
    """Multiplicative inverse; internal use only (see module docstring)."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
    if a.is_rational():
        return CycNum.from_rational(a.order, 1 / a.coeffs[0])
    phi = [Fraction(c) for c in cyclotomic_polynomial(a.order)]
    g, u = _poly_xgcd(list(a.coeffs), phi)
    # Phi_n is squarefree and a is nonzero, so the gcd is a nonzero constant.
    require(len(g) == 1 and g[0] != 0, "gcd with Phi_n is a nonzero constant")
    inv_coeffs = [c / g[0] for c in u]
    inv_coeffs += [Fraction(0)] * (degree(a.order) - len(inv_coeffs))
    out = CycNum(a.order, _reduce(list(inv_coeffs), a.order))
    require(out * a == CycNum.one(a.order), "inverse times a is one")
    return out

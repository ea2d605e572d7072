"""Exact linear algebra over Q and over Q(zeta_n), without field division.

Rank over the cyclotomic field is computed through the regular
representation: each entry becomes its phi(n) x phi(n) rational
multiplication matrix, and the rational rank of the blown-up matrix is
phi(n) times the rank over Q(zeta_n).  This sidesteps cyclotomic division
entirely; Gaussian elimination happens in Fraction arithmetic only.
"""

from __future__ import annotations

from fractions import Fraction

from . import require
from .cyclotomic import CycNum, _reduce, degree


def regular_representation(a: CycNum) -> list[list[Fraction]]:
    """The d x d rational matrix of multiplication by a, columns a*zeta^j."""
    d = degree(a.order)
    cols = []
    current = list(a.coeffs)
    for _ in range(d):
        cols.append(list(current))
        current = _reduce([Fraction(0)] + current, a.order)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def rank_rational(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by in-place fraction-free-ish elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(row + 1, nrows):
            c = m[i][col]
            if c:
                factor = c / pv
                ri, rp = m[i], m[row]
                for j in range(col, ncols):
                    if rp[j]:
                        ri[j] -= factor * rp[j]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rank_cyc(rows: list[list[CycNum]]) -> int:
    """Exact rank of a matrix over Q(zeta_n) (all entries one conductor)."""
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order
    d = degree(order)
    big: list[list[Fraction]] = []
    blocks = [[regular_representation(a) for a in r] for r in rows]
    for block_row in blocks:
        for i in range(d):
            big.append([b[i][j] for b in block_row for j in range(d)])
    r = rank_rational(big)
    require(r % d == 0, "blow-up rank is divisible by the field degree")
    return r // d

"""Exact linear algebra over Q(zeta_n), in integer arithmetic only.

Rank over the cyclotomic field is computed through the regular
representation: each entry a becomes the phi(n) x phi(n) rational matrix of
multiplication by a, whose column j holds the coordinates of a * zeta^j, and
the rational rank of the blown-up matrix is phi(n) times the rank over
Q(zeta_n).  Every scalar row of the blow-up is scaled to integers by the lcm
of the denominators in its block row, and the integer matrix is eliminated
fraction-free: a row with a nonzero in the pivot column becomes an integer
combination of itself and the pivot row, divided by its content (the gcd of
its entries), which keeps the entries small.  Rows with a zero there are left
untouched.  There is no field division, no float and no modular step.
"""

from __future__ import annotations

from math import gcd, lcm

from . import require
from .cyclotomic import CycNum, degree, zeta_power


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by content-normalised elimination.

    Columns are eliminated from the last one down, so a combined row can
    drop the columns after the pivot, which are zero in every active row.
    """
    rows = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) - 1 if rows else -1, -1, -1):
        hit = [r for r in rows if r[col]]
        if not hit:
            continue
        rank += 1
        pivot = min(hit, key=lambda r: abs(r[col]))
        pv, head = pivot[col], pivot[:col]
        rows = [r for r in rows if not r[col]]
        for r in hit:
            if r is pivot:
                continue
            c = r[col]
            g = gcd(pv, c)
            p, q = pv // g, c // g
            new = [p * x - q * y for x, y in zip(r, head)]
            content = gcd(*new)
            if content > 1:
                new = [x // content for x in new]
            if content:
                rows.append(new)
        if not rows:
            break
    return rank


def rank_cyc(rows: list[list[CycNum]]) -> int:
    """Exact rank of a matrix over Q(zeta_n) (all entries one conductor)."""
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order
    d = degree(order)
    zetas = [zeta_power(order, j) for j in range(d)]
    zero_column = [0] * d
    big: list[list[int]] = []
    for row in rows:
        scale = lcm(*(a.den for a in row))
        columns = []  # column j of each entry's block: the numerators of a * zeta^j
        for a in row:
            if a:
                f = scale // a.den
                columns.extend([f * c for c in (a * z).nums] for z in zetas)
            else:
                columns.extend([zero_column] * d)
        big.extend(map(list, zip(*columns)))
    r = _integer_rank(big)
    require(r % d == 0, "blow-up rank is divisible by the field degree")
    return r // d

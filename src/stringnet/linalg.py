"""Exact linear algebra over Q(zeta_n), in integer arithmetic only.

`rank_cyc` first makes one pass over the entries.  It keeps each row's
nonzero columns and entries, and groups the columns into the connected
pieces of the support graph, where row i and column j are joined when entry
(i, j) is nonzero: a row joins the pieces of all its columns, the smaller
pieces relabelled into the largest.  After rows and columns are permuted
the matrix is block-diagonal in these pieces, so its rank is the sum of the
pieces' ranks; the torus vectors, one block per centre grade, split into r
pieces, and a dense matrix stays one.  All-zero rows and columns belong to
no piece.

Each piece's rank is computed through the regular representation, on its
own rows and columns only: each entry a becomes the phi(n) x phi(n)
rational matrix of multiplication by a, whose column j holds the
coordinates of a * zeta^j, and the rational rank of the blown-up matrix is
phi(n) times the rank over Q(zeta_n).  Every scalar row of the blow-up is
scaled to integers by the lcm of the denominators in its block row, and the
integer matrix is eliminated fraction-free: a row with a nonzero in the
pivot column becomes an integer combination of itself and the pivot row,
divided by its content (the gcd of its entries), which keeps the entries
small.  Rows with a zero there are left untouched.  There is no field
division, no float and no modular step.  Every piece takes the conductor
of the matrix's first entry, and a nonzero entry of another conductor raises
`ConductorMismatchError`.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm

from . import require
from .cyclotomic import ConductorMismatchError, CycNum, degree, zeta_power


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
    """Exact rank of a matrix over Q(zeta_n) (all entries one conductor).

    The sum of the ranks of the support graph's pieces, each blown up and
    eliminated on its own columns.
    """
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order  # the conductor of every piece
    d = degree(order)
    zetas = [zeta_power(order, j) for j in range(1, d)]
    # one pass: each row's nonzero columns and entries, and the columns
    # grouped into pieces, the smaller piece relabelled into the larger
    indices = range(len(rows[0]))
    piece = list(indices)
    members = [[j] for j in indices]
    supports = []
    for row in rows:
        cols = list(compress(indices, row))
        if not cols:
            continue
        supports.append((cols, list(map(row.__getitem__, cols))))
        met = set(map(piece.__getitem__, cols))
        if len(met) > 1:
            keep = max(met, key=lambda p: len(members[p]))
            for p in met - {keep}:
                for j in members[p]:
                    piece[j] = keep
                members[keep] += members[p]
    blocks: dict[int, list] = {}
    for support in supports:
        blocks.setdefault(piece[support[0][0]], []).append(support)
    zero_column = (0,) * d
    rank = 0
    for p, block in blocks.items():
        place = {j: k * d for k, j in enumerate(sorted(members[p]))}
        big: list[list[int]] = []
        for cols, entries in block:
            scale = lcm(*[a.den for a in entries])
            columns = [zero_column] * (len(place) * d)  # column c of a block: a * zeta^c
            for j, a in zip(cols, entries):
                if a.order != order:
                    raise ConductorMismatchError(f"conductors differ: {order} vs {a.order}")
                f, k = scale // a.den, place[j]
                block_columns = [a.nums, *[(a * z).nums for z in zetas]]
                if f != 1:
                    block_columns = [[f * c for c in nums] for nums in block_columns]
                columns[k : k + d] = block_columns
            big.extend(map(list, zip(*columns)))
        r = _integer_rank(big)
        require(r % d == 0, "blow-up rank is divisible by the field degree")
        rank += r // d
    return rank

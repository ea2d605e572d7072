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

Over a field of degree phi(n) > 1, each piece is first reduced modulo one
fixed prime of degree one: p, the least prime = 1 mod n above 2^31, proven
prime by Miller-Rabin to the bases 2, 3, 5 and 7 (no composite below
3,215,031,751 passes all four), and w, an element of order exactly n in
F_p, checked by name.  Sending zeta to w maps every element whose
denominator p does not divide to F_p, and respects sums and products, so a
minor that is nonzero mod p is nonzero over Q(zeta_n): the rank mod p never
exceeds the rank, and when it is full, min(rows, columns) of the piece, it
is the rank.  The prime is fixed, not drawn, so the answer is deterministic.
A piece whose rank mod p falls short, or with an entry whose denominator p
divides, takes the blow-up below.  Over Q (n = 1, 2) every piece takes the
blow-up, whose fraction-free elimination of small integers is the cheaper
there.

The blow-up computes a piece's rank through the regular representation, on
its own rows and columns only: each entry a becomes the phi(n) x phi(n)
rational matrix of multiplication by a, whose column j holds the
coordinates of a * zeta^j, and the rational rank of the blown-up matrix is
phi(n) times the rank over Q(zeta_n).  Every scalar row of the blow-up is
scaled to integers by the lcm of the denominators in its block row, and the
integer matrix is eliminated fraction-free: a row with a nonzero in the
pivot column becomes an integer combination of itself and the pivot row,
divided by its content (the gcd of its entries), which keeps the entries
small.  Rows with a zero there are left untouched.  There is no float and
no field division on either path.  Every piece takes the conductor of the
matrix's first entry, and a nonzero entry of another conductor raises
`ConductorMismatchError`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm
from operator import attrgetter, mul

from . import require
from .cyclotomic import ConductorMismatchError, CycNum, degree, zeta_power

# The prime of degree one lies above PRIME_FLOOR and below MILLER_RABIN_LIMIT,
# the least strong pseudoprime to every base in MILLER_RABIN_BASES, so the
# test proves it prime; a conductor with no such prime takes the blow-up.
PRIME_FLOOR = 2**31
MILLER_RABIN_BASES = (2, 3, 5, 7)
MILLER_RABIN_LIMIT = 3_215_031_751


def _is_prime(p: int) -> bool:
    """Miller-Rabin to MILLER_RABIN_BASES: exact for odd 7 < p < MILLER_RABIN_LIMIT."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _element_of_order(n: int, p: int, primes: list[int]) -> int:
    """The first g^((p-1)/n), g = 2, 3, ..., that no w^(n/q), q in `primes`, sends to 1."""
    k = (p - 1) // n
    for g in count(2):
        w = pow(g, k, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            return w


@lru_cache(maxsize=None)
def _prime_of_degree_one(n: int) -> tuple[int, tuple[int, ...]] | None:
    """(p, (w^0, ..., w^(phi(n)-1))) for the conductor n, or None past the proven range."""
    start = -(-PRIME_FLOOR // n) * n + 1
    p = next((p for p in range(start, MILLER_RABIN_LIMIT, n) if p & 1 and _is_prime(p)), None)
    if p is None:
        return None
    primes = _prime_factors(n)
    w = _element_of_order(n, p, primes)
    require(
        pow(w, n, p) == 1 and all(pow(w, n // q, p) != 1 for q in primes),
        "zeta goes to an element of order n mod p",
    )
    return p, tuple(pow(w, j, p) for j in range(degree(n)))


def _modular_rank(rows: list[list[int]], p: int) -> int:
    """Rank over F_p, columns eliminated from the last one down as in `_integer_rank`."""
    rows = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) - 1 if rows else -1, -1, -1):
        hit = [r for r in rows if r[col]]
        if not hit:
            continue
        rank += 1
        pivot = hit.pop()
        inverse, head = pow(pivot[col], -1, p), pivot[:col]
        rows = [r for r in rows if not r[col]]
        for r in hit:
            c = r[col] * inverse % p
            new = [(x - c * y) % p for x, y in zip(r, head)]
            if any(new):
                rows.append(new)
        if not rows:
            break
    return rank


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


def _certified_rank(block: list, place: dict, order: int, modular: tuple, residues: dict):
    """The piece's rank when its rank mod p is full, else None.

    `residues` memoises each scalar's image in F_p by numerators and
    denominator; None also when p divides a denominator.
    """
    p, powers = modular
    rows = []
    for cols, entries in block:
        row = [0] * len(place)
        for j, a in zip(cols, entries):
            if a.order != order:
                raise ConductorMismatchError(f"conductors differ: {order} vs {a.order}")
            key = a.nums, a.den
            x = residues.get(key)
            if x is None:
                if a.den % p == 0:
                    return None
                x = residues[key] = sum(map(mul, a.nums, powers)) * pow(a.den, -1, p) % p
            row[place[j]] = x
        rows.append(row)
    rank = _modular_rank(rows, p)
    return rank if rank == min(len(rows), len(place)) else None


def _blow_up_rank(block: list, place: dict, order: int) -> int:
    """The piece's rank from the integer elimination of its regular representation."""
    d = degree(order)
    zetas = [zeta_power(order, j) for j in range(1, d)]
    zero_column = (0,) * d
    big: list[list[int]] = []
    for cols, entries in block:
        scale = lcm(*[a.den for a in entries])
        columns = [zero_column] * (len(place) * d)  # column c of a block: a * zeta^c
        for j, a in zip(cols, entries):
            if a.order != order:
                raise ConductorMismatchError(f"conductors differ: {order} vs {a.order}")
            f, k = scale // a.den, place[j] * d
            block_columns = [a.nums, *[(a * z).nums for z in zetas]]
            if f != 1:
                block_columns = [[f * c for c in nums] for nums in block_columns]
            columns[k : k + d] = block_columns
        big.extend(map(list, zip(*columns)))
    r = _integer_rank(big)
    require(r % d == 0, "blow-up rank is divisible by the field degree")
    return r // d


def rank_cyc(rows: list[list[CycNum]]) -> int:
    """Exact rank of a matrix over Q(zeta_n) (all entries one conductor).

    The sum of the ranks of the support graph's pieces, each certified full
    modulo the prime of degree one or else blown up and eliminated on its
    own columns.
    """
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order  # the conductor of every piece
    modular = _prime_of_degree_one(order) if degree(order) > 1 else None
    # one pass: each row's nonzero columns and entries, and the columns
    # grouped into pieces, the smaller piece relabelled into the larger
    indices = range(len(rows[0]))
    nums = attrgetter("nums")  # an entry is nonzero when any numerator is
    piece = list(indices)
    members = [[j] for j in indices]
    supports = []
    for row in rows:
        cols = list(compress(indices, map(any, map(nums, row))))
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
    residues: dict = {}
    rank = 0
    for p, block in blocks.items():
        place = {j: k for k, j in enumerate(sorted(members[p]))}
        r = _certified_rank(block, place, order, modular, residues) if modular else None
        rank += _blow_up_rank(block, place, order) if r is None else r
    return rank

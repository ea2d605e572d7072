from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from stringnet import InvariantError, linalg
from stringnet.category import CategoryParams
from stringnet.centre import torus_vectors
from stringnet.cyclotomic import (
    ConductorMismatchError,
    CycNum,
    degree,
    zeta_power,
)
from stringnet.frobenius import frobenius_zr, sigma_F
from stringnet.linalg import rank_cyc
from stringnet.rspin import enumerate_admissible, standard_decomposition


@lru_cache(maxsize=None)
def _field(n: int):
    """sympy's own Q(zeta_n) and its generator, an independent field arithmetic."""
    if degree(n) == 1:
        return QQ, QQ(1 if n == 1 else -1)
    zeta = sympy.exp(2 * sympy.pi * sympy.I / n)
    field = QQ.algebraic_field(zeta)
    return field, field.from_sympy(zeta)


def _domain_rank(rows: list[list[CycNum]], n: int) -> int:
    """Rank by sympy's `DomainMatrix` over its own Q(zeta_n)."""
    field, zeta = _field(n)

    def element(a: CycNum):
        coeffs = (field.convert(QQ(c.numerator, c.denominator)) for c in a.coeffs)
        return sum((c * zeta**j for j, c in enumerate(coeffs)), field.zero)

    entries = [[element(a) for a in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), field).rank()


def test_rank_cyc_dft_matrix_is_invertible():
    # the r x r character table of Z_r has full rank
    for r in (2, 3, 4, 5):
        rows = [[zeta_power(r, i * j) for j in range(r)] for i in range(r)]
        assert rank_cyc(rows) == r


def test_rank_cyc_with_dependent_rows():
    r = 5
    row = [zeta_power(r, j) for j in range(4)]
    scaled = [a * Fraction(3, 2) for a in row]
    rotated = [a * zeta_power(r, 1) for a in row]
    assert rank_cyc([row, scaled]) == 1
    # rotation by a unit is still a scalar multiple, hence dependent
    assert rank_cyc([row, rotated]) == 1
    other = [zeta_power(r, 2 * j) for j in range(4)]
    assert rank_cyc([row, other]) == 2


@given(
    n=st.sampled_from([1, 2, 3, 4]),
    data=st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    shifts=st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_rank_cyc_matches_sympy(n, data, shifts):
    rows = [
        [zeta_power(n, shifts[i] * j) * data[i][j] for j in range(3)]
        for i in range(3)
    ]
    assert rank_cyc(rows) == _domain_rank(rows, n)


@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 8, 12]),
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_rank_cyc_matches_sympy_when_deficient(n, shape, data):
    """A product through t < min(m, k) inner columns, sparse factors (so some
    rows miss a pivot), mixed denominators and an inserted zero column."""
    m, k = shape
    t = data.draw(st.integers(0, min(m, k) - 1))
    entry = st.one_of(
        st.just(None),
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=9),
            st.integers(0, n - 1),
        ),
    )

    def draw(rows: int, cols: int) -> list[list[CycNum]]:
        return [
            [
                CycNum.zero(n) if e is None else zeta_power(n, e[1]) * e[0] + e[0]
                for e in data.draw(st.lists(entry, min_size=cols, max_size=cols))
            ]
            for _ in range(rows)
        ]

    left, right = draw(m, t), draw(t, k)
    matrix = [
        [sum((left[i][s] * right[s][j] for s in range(t)), CycNum.zero(n)) for j in range(k)]
        for i in range(m)
    ]
    at = data.draw(st.integers(0, k))
    matrix = [row[:at] + [CycNum.zero(n)] + row[at:] for row in matrix]
    want = _domain_rank(matrix, n)
    assert want <= t
    assert rank_cyc(matrix) == want


@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 8, 12]),
    pieces=st.integers(1, 4),
    zero_rows=st.integers(0, 2),
    zero_cols=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_rank_cyc_of_shuffled_block_diagonal_matches_sympy(n, pieces, zero_rows, zero_cols, data):
    """Random pieces put block-diagonally, padded with all-zero rows and
    columns, then rows and columns shuffled: the rank is sympy's."""
    entry = st.one_of(
        st.just(None),
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.integers(0, n - 1),
        ),
    )
    zero = CycNum.zero(n)
    blocks = []
    for _ in range(pieces):
        m, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rows = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
        if data.draw(st.booleans()):
            rows.append(list(rows[0]))  # a dependent row
        cell = lambda e: zero if e is None else zeta_power(n, e[1]) * e[0]
        blocks.append([[cell(e) for e in row] for row in rows])
    width = sum(len(b[0]) for b in blocks) + zero_cols
    matrix, at = [], 0
    for b in blocks:
        for row in b:
            matrix.append([zero] * at + row + [zero] * (width - at - len(row)))
        at += len(b[0])
    matrix += [[zero] * width for _ in range(zero_rows)]
    row_order = data.draw(st.permutations(range(len(matrix))))
    col_order = data.draw(st.permutations(range(width)))
    matrix = [[matrix[i][j] for j in col_order] for i in row_order]
    assert rank_cyc(matrix) == _domain_rank(matrix, n)


def _eliminations(monkeypatch, rows) -> tuple[int, list[tuple[str, int, int]]]:
    """rank_cyc(rows) and each elimination it runs: the path and the piece's
    rows and columns over the field, a blow-up's integer sizes divided by phi."""
    runs = []
    modular, integer = linalg._modular_rank, linalg._integer_rank
    d = degree(rows[0][0].order)

    def mod_p(small, p):
        runs.append(("mod p", len(small), len(small[0])))
        return modular(small, p)

    def blow_up(big):
        runs.append(("blow-up", len(big) // d, len(big[0]) // d))
        return integer(big)

    monkeypatch.setattr(linalg, "_modular_rank", mod_p)
    monkeypatch.setattr(linalg, "_integer_rank", blow_up)
    return rank_cyc(rows), runs


def _prime(n: int) -> int:
    return linalg._prime_of_degree_one(n)[0]


def test_a_blow_up_rank_off_by_one_fails_its_check(monkeypatch):
    # a rank-1 piece over Q(zeta_3) is not full mod p, so it is blown up: to a
    # rank-2 integer block over a field of degree 2, and an elimination that
    # reports 3 is caught
    real = linalg._integer_rank
    monkeypatch.setattr(linalg, "_integer_rank", lambda big: real(big) + 1)
    z = zeta_power(3, 1)
    with pytest.raises(InvariantError) as exc:
        rank_cyc([[z, z], [z, z]])
    assert exc.value.invariant == "blow-up rank is divisible by the field degree"


def test_torus_matrix_is_eliminated_one_grade_block_at_a_time(monkeypatch):
    # r^2 torus vectors, block-diagonal by centre grade: r pieces of r x r at r = 5
    params = CategoryParams(5)
    vectors = [v.coords for v in torus_vectors(params)]
    rows = [[v[i] for v in vectors] for i in range(25)]
    rank, runs = _eliminations(monkeypatch, rows)
    assert rank == 25 and [shape for _, *shape in runs] == [[5, 5]] * 5
    # each piece is full rank mod p, so none is blown up
    assert {path for path, *_ in runs} == {"mod p"}


def test_dense_sigma_matrix_is_eliminated_once(monkeypatch):
    params = CategoryParams(2)
    f_data = frobenius_zr(params)
    markings = enumerate_admissible(standard_decomposition(2), 2)
    vectors = [sigma_F(m, f_data).coords for m in markings]
    rows = [[v[i] for v in vectors] for i in range(len(vectors[0]))]
    # over Q every piece is blown up: there the integer elimination is the cheaper
    assert _eliminations(monkeypatch, rows) == (16, [("blow-up", 16, 16)])


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 40])
def test_the_prime_of_degree_one_is_the_least_above_the_floor(n):
    p, powers = linalg._prime_of_degree_one(n)
    assert p > linalg.PRIME_FLOOR and p % n == 1 and sympy.isprime(p)
    assert not any(sympy.isprime(q) for q in range(p - n, linalg.PRIME_FLOOR, -n))
    w = powers[1]
    assert len(powers) == degree(n) and powers == tuple(pow(w, j, p) for j in range(degree(n)))
    assert sympy.n_order(w, p) == n


def test_miller_rabin_to_four_bases_is_exact_below_its_limit():
    start = linalg.PRIME_FLOOR + 1
    for m in range(start, start + 4000, 2):
        assert linalg._is_prime(m) == sympy.isprime(m), m
    # the limit is the least composite that all four bases pass
    limit = linalg.MILLER_RABIN_LIMIT
    assert linalg._is_prime(limit) and not sympy.isprime(limit)


def test_a_conductor_with_no_proven_prime_of_degree_one_takes_the_blow_up():
    # the only candidate below the limit, 2^31 + 1, is 3 times 715,827,883
    assert linalg._prime_of_degree_one(2**31) is None


def test_a_root_of_unity_of_the_wrong_order_fails_its_check(monkeypatch):
    # w^2 has order n / 2 for even n, so zeta would not go to a root of Phi_n
    real = linalg._element_of_order
    monkeypatch.setattr(linalg, "_element_of_order", lambda n, p, qs: pow(real(n, p, qs), 2, p))
    linalg._prime_of_degree_one.cache_clear()
    try:
        with pytest.raises(InvariantError) as exc:
            linalg._prime_of_degree_one(4)
    finally:
        linalg._prime_of_degree_one.cache_clear()
    assert exc.value.invariant == "zeta goes to an element of order n mod p"


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_outer_products_rank_one(n):
    # [[z^a, z^b], [z^(a+1), z^(b+1)]] with a power at or past phi(n), which is
    # reduced through Phi_n, stays singular mod p only if zeta goes to a root of Phi_n
    d = degree(n)
    for a, b in ((0, 1), (0, d), (1, d + 1)):
        rows = [[zeta_power(n, a), zeta_power(n, b)], [zeta_power(n, a + 1), zeta_power(n, b + 1)]]
        assert rank_cyc(rows) == 1


def test_a_rank_that_drops_mod_p_is_found_by_the_blow_up(monkeypatch):
    # diag(p, 1) has rank 2 over Q(zeta_3), and rank 1 mod p: the piece p is
    # zero mod p and is blown up, the piece 1 is certified
    p = _prime(3)
    rows = [[CycNum.from_rational(3, p), CycNum.zero(3)], [CycNum.zero(3), CycNum.one(3)]]
    runs = [("mod p", 1, 1), ("blow-up", 1, 1), ("mod p", 1, 1)]
    assert _eliminations(monkeypatch, rows) == (2, runs)


def test_a_rank_deficient_piece_is_blown_up(monkeypatch):
    z = zeta_power(5, 2)
    rows = [[z, z * z, CycNum.zero(5)], [z * 3, z * z * 3, CycNum.zero(5)], [CycNum.zero(5)] * 3]
    assert _eliminations(monkeypatch, rows) == (1, [("mod p", 2, 2), ("blow-up", 2, 2)])


def test_an_entry_whose_denominator_p_divides_is_blown_up(monkeypatch):
    # such an entry has no image in F_p, so its piece is not reduced at all
    z, p = zeta_power(3, 1), _prime(3)
    rows = [[z * Fraction(1, p), CycNum.zero(3)], [CycNum.zero(3), z]]
    assert _eliminations(monkeypatch, rows) == (2, [("blow-up", 1, 1), ("mod p", 1, 1)])


def test_rank_cyc_rejects_pieces_of_another_conductor():
    # each piece has its own first entry; the conductor is still the matrix's
    rows = [[CycNum.one(3), CycNum.zero(3)], [CycNum.zero(4), CycNum.one(4)]]
    with pytest.raises(ConductorMismatchError):
        rank_cyc(rows)
    # no multiplication by a root of unity happens at degree 1
    with pytest.raises(ConductorMismatchError):
        rank_cyc([[CycNum.one(2), CycNum.zero(2)], [CycNum.zero(1), CycNum.one(1)]])


@pytest.mark.parametrize("n", [1, 3, 8])
def test_rank_cyc_of_a_zero_matrix_is_zero(n):
    assert rank_cyc([[CycNum.zero(n)] * 3 for _ in range(2)]) == 0
    assert rank_cyc([[CycNum.zero(n)]]) == 0
    assert rank_cyc([]) == rank_cyc([[]]) == 0


@pytest.mark.parametrize("n", [1, 5, 12])
def test_rank_cyc_of_a_single_row_or_column(n):
    zero, z = CycNum.zero(n), zeta_power(n, 1)
    for line in ([zero, z, zero, z * z], [zero, zero, z * Fraction(2, 3)]):
        assert rank_cyc([line]) == 1
        assert rank_cyc([[a] for a in line]) == 1
    assert rank_cyc([[zero] * 4]) == rank_cyc([[zero]] * 4) == 0

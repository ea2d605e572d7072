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


def _elimination_sizes(monkeypatch, rows) -> tuple[int, list[int]]:
    """rank_cyc(rows) and the row count of each integer elimination it runs."""
    sizes = []
    real = linalg._integer_rank
    monkeypatch.setattr(linalg, "_integer_rank", lambda big: sizes.append(len(big)) or real(big))
    return rank_cyc(rows), sizes


def test_a_blow_up_rank_off_by_one_fails_its_check(monkeypatch):
    # zeta_3 blows up to a rank-2 integer block over Q(zeta_3) of degree 2, so
    # an elimination that reports 3 is caught
    real = linalg._integer_rank
    monkeypatch.setattr(linalg, "_integer_rank", lambda big: real(big) + 1)
    with pytest.raises(InvariantError) as exc:
        rank_cyc([[zeta_power(3, 1)]])
    assert exc.value.invariant == "blow-up rank is divisible by the field degree"


def test_torus_matrix_is_eliminated_one_grade_block_at_a_time(monkeypatch):
    # r^2 torus vectors, block-diagonal by centre grade: r blocks of r x r,
    # each blown up to r * phi(r) = 20 integer rows at r = 5
    params = CategoryParams(5)
    vectors = [v.coords for v in torus_vectors(params)]
    rows = [[v[i] for v in vectors] for i in range(25)]
    assert _elimination_sizes(monkeypatch, rows) == (25, [20] * 5)


def test_dense_sigma_matrix_is_eliminated_once(monkeypatch):
    params = CategoryParams(2)
    f_data = frobenius_zr(params)
    markings = enumerate_admissible(standard_decomposition(2), 2)
    vectors = [sigma_F(m, f_data).coords for m in markings]
    rows = [[v[i] for v in vectors] for i in range(len(vectors[0]))]
    assert _elimination_sizes(monkeypatch, rows) == (16, [16])


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

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from stringnet.cyclotomic import CycNum, degree, rational_scale, zeta_power
from stringnet.linalg import rank_cyc


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
    scaled = [rational_scale(a, Fraction(3, 2)) for a in row]
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
        [rational_scale(zeta_power(n, shifts[i] * j), data[i][j]) for j in range(3)]
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
                CycNum.zero(n) if e is None else rational_scale(zeta_power(n, e[1]), e[0]) + e[0]
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

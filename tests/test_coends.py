"""Coend object, central hull, the coend map, Hom-space bookkeeping."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet import diagrams
from stringnet.category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    compose,
    dual_object,
    simple_object,
    tensor_morphisms,
    tensor_objects,
    unit_object,
)
from stringnet.coends import (
    HomSpaceVector,
    central_hull,
    coend_object,
    coend_split,
    jmath,
    simples_object,
)
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.diagrams import SliceDiagram, box, evaluate, identity, loop_sum
from stringnet.linalg import rank_cyc
from stringnet.spaces import _bp_column_diagram, tilde_bp_operator

from morphism_reference import dual_morphism


def test_coend_summands_lex_and_grade_zero():
    h = coend_object(3)
    assert h.grades == (0,) * 9
    assert coend_object(3) is h
    # the summand of the pair (s, t) is the k-th in lexicographic order
    for k, (s, t) in enumerate(itertools.product(range(3), repeat=2)):
        m = jmath(simple_object(3, s), simple_object(3, t))
        assert m.target is h
        assert [i for i in range(9) if m.matrix[i][0]] == [k]


def test_central_hull_of_unit():
    hull = central_hull(simple_object(3, 0))
    assert hull == GradedObject(3, (0, 0, 0))


@pytest.mark.parametrize("r", range(1, 6))
def test_central_hull_of_simple_is_r_copies(r):
    for b in range(r):
        hull = central_hull(simple_object(r, b))
        assert hull == GradedObject(r, (b,) * r)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_central_hull_dimension(data):
    r = data.draw(st.integers(1, 5))
    x = GradedObject(r, data.draw(st.lists(st.integers(0, r - 1), max_size=4)))
    hull = central_hull(x)
    assert hull.r == r
    assert hull.dim == r * x.dim
    # block u, the summand U^dual (x) X (x) U, sits at u * dim X
    for u in range(r):
        off = u * x.dim
        assert hull.grades[off : off + x.dim] == x.grades


def test_jmath_unit_case():
    m = jmath(simple_object(2, 0), simple_object(2, 0))
    assert m.source.grades == (0,)
    assert m.target.grades == (0,) * 4
    assert [row[0] for row in m.matrix] == [1, 0, 0, 0]


@pytest.mark.parametrize("r", range(1, 5))
def test_jmath_simple_lands_in_one_summand(r):
    for a in range(r):
        for b in range(r):
            m = jmath(simple_object(r, a), simple_object(r, b))
            assert m.source.dim == 1
            hits = [i for i in range(r * r) if m.matrix[i][0]]
            assert hits == [a * r + b]
            assert m.matrix[a * r + b][0] == 1


@pytest.mark.parametrize("r", range(1, 5))
def test_jmath_of_f_hits_every_summand(r):
    f_obj = GradedObject(r, tuple(range(r)))
    m = jmath(f_obj, f_obj)
    assert m.target.dim == r * r
    rows_hit = {i for i in range(r * r) if any(m.matrix[i])}
    assert rows_hit == set(range(r * r))
    assert rank_cyc([list(row) for row in m.matrix]) == r * r


def _simple_basis(x: GradedObject, s: int, scales: Sequence[Fraction] | None = None):
    """Dual-basis pairs for C(X, C_s): (alpha: X -> C_s, abar: C_s -> X).

    One pair per position of X carrying grade s.  Optional nonzero scales
    multiply alpha and divide abar, preserving alpha o abar = id.
    """
    r = x.r
    cs = simple_object(r, s)
    out = []
    positions = [i for i, g in enumerate(x.grades) if g == s % r]
    for k, i in enumerate(positions):
        c = Fraction(1) if scales is None else Fraction(scales[k])
        if c == 0:
            raise ValueError("basis scale must be nonzero")
        alpha = GradedMorphism.from_entries(
            x, cs, {(0, i): CycNum.from_rational(r, c)}
        )
        abar = GradedMorphism.from_entries(
            cs, x, {(i, 0): CycNum.from_rational(r, 1 / c)}
        )
        out.append((alpha, abar))
    return out


def _jmath_with_scales(x, y, x_scales, y_scales) -> GradedMorphism:
    """jmath assembled from the dual-basis pairs of `_simple_basis`."""
    r = x.r
    h_obj = coend_object(r)
    source = tensor_objects(dual_object(x), dual_object(y), x, y)
    total = GradedMorphism.zero_map(source, h_obj)
    for s, t in itertools.product(range(r), repeat=2):
        row = GradedMorphism.from_entries(
            simple_object(r, 0), h_obj, {(s * r + t, 0): CycNum.one(r)}
        )
        for alpha, abar in _simple_basis(x, s, x_scales):
            for beta, bbar in _simple_basis(y, t, y_scales):
                leg = tensor_morphisms(
                    tensor_morphisms(dual_morphism(abar), dual_morphism(bbar)),
                    tensor_morphisms(alpha, beta),
                )
                # leg lands in S^dual T^dual S T, a single grade-0 summand
                total = total + compose(row, leg)
    return total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_jmath_basis_independent(data):
    """The closed form equals the dual-basis assembly for any rescaled pairs."""
    r = data.draw(st.integers(1, 5))
    grades = st.lists(st.integers(0, r - 1), max_size=3)
    x = GradedObject(r, data.draw(grades))
    y = GradedObject(r, data.draw(grades))
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    x_scales = data.draw(st.lists(nonzero, min_size=x.dim, max_size=x.dim))
    y_scales = data.draw(st.lists(nonzero, min_size=y.dim, max_size=y.dim))
    want = _jmath_with_scales(x, y, x_scales, y_scales)
    assert jmath(x, y) == want
    assert _jmath_with_scales(x, y, None, None) == want


def test_jmath_entry_pattern():
    # for simples, the only entry pairs mirrored dual positions with +1
    r = 3
    x = GradedObject(r, (1, 2))
    y = simple_object(r, 1)
    m = jmath(x, y)
    # source word: dual(x) (x) dual(y) (x) x (x) y , dims 2,1,2,1
    for i in range(2):
        s = x.grades[i]
        flat = ((1 - i) * 1 + 0) * 2 * 1 + i * 1 + 0
        assert m.matrix[s * r + 1][flat] == 1


@pytest.mark.parametrize(
    "genus,r,want", [(1, 3, 9), (0, 5, 1), (2, 2, 16), (1, 1, 1)]
)
def test_hom_space_basis_dimension(genus, r, want):
    # every summand of H^{(x)g} has grade zero, so each is one basis vector
    # of C(1, H^{(x)g}); the projector acts on exactly that many coordinates
    handles = tensor_objects(*[coend_object(r)] * genus) if genus else unit_object(r)
    assert sum(1 for g in handles.grades if g == 0) == handles.dim == want
    assert len(tilde_bp_operator(CategoryParams(r), genus).operator_matrix) == want


@pytest.mark.parametrize("r", range(1, 7))
def test_coend_split_then_jmath_is_the_identity_on_h(r):
    lsum = simples_object(r)
    split = coend_split(r)
    assert coend_split(r) is split
    assert split.source is coend_object(r)
    assert split.target == tensor_objects(dual_object(lsum), dual_object(lsum), lsum, lsum)
    h = coend_object(r)
    d = SliceDiagram(h, [[box(split)], [box(jmath(lsum, lsum))]])
    assert evaluate(d, CategoryParams(r)) == identity(h)


@pytest.mark.parametrize("orientation", ["anticlockwise", "clockwise"])
@pytest.mark.parametrize("r, genus", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_free_handle_operator_matches_one_loop_sum_per_basis_vector(r, genus, orientation):
    # the reference labels every handle, so each diagram carries one basis vector
    params = CategoryParams(r)
    side = "right" if orientation == "anticlockwise" else "left"

    def labelled_sum(chi):
        return loop_sum(
            lambda u: _bp_column_diagram(params, genus, chi, u, orientation), side, params
        )

    columns = []
    for chi in itertools.product(range(r), repeat=2 * genus):
        (column,) = zip(*labelled_sum(chi).matrix)
        columns.append(column)
    report = tilde_bp_operator(params, genus, orientation=orientation)
    assert report.operator_matrix == tuple(zip(*columns))
    # labelling the first k handles leaves a block of r^(2(g-k)) columns,
    # the labelling's own, in the order the free handles read them
    for k in range(1, genus):
        width = r ** (2 * (genus - k))
        for i, chi in enumerate(itertools.product(range(r), repeat=2 * k)):
            block = tuple(zip(*labelled_sum(chi).matrix))
            assert block == tuple(columns[i * width : (i + 1) * width]), (k, chi)


def test_projector_evaluates_one_diagram_per_loop_label_and_block(monkeypatch):
    # every handle is free, so the r diagrams of one loop sum carry all r^(2g)
    # columns at every genus
    calls = []
    real = diagrams.evaluate
    monkeypatch.setattr(diagrams, "evaluate", lambda d, params: calls.append(d) or real(d, params))
    for r, genus in [(1, 0), (3, 0), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)]:
        calls.clear()
        tilde_bp_operator(CategoryParams(r), genus)
        assert len(calls) == r, (r, genus)


def test_column_diagram_takes_labels_in_pairs_up_to_every_handle():
    params = CategoryParams(2)
    with pytest.raises(ValueError, match="genus 2 takes labels in pairs, at most 4, got 1"):
        _bp_column_diagram(params, 2, (0,), 0, "anticlockwise")
    with pytest.raises(ValueError, match="got 6"):
        _bp_column_diagram(params, 2, (0,) * 6, 0, "anticlockwise")
    for labels in [(), (0, 1), (0, 1, 1, 0)]:
        d = _bp_column_diagram(params, 2, labels, 0, "anticlockwise")
        assert evaluate(d, params).source.dim == 4 ** (2 - len(labels) // 2)


def test_hom_space_vector_coordinate_count():
    r = 2
    column = ((1, zeta_power(r, 1)), (3, CycNum.one(r)))
    zero = CycNum.zero(r)
    assert HomSpaceVector(r, 1, column).coords == (zero, zeta_power(r, 1), zero, CycNum.one(r))
    assert HomSpaceVector(r, 1, ()).coords == (zero,) * 4
    # genus 0 is C(1, 1): one coordinate
    assert HomSpaceVector(3, 0, ((0, CycNum.one(3)),)).coords == (CycNum.one(3),)

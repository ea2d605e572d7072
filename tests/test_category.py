"""Graded objects, morphisms, duality and the two traces."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet.category import (
    MEMO_SIZE,
    CategoryParams,
    GradeSupportError,
    GradedMorphism,
    GradedObject,
    compose,
    delta_pivot,
    dimension,
    dual_object,
    duality_map,
    loop_weight,
    simple_object,
    tensor_morphisms,
    tensor_objects,
    unit_object,
)
from stringnet.coends import jmath
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.diagrams import identity

from morphism_reference import dual_morphism, global_dimension, trace


def _rand_morphism(draw, params: CategoryParams, source=None, target=None):
    r = params.r
    grades = st.lists(st.integers(0, r - 1), min_size=0, max_size=3)
    if source is None:
        source = GradedObject(r, draw(grades))
    if target is None:
        target = GradedObject(r, draw(grades))
    entries = {}
    for i, gt in enumerate(target.grades):
        for j, gs in enumerate(source.grades):
            if gt == gs and draw(st.booleans()):
                q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                entries[(i, j)] = params.zeta(draw(st.integers(0, r - 1))) * q
    return GradedMorphism.from_entries(source, target, entries)


@st.composite
def morphism_pair_composable(draw):
    r = draw(st.integers(1, 5))
    params = CategoryParams(r)
    mid = GradedObject(r, draw(st.lists(st.integers(0, r - 1), max_size=3)))
    g = _rand_morphism(draw, params, target=mid)
    f = _rand_morphism(draw, params, source=mid)
    return params, f, g


@st.composite
def two_morphisms(draw):
    r = draw(st.integers(1, 5))
    params = CategoryParams(r)
    return params, _rand_morphism(draw, params), _rand_morphism(draw, params)


def test_object_grades_normalized_mod_r():
    x = GradedObject(3, (4, -1, 3))
    assert x.grades == (1, 2, 0)


def test_tensor_objects_row_major_and_unit():
    x = GradedObject(5, (1, 2))
    y = GradedObject(5, (3,))
    z = GradedObject(5, (0, 4))
    t = tensor_objects
    assert t(x, y).grades == (4, 0)
    assert t(t(x, y), z).grades == t(x, t(y, z)).grades == t(x, y, z).grades
    assert t(unit_object(5), x).grades == x.grades
    assert t(x, unit_object(5)).grades == x.grades


def test_dual_object_reverses_and_negates():
    x = GradedObject(5, (1, 2, 0))
    assert dual_object(x).grades == (0, 3, 4)
    assert dual_object(dual_object(x)) == x


def test_dual_of_tensor():
    # Row-major flattening makes the same-order identity strict; the
    # reversed-order dual agrees only as a multiset of summands.
    x = GradedObject(7, (1, 2))
    y = GradedObject(7, (3, 4, 5))
    xy = tensor_objects(x, y)
    assert dual_object(xy) == tensor_objects(dual_object(x), dual_object(y))
    assert sorted(dual_object(xy).grades) == sorted(
        tensor_objects(dual_object(y), dual_object(x)).grades
    )


def test_grade_support_enforced():
    src = GradedObject(3, (0, 1))
    tgt = GradedObject(3, (1,))
    one = CycNum.one(3)
    GradedMorphism.from_entries(src, tgt, {(0, 1): one})
    with pytest.raises(GradeSupportError):
        GradedMorphism.from_entries(src, tgt, {(0, 0): one})


@pytest.mark.parametrize("index", [(-1, -1), (0, -1), (3, 0), (0, 3)])
def test_from_entries_rejects_index_outside_shape(index):
    x = GradedObject(3, (0, 0, 0))
    i, j = index
    with pytest.raises(ValueError, match=re.escape(f"({i},{j}) outside the 3x3")):
        GradedMorphism.from_entries(x, x, {index: CycNum.one(3)})


def _dense_entries(f: GradedMorphism) -> dict:
    """Every cell of f, zeros included, keyed by (row, column)."""
    return {(i, j): a for i, row in enumerate(f.matrix) for j, a in enumerate(row)}


@given(two_morphisms())
@settings(max_examples=60, deadline=None)
def test_dense_and_mapping_construction_agree(data):
    _, f, _ = data
    rows = f.matrix
    dense = GradedMorphism(f.source, f.target, rows)
    nonzero = {key: a for key, a in _dense_entries(f).items() if a}
    sparse = GradedMorphism(f.source, f.target, nonzero)
    assert dense == sparse == f
    assert hash(dense) == hash(sparse) == hash(f)
    assert dense.matrix == rows
    assert len(rows) == f.target.dim and all(len(row) == f.source.dim for row in rows)
    for j, col in enumerate(f.columns):
        assert [i for i, _ in col] == sorted(i for i, _ in col)
        assert all(a and rows[i][j] is a for i, a in col)


@given(two_morphisms())
@settings(max_examples=60, deadline=None)
def test_explicit_zeros_and_entry_order_do_not_matter(data):
    _, f, _ = data
    cells = list(_dense_entries(f).items())
    shuffled = GradedMorphism(f.source, f.target, dict(reversed(cells)))
    assert shuffled == f and hash(shuffled) == hash(f)
    assert all(a for col in shuffled.columns for _, a in col)


@st.composite
def off_grade_cell(draw):
    """Objects with a cell (i, j) whose target and source grades differ."""
    r = draw(st.integers(2, 5))
    grades = st.lists(st.integers(0, r - 1), min_size=1, max_size=3)
    source = GradedObject(r, draw(grades))
    target = GradedObject(r, draw(grades))
    cells = [
        (i, j)
        for i, gt in enumerate(target.grades)
        for j, gs in enumerate(source.grades)
        if gt != gs
    ]
    if not cells:
        target = GradedObject(r, [source.grades[0] + 1])
        cells = [(0, 0)]
    return CategoryParams(r), source, target, draw(st.sampled_from(cells))


@given(off_grade_cell(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_off_grade_nonzero_rejected_by_both_constructors(case, k):
    params, source, target, (i, j) = case
    a = params.zeta(k)
    with pytest.raises(GradeSupportError, match=re.escape(f"entry ({i},{j})")):
        GradedMorphism.from_entries(source, target, {(i, j): a})
    rows = [[params.zero()] * source.dim for _ in range(target.dim)]
    rows[i][j] = a
    with pytest.raises(GradeSupportError, match=re.escape(f"entry ({i},{j})")):
        GradedMorphism(source, target, rows)
    # a zero off the grade support is no entry at all
    assert GradedMorphism.from_entries(source, target, {(i, j): params.zero()}) == (
        GradedMorphism.zero_map(source, target)
    )


@given(two_morphisms(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_wrong_conductor_entry_rejected_by_both_constructors(data, zero):
    params, f, _ = data
    if not (f.source.dim and f.target.dim):
        f = GradedMorphism.identity(unit_object(params.r))
    other = CycNum.zero(params.r + 1) if zero else CycNum.one(params.r + 1)
    entries = _dense_entries(f)
    entries[(0, 0)] = other
    with pytest.raises(ValueError, match="conductor"):
        GradedMorphism.from_entries(f.source, f.target, entries)
    rows = [list(row) for row in f.matrix]
    rows[0][0] = other
    with pytest.raises(ValueError, match="conductor"):
        GradedMorphism(f.source, f.target, rows)


@st.composite
def memoised_call(draw):
    """One memoised builder with inputs drawn for it."""
    r = draw(st.integers(1, 5))
    obj = st.builds(
        GradedObject, st.just(r), st.lists(st.integers(0, r - 1), min_size=1, max_size=3)
    )
    name = draw(
        st.sampled_from(
            [
                "unit_object",
                "simple_object",
                "tensor_objects",
                "dual_object",
                "duality_map",
                "identity",
                "jmath",
            ]
        )
    )
    if name == "unit_object":
        return unit_object, (r,)
    if name == "simple_object":
        return simple_object, (r, draw(st.integers(-r, 2 * r)))
    if name == "tensor_objects":
        return tensor_objects, tuple(draw(st.lists(obj, min_size=1, max_size=3)))
    if name == "dual_object":
        return dual_object, (draw(obj),)
    if name == "duality_map":
        kind = draw(st.sampled_from(["cap_left", "cap_right", "cup_left", "cup_right"]))
        return duality_map, (draw(obj), kind)
    if name == "identity":
        return identity, (draw(obj),)
    return jmath, (draw(obj), draw(obj))


@given(memoised_call())
@settings(max_examples=80, deadline=None)
def test_memoised_builders_match_their_uncached_function(call):
    fn, args = call
    assert fn.cache_info().maxsize == MEMO_SIZE
    cached = fn(*args)
    assert fn(*args) is cached
    assert fn.__wrapped__(*args) == cached


def test_compose_shape_mismatch():
    p = CategoryParams(2)
    f = GradedMorphism.identity(GradedObject(2, (0,)))
    g = GradedMorphism.identity(GradedObject(2, (1,)))
    with pytest.raises(ValueError, match="compose"):
        compose(f, g)
    assert p.r == 2


@given(morphism_pair_composable())
@settings(max_examples=60, deadline=None)
def test_dual_morphism_contravariant(data):
    _, f, g = data
    lhs = dual_morphism(compose(f, g))
    rhs = compose(dual_morphism(g), dual_morphism(f))
    assert lhs == rhs


@given(two_morphisms())
@settings(max_examples=60, deadline=None)
def test_dual_of_tensor_morphism(data):
    _, f, g = data
    t = tensor_morphisms
    assert dual_morphism(t(f, g)) == t(dual_morphism(f), dual_morphism(g))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_interchange_law(data):
    r = data.draw(st.integers(1, 4))
    params = CategoryParams(r)
    mids = st.lists(st.integers(0, r - 1), max_size=2)
    m1 = GradedObject(r, data.draw(mids))
    m2 = GradedObject(r, data.draw(mids))
    f = _rand_morphism(data.draw, params, source=m1)
    h = _rand_morphism(data.draw, params, target=m1)
    g = _rand_morphism(data.draw, params, source=m2)
    k = _rand_morphism(data.draw, params, target=m2)
    t = tensor_morphisms
    assert compose(t(f, g), t(h, k)) == t(compose(f, h), compose(g, k))


@pytest.mark.parametrize("r", range(1, 7))
def test_zigzag_identities(r):
    params = CategoryParams(r)
    for grades in [(0,), (1 % r,), (0, 1 % r), (1 % r, 2 % r, (r - 1) % r)]:
        x = GradedObject(r, grades)
        xd = dual_object(x)
        ev_left, coev_left, ev_right, coev_right = (
            duality_map(x, kind)
            for kind in ("cap_left", "cup_left", "cap_right", "cup_right")
        )
        id_x = GradedMorphism.identity(x)
        id_xd = GradedMorphism.identity(xd)
        t = tensor_morphisms
        assert compose(t(ev_left, id_xd), t(id_xd, coev_left)) == id_xd
        assert compose(t(id_x, ev_left), t(coev_left, id_x)) == id_x
        assert compose(t(ev_right, id_x), t(id_x, coev_right)) == id_x
        assert compose(t(id_xd, ev_right), t(coev_right, id_xd)) == id_xd


@pytest.mark.parametrize("r", range(1, 7))
def test_pivot_relates_left_and_right_duality(r):
    params = CategoryParams(r)
    for grades in [(0,), (2 % r, 1 % r), (1 % r, 1 % r, 3 % r)]:
        x = GradedObject(r, grades)
        xd = dual_object(x)
        piv = delta_pivot(x, params)
        assert duality_map(x, "cap_right") == compose(
            duality_map(xd, "cap_left"),
            tensor_morphisms(piv, GradedMorphism.identity(xd)),
        )
        # and the coev counterpart through the inverse pivot
        piv_inv = GradedMorphism.from_entries(
            x, x, {(i, i): params.zeta(-g) for i, g in enumerate(x.grades)}
        )
        assert duality_map(x, "cup_right") == compose(
            tensor_morphisms(GradedMorphism.identity(xd), piv_inv),
            duality_map(xd, "cup_left"),
        )


def test_pivot_monoidal():
    params = CategoryParams(5)
    x = GradedObject(5, (1, 2))
    y = GradedObject(5, (3,))
    assert delta_pivot(tensor_objects(x, y), params) == tensor_morphisms(
        delta_pivot(x, params), delta_pivot(y, params)
    )


@pytest.mark.parametrize("r", range(1, 9))
def test_dimensions_of_simples(r):
    params = CategoryParams(r)
    for u in range(r):
        cu = simple_object(r, u)
        assert dimension(cu, "right", params) == zeta_power(r, u)
        assert dimension(cu, "left", params) == zeta_power(r, -u)
        prod = dimension(cu, "left", params) * dimension(cu, "right", params)
        assert prod == 1


def test_dimension_left_is_right_of_dual():
    params = CategoryParams(6)
    x = GradedObject(6, (1, 2, 2, 5))
    assert dimension(x, "left", params) == dimension(dual_object(x), "right", params)


def test_dimension_rejects_bad_side():
    params = CategoryParams(3)
    with pytest.raises(ValueError, match="side"):
        dimension(unit_object(3), "up", params)


@pytest.mark.parametrize("r", range(1, 7))
def test_trace_of_identity_is_dimension(r):
    params = CategoryParams(r)
    for grades in [(0,), (1 % r, 2 % r), (3 % r, 3 % r, 0)]:
        x = GradedObject(r, grades)
        f = GradedMorphism.identity(x)
        assert trace(f, "left", params) == dimension(x, "left", params)
        assert trace(f, "right", params) == dimension(x, "right", params)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_trace_closed_form(data):
    """Diagram-route trace against the weighted-diagonal formula."""
    r = data.draw(st.integers(1, 6))
    params = CategoryParams(r)
    x = GradedObject(r, data.draw(st.lists(st.integers(0, r - 1), max_size=3)))
    f = _rand_morphism(data.draw, params, source=x, target=x)
    want_l = CycNum.zero(r)
    want_r = CycNum.zero(r)
    for j, g in enumerate(x.grades):
        want_l = want_l + zeta_power(r, -g) * f.matrix[j][j]
        want_r = want_r + zeta_power(r, g) * f.matrix[j][j]
    assert trace(f, "left", params) == want_l
    assert trace(f, "right", params) == want_r


def test_trace_multiplicative_under_tensor():
    params = CategoryParams(4)
    x = GradedObject(4, (1, 3))
    y = GradedObject(4, (2,))
    f = GradedMorphism.from_entries(
        x, x, {(0, 0): params.zeta(1), (1, 1): params.zeta(2) * 3}
    )
    g = GradedMorphism.identity(y).scale(Fraction(1, 2))
    for side in ("left", "right"):
        assert trace(tensor_morphisms(f, g), side, params) == trace(
            f, side, params
        ) * trace(g, side, params)


@pytest.mark.parametrize("r", range(1, 9))
def test_spherical_iff_r_at_most_two(r):
    params = CategoryParams(r)
    f = GradedMorphism.identity(simple_object(r, 1 % r))
    equal = trace(f, "left", params) == trace(f, "right", params)
    assert equal == (r in (1, 2))


@pytest.mark.parametrize("r", range(1, 10))
def test_global_dimension_is_r(r):
    params = CategoryParams(r)
    assert global_dimension(params) == r


@pytest.mark.parametrize("r", range(1, 7))
def test_loop_weight_is_dimension_over_global_dimension(r):
    params = CategoryParams(r)
    for u in range(r):
        for side in ("left", "right"):
            w = loop_weight(u, side, params)
            assert w * global_dimension(params) == dimension(
                simple_object(r, u), side, params
            )
    assert loop_weight(1 % r, "right", params) == params.zeta(1) * Fraction(1, r)
    # memoised: an equal params object gets the weight already computed
    assert loop_weight(0, "left", CategoryParams(r)) is loop_weight(0, "left", params)


def test_morphism_tensor_matches_kronecker():
    params = CategoryParams(3)
    x = GradedObject(3, (0, 1))
    f = GradedMorphism.from_entries(
        x, x, {(0, 0): params.zeta(1), (1, 1): params.zeta(2)}
    )
    y = GradedObject(3, (2,))
    g = GradedMorphism.identity(y).scale(3)
    fg = tensor_morphisms(f, g)
    assert fg.source == tensor_objects(x, y)
    assert fg.matrix[0][0] == params.zeta(1) * 3
    assert fg.matrix[1][1] == params.zeta(2) * 3


def test_mixed_r_rejected():
    x = GradedObject(2, (0,))
    y = GradedObject(3, (0,))
    with pytest.raises(ValueError, match="mixed r"):
        tensor_objects(x, y)

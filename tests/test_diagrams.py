"""Evaluation of sliced diagrams: loops, zig-zags, re-slicing, basis sums."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet.category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    _Columns,
    compose,
    delta_pivot,
    dimension,
    dual_object,
    simple_object,
    tensor_morphisms,
    tensor_objects,
    unit_object,
)
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.diagrams import (
    DiagramTypeError,
    SliceDiagram,
    _layer_ends,
    _layer_steps,
    _push,
    box,
    cap_left,
    cap_right,
    cup_left,
    cup_right,
    evaluate,
    identity,
    loop_sum,
)
from stringnet.centre import torus_vectors
from stringnet.frobenius import frobenius_zr, sigma_F
from stringnet.rspin import enumerate_admissible, standard_decomposition
from stringnet.spaces import tilde_bp_operator


def _loop(u: int, orientation: str, params: CategoryParams):
    """A small loop on the grade-u simple, as a cup followed by a cap."""
    x = simple_object(params.r, u)
    if orientation == "clockwise":
        layers = [[cup_left(x)], [cap_right(x)]]
    else:
        layers = [[cup_right(x)], [cap_left(x)]]
    return evaluate(SliceDiagram(unit_object(params.r), layers), params).matrix[0][0]


def test_loop_values_match_dimensions():
    # clockwise closes with the weighted cap: the right dimension zeta^u;
    # anticlockwise opens with the weighted cup: the left dimension zeta^{-u}
    p4 = CategoryParams(4)
    assert _loop(1, "clockwise", p4) == zeta_power(4, 1)
    assert _loop(1, "anticlockwise", p4) == zeta_power(4, -1)
    for orient in ("clockwise", "anticlockwise"):
        assert _loop(0, orient, p4) == 1
    # zeta^{-2} = zeta^{1} when r = 3
    p3 = CategoryParams(3)
    assert _loop(2, "anticlockwise", p3) == zeta_power(3, 1)
    assert _loop(2, "anticlockwise", p3) == zeta_power(3, -2)
    for r in range(1, 6):
        params = CategoryParams(r)
        for u in range(r):
            x = simple_object(r, u)
            assert _loop(u, "clockwise", params) == dimension(x, "right", params)
            assert _loop(u, "anticlockwise", params) == dimension(x, "left", params)


def test_loop_value_explicit_diagram_route():
    # the same value written out without the helper
    params = CategoryParams(3)
    x = simple_object(3, 2)
    d = SliceDiagram(unit_object(3), [[cup_right(x)], [cap_left(x)]])
    assert evaluate(d, params).matrix[0][0] == zeta_power(3, 1)


def test_single_box_returns_it_exactly():
    params = CategoryParams(5)
    f = GradedMorphism.from_entries(
        unit_object(5),
        GradedObject(5, (0, 2)),
        {(0, 0): params.zeta(3) * Fraction(7, 2)},
    )
    d = SliceDiagram(f.target, [[box(f)]])
    assert evaluate(d, params) == f


@pytest.mark.parametrize("r", range(1, 5))
def test_zigzag_diagram_is_identity(r):
    params = CategoryParams(r)
    for u in range(r):
        x = simple_object(r, u)
        d = SliceDiagram(
            x, [[cup_left(x), identity(x)], [identity(x), cap_left(x)]]
        )
        assert evaluate(d, params) == GradedMorphism.identity(x)


def test_layer_mismatch_names_offending_layer():
    params = CategoryParams(3)
    x = simple_object(3, 1)
    y = simple_object(3, 2)
    d = SliceDiagram(y, [[identity(x)], [identity(y)]])
    with pytest.raises(DiagramTypeError) as exc:
        evaluate(d, params)
    assert exc.value.layer_index == 1
    assert "layer 1" in str(exc.value)


def test_top_boundary_mismatch():
    params = CategoryParams(3)
    x = simple_object(3, 1)
    d = SliceDiagram(simple_object(3, 0), [[identity(x)]])
    with pytest.raises(DiagramTypeError, match="top boundary"):
        evaluate(d, params)


def test_empty_diagram_is_identity_on_top_boundary():
    params = CategoryParams(4)
    x = GradedObject(4, (1, 3))
    d = SliceDiagram(x, [])
    assert evaluate(d, params) == GradedMorphism.identity(x)


def test_identity_is_one_shared_instance():
    for x in (unit_object(2), GradedObject(4, (1, 3)), GradedObject(3, (0, 2, 2))):
        assert GradedMorphism.identity(x) is identity(x)


@pytest.mark.parametrize("r", range(1, 5))
def test_loop_sum_adds_the_weighted_morphisms(r):
    # a clockwise loop on C_u is its right dimension zeta^u and carries the
    # weight zeta^u / r, so the sum is 1 when r divides 2 and 0 otherwise
    params = CategoryParams(r)

    def loop(u):
        x = simple_object(r, u)
        return SliceDiagram(unit_object(r), [[cup_left(x)], [cap_right(x)]])

    total = loop_sum(loop, "right", params)
    assert isinstance(total, GradedMorphism)
    assert total.source == total.target == unit_object(r)
    assert total.entry(0, 0) == (1 if 2 % r == 0 else 0)
    if r >= 3:
        assert total.columns == ((),)  # the cancelled sum stores no entry


def test_loop_sum_rejects_diagrams_whose_ends_differ():
    params = CategoryParams(3)
    with pytest.raises(ValueError, match="mismatched shapes"):
        loop_sum(lambda u: SliceDiagram(simple_object(3, u), []), "right", params)


def test_mixed_r_rejected():
    x2 = simple_object(2, 1)
    with pytest.raises(ValueError, match="mixes"):
        SliceDiagram(simple_object(3, 0), [[identity(x2)]])


def test_empty_layer_rejected():
    params = CategoryParams(2)
    d = SliceDiagram(unit_object(2), [[]])
    with pytest.raises(ValueError, match="empty layer"):
        evaluate(d, params)


def _small_endo(draw, params, x):
    entries = {}
    for i, gt in enumerate(x.grades):
        for j, gs in enumerate(x.grades):
            if gt == gs and draw(st.booleans()):
                entries[(i, j)] = params.zeta(draw(st.integers(0, params.r - 1))) * (
                    Fraction(draw(st.integers(-2, 2)))
                )
    return GradedMorphism.from_entries(x, x, entries)


def _scalar(x: GradedObject, c: CycNum) -> GradedMorphism:
    """The 1x1 box c on a one-dimensional object x; the zero map when c is 0."""
    return GradedMorphism.from_entries(x, x, {(0, 0): c})


def _line(draw, params: CategoryParams) -> GradedObject:
    """A simple, the unit at grade 0: a one-dimensional object."""
    return simple_object(params.r, draw(st.integers(0, params.r - 1)))


def _interchange_box(draw, params: CategoryParams, g: int) -> GradedMorphism:
    """A random endomorphism, mu, Delta or eps of F, a cap, a cup, or a 1x1
    scalar: zeta^g, zeta^-g, zero or a rational multiple of a root of unity."""
    r = params.r
    kind = draw(st.sampled_from(["endo", "mu", "delta", "eps", "cap", "cup", "scalar"]))
    if kind in ("mu", "delta", "eps"):
        return getattr(frobenius_zr(params), kind)
    if kind == "scalar":
        c = params.zeta(draw(st.integers(0, r - 1))) * Fraction(draw(st.integers(-2, 2)), 2)
        c = draw(st.sampled_from([params.zeta(g), params.zeta(-g), params.zero(), c]))
        return _scalar(_line(draw, params), c)
    x = GradedObject(r, draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3)))
    if kind == "endo":
        return _small_endo(draw, params, x)
    builders = [cap_left, cap_right] if kind == "cap" else [cup_left, cup_right]
    return draw(st.sampled_from(builders))(x)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_resliced_boxes_evaluate_equal(data):
    """Sliding a box past a parallel strand does not change the value (the
    interchange law): B1 (x) B2 in one layer, B1 then B2 and B2 then B1 all
    evaluate to the Kronecker product of the boxes, hash included, whether
    the boxes change their strands' dimension, are scalars whose product is
    one, or are zero."""
    params = CategoryParams(data.draw(st.integers(1, 4)))
    g = data.draw(st.integers(0, params.r - 1))
    if data.draw(st.booleans()):
        b1 = _scalar(_line(data.draw, params), params.zeta(g))
        b2 = _scalar(_line(data.draw, params), params.zeta(-g))
        assert _layer_steps([b1, b2], params.one()) == []
    else:
        b1 = _interchange_box(data.draw, params, g)
        b2 = _interchange_box(data.draw, params, g)
    top = tensor_objects(b1.target, b2.target)
    together = SliceDiagram(top, [[box(b1), box(b2)]])
    b1_first = SliceDiagram(
        top, [[box(b1), identity(b2.source)], [identity(b1.target), box(b2)]]
    )
    b2_first = SliceDiagram(
        top, [[identity(b1.source), box(b2)], [box(b1), identity(b2.target)]]
    )
    want = tensor_morphisms(b1, b2)
    for d in (together, b1_first, b2_first):
        got = evaluate(d, params)
        assert got == want and hash(got) == hash(want)


def _layer_fold(d: SliceDiagram, bottom: GradedObject) -> GradedMorphism:
    """Reference evaluation: Kronecker product of each layer, composed up from `bottom`."""
    acc = GradedMorphism.identity(bottom)
    for layer in d.layers:
        acc = compose(reduce(tensor_morphisms, layer), acc)
    return acc


_MAX_DIM = 16


def _random_diagram(draw, params: CategoryParams) -> SliceDiagram:
    """A random well-typed diagram over simples and the group algebra F.

    The strand word starts non-unit; each layer may cap adjacent dual
    strands, open cups, hold several 1x1 scalars on unit strands (now and
    then zero), and apply random endomorphisms, identities built from dense
    rows (equal to, but not, the shared `identity` strand), or mu, Delta and
    eps of F (Delta has r nonzeros per column).
    """
    r = params.r
    fd = frobenius_zr(params)
    f = fd.object
    strand = st.one_of(st.integers(0, r - 1).map(lambda u: simple_object(r, u)), st.just(f))
    word = draw(st.lists(strand, min_size=1, max_size=2))
    bottom = tensor_objects(*word)
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        dim = tensor_objects(*word).dim
        layer, new_word, i = [], [], 0
        while i <= len(word):
            for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
                q = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), 3, -2, 1, 0]))
                c = params.zeta(draw(st.integers(0, r - 1))) * Fraction(q)
                layer.append(box(_scalar(unit_object(r), c)))
            y = draw(strand)
            if dim * y.dim * y.dim <= _MAX_DIM and draw(st.integers(0, 3)) == 0:
                cup = draw(st.sampled_from([cup_left, cup_right]))
                layer.append(cup(y))
                new_word += [y, dual_object(y)] if cup is cup_left else [dual_object(y), y]
                dim *= y.dim * y.dim
            if i == len(word):
                break
            x, nxt = word[i], word[i + 1] if i + 1 < len(word) else None
            options = ["identity", "endo", "dense_identity"]
            if nxt is not None and dual_object(nxt) == x:
                options.append("cap_left")
            if nxt is not None and dual_object(x) == nxt:
                options.append("cap_right")
            if x == f and nxt == f:
                options.append("mu")
            if x == f:
                options += ["eps"] + (["delta"] if dim * r <= _MAX_DIM else [])
            kind = draw(st.sampled_from(options))
            if kind in ("cap_left", "cap_right", "mu"):
                i += 2
                dim //= x.dim * nxt.dim
                if kind == "mu":
                    layer.append(box(fd.mu))
                    new_word.append(f)
                    dim *= r
                else:
                    layer.append(cap_left(nxt) if kind == "cap_left" else cap_right(x))
                continue
            i += 1
            if kind == "identity":
                layer.append(identity(x))
                new_word.append(x)
            elif kind == "endo":
                layer.append(box(_small_endo(draw, params, x)))
                new_word.append(x)
            elif kind == "dense_identity":
                one, zero = CycNum.one(r), CycNum.zero(r)
                rows = [[one if i == j else zero for j in range(x.dim)] for i in range(x.dim)]
                layer.append(box(GradedMorphism(x, x, rows)))
                new_word.append(x)
            elif kind == "eps":
                layer.append(box(fd.eps))
                dim //= r
            else:
                layer.append(box(fd.delta))
                new_word += [f, f]
                dim *= r
        layers.append(layer)
        word = new_word or [unit_object(r)]
    return SliceDiagram(tensor_objects(*word), layers)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_layer_fold(data):
    """The sparse vector push equals the tensor-and-compose fold of the layers."""
    params = CategoryParams(data.draw(st.integers(1, 4)))
    d = _random_diagram(data.draw, params)
    got = evaluate(d, params)
    assert got.source.dim > 0
    assert got == _layer_fold(d, got.source)


def _assert_canonical(m: GradedMorphism) -> None:
    """m has canonical columns and equals, hash included, what the validating
    constructor builds from its entries."""
    rebuilt = GradedMorphism(m.source, m.target, m._entries())
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.columns) is tuple and len(m.columns) == m.source.dim
    r, sg, tg = m.r, m.source.grades, m.target.grades
    for j, col in enumerate(m.columns):
        assert type(col) is tuple
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < m.target.dim for i in rows)
        for i, a in col:
            assert type(a) is CycNum and a.order == r and a and tg[i] == sg[j]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_library_built_morphisms_are_canonical(data):
    """evaluate, loop_sum, + and scale store their columns unchecked; each
    result must be what the validating constructor makes of its entries."""
    params = CategoryParams(data.draw(st.integers(1, 4)))
    r = params.r
    d = _random_diagram(data.draw, params)
    m = evaluate(d, params)
    zero = GradedMorphism.zero_map(m.source, m.target)
    c = params.zeta(data.draw(st.integers(0, r - 1))) * Fraction(data.draw(st.integers(1, 3)))
    negated = m.scale(-1)
    for built in (m, m + m, m.scale(c), negated, m + m.scale(c)):
        _assert_canonical(built)
    for cancelled in (m + negated, negated + m, m.scale(0), m.scale(params.zero())):
        _assert_canonical(cancelled)
        assert cancelled == zero
    with pytest.raises(TypeError):
        m.scale(0.5)  # a float product would enter the columns unchecked
    # the grade-g rows of sum_u w_u N^u m, with N = zeta^grade, keep
    # (1/r) sum_u zeta^{u(g +- 1)}: the rows of one grade survive, the rest cancel
    side = data.draw(st.sampled_from(["left", "right"]))
    pivot = delta_pivot(d.boundary_top, params)
    summed = loop_sum(
        lambda u: SliceDiagram(d.boundary_top, [*d.layers, *[[box(pivot)]] * u]), side, params
    )
    _assert_canonical(summed)
    keep = (1 if side == "left" else -1) % r
    want = {(i, j): a for (i, j), a in m._entries().items() if m.target.grades[i] == keep}
    assert summed == GradedMorphism.from_entries(m.source, m.target, want)


def test_morphisms_the_routes_build_unchecked_are_canonical(monkeypatch):
    """Every morphism the projector, state-sum and torus routes build from
    canonical columns, the plaquette operator's one loop sum among them."""
    built = []
    init = GradedMorphism.__init__

    def spy(self, source, target, matrix):
        init(self, source, target, matrix)
        if type(matrix) is _Columns:
            built.append(self)

    monkeypatch.setattr(GradedMorphism, "__init__", spy)
    for r, genus in [(1, 1), (2, 0), (2, 1), (3, 1), (2, 2), (4, 1)]:
        tilde_bp_operator(CategoryParams(r), genus)
    for r, genus in [(2, 2), (3, 1)]:
        f_data = frobenius_zr.__wrapped__(CategoryParams(r))  # builds its own handle boxes
        for marking in enumerate_admissible(standard_decomposition(genus), r):
            sigma_F(marking, f_data)
    torus_vectors(CategoryParams(3))
    torus_vectors(CategoryParams(4))
    operators = [m for m in built if m.source.dim > 1 and m.source == m.target]
    assert len(built) > 100 and operators
    for m in built:
        _assert_canonical(m)


def _pushed_layers(d: SliceDiagram, params: CategoryParams) -> list:
    """The vector `evaluate` pushes, split into its columns after each layer."""
    one = params.one()
    n = evaluate(d, params).source.dim
    vec = {c * n + c: one for c in range(n)}
    pushed = []
    for layer in d.layers:
        for step in _layer_steps(layer, one):
            vec = _push(vec, step, one)
        dim = _layer_ends(layer)[1].dim
        columns = [{} for _ in range(n)]
        for key, v in vec.items():
            c, i = divmod(key, dim)
            columns[c][i] = v
        pushed.append(columns)
    return pushed


def _check_push(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """Evaluate d, check it against the layer fold and that no pushed entry is zero."""
    got = evaluate(d, params)
    assert got == _layer_fold(d, got.source)
    for vectors in _pushed_layers(d, params):
        assert all(v for vec in vectors for v in vec.values())
    return got


@pytest.mark.parametrize("r", [2, 3])
def test_push_drops_a_sum_that_cancels(r):
    """Two paths into one index cancel to exactly zero; the other index keeps 2."""
    params = CategoryParams(r)
    x, z = simple_object(r, 0), simple_object(r, 1)
    xx = GradedObject(r, (0, 0))
    one = params.one()
    split = GradedMorphism.from_entries(x, xx, {(0, 0): one, (1, 0): one})
    merge = GradedMorphism.from_entries(
        xx, xx, {(0, 0): one, (0, 1): one * -1, (1, 0): one, (1, 1): one}
    )
    d = SliceDiagram(
        tensor_objects(xx, z), [[box(split), identity(z)], [box(merge), identity(z)]]
    )
    got = _check_push(d, params)
    assert got.columns == (((1, one + one),),)
    assert _pushed_layers(d, params)[-1] == [{1: one + one}]


@pytest.mark.parametrize("r", [2, 3])
def test_push_reinserts_an_index_after_its_sum_cancels(r):
    """Three paths reach one index with a, -a and b, in that order: the first
    sum cancels and drops the index, and the third path sets it to exactly b."""
    params = CategoryParams(r)
    one = params.one()
    x, xxx = simple_object(r, 0), GradedObject(r, (0, 0, 0))
    a, b = params.zeta(1) * 3, one * 5
    split = GradedMorphism.from_entries(x, xxx, {(0, 0): a, (1, 0): a * -1, (2, 0): b})
    merge = GradedMorphism.from_entries(xxx, x, {(0, 0): one, (0, 1): one, (0, 2): one})
    d = SliceDiagram(x, [[box(split)], [box(merge)]])
    (split_step,), (merge_step,) = (_layer_steps(layer, one) for layer in d.layers)
    assert list(_push({0: one}, split_step, one).values()) == [a, a * -1, b]
    assert _push(_push({0: one}, split_step, one), merge_step, one) == {0: b}
    assert _check_push(d, params).columns == (((0, b),),)


@pytest.mark.parametrize("r", [2, 3])
def test_column_digit_stays_in_its_column(r):
    """Four bottom basis vectors share one pushed vector, each under its column digit.

    H = [[1, 1], [1, -1]] twice is 2: in each column one row sums to 2 and
    the other cancels to zero.  The strand W beside H, then P : W -> W'
    widening it, move the left digit and the dim of the current object
    under the column digit; a digit leaking into a neighbouring column would
    add or cancel entries of another column.
    """
    params = CategoryParams(r)
    one = params.one()
    w, w2 = GradedObject(r, (0, 1)), GradedObject(r, (0, 1, 1))
    x = GradedObject(r, (0, 0))
    h = GradedMorphism.from_entries(
        x, x, {(0, 0): one, (1, 0): one, (0, 1): one, (1, 1): one * -1}
    )
    p = GradedMorphism.from_entries(w, w2, {(0, 0): one, (1, 1): one * 2, (2, 1): one * -1})
    d = SliceDiagram(
        tensor_objects(w2, x), [[identity(w), box(h)], [identity(w), box(h)], [box(p), identity(x)]]
    )
    got = _check_push(d, params)
    two = one + one
    assert got == tensor_morphisms(p, identity(x).scale(2))
    assert [len(col) for col in got.columns] == [1, 1, 2, 2]
    assert _pushed_layers(d, params)[0] == [
        {0: one, 1: one}, {0: one, 1: one * -1}, {2: one, 3: one}, {2: one, 3: one * -1}
    ]
    assert _pushed_layers(d, params)[1] == [{0: two}, {1: two}, {2: two}, {3: two}]


@pytest.mark.parametrize("r", [2, 3])
def test_push_drops_terms_at_empty_columns(r):
    """A zero-morphism box empties every column; a partly zero one drops some terms."""
    params = CategoryParams(r)
    f = frobenius_zr(params).object
    y = simple_object(r, 0)
    zero = GradedMorphism.zero_map(f, f)
    d = SliceDiagram(tensor_objects(y, f), [[identity(y), box(zero)]])
    assert _check_push(d, params) == GradedMorphism.zero_map(tensor_objects(y, f), d.boundary_top)
    assert _pushed_layers(d, params) == [[{}] * r]
    # only the grade-0 summand survives the projection
    proj = GradedMorphism.from_entries(f, f, {(0, 0): params.one()})
    d = SliceDiagram(tensor_objects(f, y), [[box(proj), identity(y)], [box(proj), identity(y)]])
    got = _check_push(d, params)
    assert [len(col) for col in got.columns] == [1] + [0] * (r - 1)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_push_through_delta_then_mu_sums_every_split(r):
    """Delta splits each basis vector r ways and mu sums them back: mu o Delta = id."""
    params = CategoryParams(r)
    fd = frobenius_zr(params)
    f, x = fd.object, simple_object(r, 1)
    d = SliceDiagram(
        tensor_objects(f, x), [[box(fd.delta), identity(x)], [box(fd.mu), identity(x)]]
    )
    assert _check_push(d, params) == GradedMorphism.identity(tensor_objects(f, x))
    after_delta = _pushed_layers(d, params)[0]
    assert [len(vec) for vec in after_delta] == [r] * r


@pytest.mark.parametrize("r", range(1, 5))
def test_dual_basis_insertion_on_composite_strand(r):
    """Inserting a complete dual-basis pair id = sum a-bar o a mid-strand."""
    params = CategoryParams(r)
    f_obj = GradedObject(r, range(r))
    entries = {
        (i, i): params.zeta(i) * Fraction(i + 1, 2) for i in range(r)
    }
    f = GradedMorphism.from_entries(f_obj, f_obj, entries)
    base = evaluate(SliceDiagram(f_obj, [[box(f)]]), params)
    total = GradedMorphism.zero_map(f_obj, f_obj)
    for u in range(r):
        c = Fraction(u + 2, 3)  # arbitrary rescale of the dual pair
        alpha = GradedMorphism.from_entries(
            f_obj, simple_object(r, u), {(0, u): CycNum.from_rational(r, c)}
        )
        abar = GradedMorphism.from_entries(
            simple_object(r, u), f_obj, {(u, 0): CycNum.from_rational(r, 1 / c)}
        )
        d = SliceDiagram(f_obj, [[box(f)], [box(alpha)], [box(abar)]])
        total = total + evaluate(d, params)
    assert total == base


def _a3_total(params: CategoryParams, v: int, w: int, c: Fraction) -> GradedMorphism:
    """Sum over simples of the weighted double-loop configuration."""
    r = params.r
    boundary = tensor_objects(simple_object(r, v), simple_object(r, -w))
    total = GradedMorphism.zero_map(boundary, boundary)
    for u in range(r):
        if (u + w) % r != v % r:
            continue  # no morphisms U (x) W -> V, the basis sum is empty
        uw = tensor_objects(simple_object(r, u), simple_object(r, w))
        alpha = GradedMorphism(uw, simple_object(r, v), [[CycNum.from_rational(r, c)]])
        abar = GradedMorphism(simple_object(r, v), uw, [[CycNum.from_rational(r, 1 / c)]])
        wobj = simple_object(r, w)
        uobj = simple_object(r, u)
        d = SliceDiagram(
            boundary,
            [
                [box(abar), identity(simple_object(r, -w))],
                [identity(uobj), cap_right(wobj)],
                [identity(uobj), cup_left(wobj)],
                [box(alpha), identity(simple_object(r, -w))],
            ],
        )
        weight = params.zeta(u) * params.zeta(-v)  # dim_r U / dim_r V
        total = total + evaluate(d, params).scale(weight)
    return total


@pytest.mark.parametrize("r", range(1, 5))
def test_double_loop_basis_sum_is_identity(r):
    params = CategoryParams(r)
    for v in range(r):
        for w in range(r):
            boundary = tensor_objects(simple_object(r, v), simple_object(r, -w))
            want = GradedMorphism.identity(boundary)
            assert _a3_total(params, v, w, Fraction(1)) == want
            # independent of the dual-basis normalization
            assert _a3_total(params, v, w, Fraction(5, 3)) == want

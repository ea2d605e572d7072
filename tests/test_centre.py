"""Centre simples, half-braidings, torus vectors, hull projectors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stringnet import InvariantError, centre, diagrams
from stringnet.category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    compose,
    simple_object,
    tensor_morphisms,
    tensor_objects,
    unit_object,
)
from stringnet.centre import (
    AhatStructure,
    CentreSimple,
    ahat_structure,
    h_vector,
    half_braiding_box,
    list_centre_simples,
    p_Y_projector,
    torus_vectors,
)
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.linalg import rank_cyc
from stringnet.spaces import tilde_bp_operator


def test_centre_simple_normalization():
    z = CentreSimple(3, 4, -1)
    assert (z.a, z.k) == (1, 2)
    assert z.underlying() == simple_object(3, 1)
    assert z.to_json() == {"a": 1, "k": 2}
    with pytest.raises(ValueError):
        CentreSimple(0, 0, 0)


def test_centre_has_r_squared_simples():
    for r in range(1, 6):
        simples = list_centre_simples(CategoryParams(r))
        assert len(simples) == r * r
        assert len(set((z.a, z.k) for z in simples)) == r * r


def test_half_braiding_diagonal_values():
    params = CategoryParams(4)
    z = CentreSimple(4, 1, 3)
    w = GradedObject(4, (0, 2, 3))
    c = half_braiding_box(z, w, params)
    for j, g in enumerate(w.grades):
        assert c.matrix[j][j] == params.zeta(3 * g)
    assert sum(1 for i in range(3) for j in range(3) if c.matrix[i][j]) == 3


def test_half_braiding_with_unit_is_identity():
    for r in (1, 2, 3):
        params = CategoryParams(r)
        for z in list_centre_simples(params):
            c = half_braiding_box(z, unit_object(r), params)
            assert c == GradedMorphism.identity(simple_object(r, z.a))


def test_half_braiding_hexagon():
    # c_{Z, V(x)W} = (id_V (x) c_{Z,W}) o (c_{Z,V} (x) id_W)
    for r in (2, 3, 4):
        params = CategoryParams(r)
        v = GradedObject(r, (1, r - 1))
        w = GradedObject(r, (0, 1))
        for z in list_centre_simples(params):
            lhs = half_braiding_box(z, tensor_objects(v, w), params)
            step1 = tensor_morphisms(
                half_braiding_box(z, v, params), GradedMorphism.identity(w)
            )
            step2 = tensor_morphisms(
                GradedMorphism.identity(v), half_braiding_box(z, w, params)
            )
            assert compose(step2, step1) == lhs


def test_half_braiding_naturality():
    params = CategoryParams(3)
    z = CentreSimple(3, 2, 1)
    w = GradedObject(3, (1, 1))
    f = GradedMorphism.from_entries(
        w, w, {(0, 1): zeta_power(3, 1), (1, 0): CycNum.one(3)}
    )
    za = GradedMorphism.identity(z.underlying())
    lhs = compose(tensor_morphisms(f, za), half_braiding_box(z, w, params))
    rhs = compose(half_braiding_box(z, w, params), tensor_morphisms(za, f))
    assert lhs == rhs


def test_h_vector_closed_form():
    # coordinate (1/r) zeta^{-a-ku} at hull position (a, u), zero elsewhere
    for r in (2, 3, 4):
        params = CategoryParams(r)
        for z in list_centre_simples(params):
            v = h_vector(z, params)
            assert v.genus == 1
            for i, c in enumerate(v.coords):
                s, u = divmod(i, r)
                if s == z.a:
                    assert c == zeta_power(r, -z.a - z.k * u) * Fraction(1, r)
                else:
                    assert not c


@pytest.mark.parametrize("r", range(1, 8))
def test_torus_vectors_are_the_h_vectors(r):
    params = CategoryParams(r)
    assert torus_vectors(params) == [h_vector(z, params) for z in list_centre_simples(params)]


def test_torus_vectors_evaluate_r_squared_diagrams(monkeypatch):
    calls = []
    real = diagrams.evaluate
    monkeypatch.setattr(diagrams, "evaluate", lambda d, params: calls.append(d) or real(d, params))
    for r in range(1, 6):
        calls.clear()
        torus_vectors(CategoryParams(r))
        assert len(calls) == r * r


def test_h_vectors_linearly_independent():
    for r in (2, 3):
        params = CategoryParams(r)
        cols = [h_vector(z, params).coords for z in list_centre_simples(params)]
        mat = [[cols[j][i] for j in range(r * r)] for i in range(r * r)]
        assert rank_cyc(mat) == r * r


def test_h_vectors_fixed_by_projector():
    for r in (2, 3):
        params = CategoryParams(r)
        rep = tilde_bp_operator(params, 1)
        n = r * r
        for z in list_centre_simples(params):
            v = h_vector(z, params).coords
            image = []
            for i in range(n):
                acc = CycNum.zero(r)
                for j in range(n):
                    e = rep.operator_matrix[i][j]
                    if e and v[j]:
                        acc = acc + e * v[j]
                image.append(acc)
            assert tuple(image) == v


def test_hull_projector_closed_form():
    for r in (2, 3):
        params = CategoryParams(r)
        for z in list_centre_simples(params):
            proj = p_Y_projector(z, params)
            for u in range(r):
                for v in range(r):
                    want = zeta_power(r, z.k * (v - u)) * Fraction(1, r)
                    assert proj.matrix[u][v] == want


def test_hull_projector_rank_one():
    params = CategoryParams(3)
    for z in list_centre_simples(params):
        proj = p_Y_projector(z, params)
        assert compose(proj, proj) == proj
        assert rank_cyc(proj.matrix) == 1
        trace = CycNum.zero(3)
        for i in range(3):
            trace = trace + proj.matrix[i][i]
        assert trace == 1


def test_a_doubled_counit_like_map_fails_the_idempotence_check(monkeypatch):
    counitlike = centre._counitlike_map
    monkeypatch.setattr(
        centre, "_counitlike_map", lambda z, hull, params: counitlike(z, hull, params).scale(2)
    )
    with pytest.raises(InvariantError) as exc:
        p_Y_projector(CentreSimple(2, 0, 0), CategoryParams(2))
    assert exc.value.invariant == "hull projector p_Y is idempotent"


def test_hull_projectors_decompose_identity():
    # the r projectors at fixed a are orthogonal and sum to the identity,
    # exhibiting Ahat(C_a) as the sum of the (a, k) centre simples
    for r in (2, 3):
        params = CategoryParams(r)
        for a in range(r):
            projs = [
                p_Y_projector(CentreSimple(r, a, k), params) for k in range(r)
            ]
            total = projs[0]
            for p in projs[1:]:
                total = total + p
            assert total == GradedMorphism.identity(projs[0].source)
            for k1 in range(r):
                for k2 in range(r):
                    prod = compose(projs[k1], projs[k2])
                    if k1 == k2:
                        assert prod == projs[k1]
                    else:
                        assert all(
                            not e for row in prod.matrix for e in row
                        )


def test_ahat_unit_counit_composite_is_identity():
    for r in (2, 3, 4):
        params = CategoryParams(r)
        for z in list_centre_simples(params):
            st = ahat_structure(z, params)
            comp = compose(st.unitlike, st.counitlike)
            assert comp == GradedMorphism.identity(z.underlying())


def test_ahat_map_values():
    params = CategoryParams(3)
    z = CentreSimple(3, 1, 2)
    st = ahat_structure(z, params)
    for u in range(3):
        assert st.unitlike.matrix[0][st.hull.offsets[u]] == params.zeta(2 * u)
        assert st.counitlike.matrix[st.hull.offsets[u]][0] == params.zeta(
            -2 * u
        ) * Fraction(1, 3)


def test_ahat_braiding_is_coefficient_one_block_shift():
    params = CategoryParams(3)
    w = GradedObject(3, (1, 0))
    dw, r = 2, 3
    for z in list_centre_simples(params):
        st = ahat_structure(z, params)
        c = st.half_braiding(w)
        for i in range(r):
            for p in range(dw):
                j = (i + w.grades[p]) % r
                src = st.hull.offsets[i] * dw + p
                tgt = p * r + st.hull.offsets[j]
                assert c.matrix[tgt][src] == 1
        nonzero = sum(1 for row in c.matrix for e in row if e)
        assert nonzero == r * dw


def test_ahat_braiding_with_unit_is_identity():
    params = CategoryParams(3)
    for z in list_centre_simples(params):
        st = ahat_structure(z, params)
        c = st.half_braiding(unit_object(3))
        assert c == GradedMorphism.identity(st.hull.object)


def test_ahat_braiding_hexagon():
    params = CategoryParams(2)
    st = ahat_structure(CentreSimple(2, 1, 0), params)
    v = GradedObject(2, (1,))
    w = GradedObject(2, (0, 1))
    lhs = st.half_braiding(tensor_objects(v, w))
    step1 = tensor_morphisms(st.half_braiding(v), GradedMorphism.identity(w))
    step2 = tensor_morphisms(GradedMorphism.identity(v), st.half_braiding(w))
    assert compose(step2, step1) == lhs


def test_ahat_maps_are_centre_morphisms():
    # (id_W (x) f) o c_{Ahat(Z),W} = c_{Z,W} o (f (x) id_W) for the
    # unit-like f, and the mirrored statement for the counit-like one
    for r in (2, 3):
        params = CategoryParams(r)
        for z in list_centre_simples(params):
            st = ahat_structure(z, params)
            for wg in range(r):
                w = simple_object(r, wg)
                idw = GradedMorphism.identity(w)
                lhs = compose(
                    tensor_morphisms(idw, st.unitlike), st.half_braiding(w)
                )
                rhs = compose(
                    half_braiding_box(z, w, params),
                    tensor_morphisms(st.unitlike, idw),
                )
                assert lhs == rhs
                lhs2 = compose(
                    tensor_morphisms(idw, st.counitlike),
                    half_braiding_box(z, w, params),
                )
                rhs2 = compose(
                    st.half_braiding(w), tensor_morphisms(st.counitlike, idw)
                )
                assert lhs2 == rhs2


def test_centre_count_matches_torus_dimension():
    from stringnet.spaces import sn_closed_dim

    for r in range(1, 6):
        params = CategoryParams(r)
        assert len(list_centre_simples(params)) == sn_closed_dim(params, 1)

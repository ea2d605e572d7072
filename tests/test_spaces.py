"""Closed-surface dimensions and the plaquette projector."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from stringnet import InvariantError, diagrams, spaces
from stringnet.caps import SizeCapError
from stringnet.category import (
    CategoryParams,
    GradedMorphism,
    compose,
    delta_pivot,
    dual_object,
    simple_object,
    tensor_objects,
)
from stringnet.centre import CentreSimple, p_Y_projector
from stringnet.coends import coend_object
from stringnet.diagrams import SliceDiagram, box, cup_right, evaluate, identity
from stringnet.linalg import rank_cyc
from stringnet.spaces import (
    _bp_column_diagram,
    annulus_hom_dim,
    bp_scalar,
    sn_closed_dim,
    sphere_sn_dim,
    tilde_bp_operator,
)


def test_closed_dim_values():
    assert sn_closed_dim(CategoryParams(2), 3) == 64
    assert sn_closed_dim(CategoryParams(3), 2) == 0
    assert sn_closed_dim(CategoryParams(4), 3) == 4096
    assert sn_closed_dim(CategoryParams(2), 0) == 1
    assert sn_closed_dim(CategoryParams(5), 0) == 0


def test_closed_dim_trivial_grading():
    # r = 1 divides everything: one state regardless of genus
    for g in range(6):
        assert sn_closed_dim(CategoryParams(1), g) == 1


def test_closed_dim_rejects_negative_genus():
    with pytest.raises(ValueError):
        sn_closed_dim(CategoryParams(2), -1)
    with pytest.raises(ValueError):
        bp_scalar(CategoryParams(2), -1)


def test_bp_scalar_is_zero_or_one():
    for r in range(1, 7):
        for g in range(5):
            s = bp_scalar(CategoryParams(r), g)
            if (2 - 2 * g) % r == 0:
                assert s == 1
            else:
                assert not s


def test_sphere_dim_small_r():
    assert sphere_sn_dim(CategoryParams(1)) == 1
    assert sphere_sn_dim(CategoryParams(2)) == 1
    for r in range(3, 9):
        assert sphere_sn_dim(CategoryParams(r)) == 0


def test_sphere_dim_at_large_conductor():
    # Q(zeta_840) has degree 192: every loop-sum product is folded by Phi_840
    params = CategoryParams(840)
    assert sphere_sn_dim(params) == sn_closed_dim(params, 0)


def test_torus_operator_is_identity():
    # 2 - 2g = 0 for the torus, so the scalar is 1 for every r
    for r in (2, 3):
        params = CategoryParams(r)
        rep = tilde_bp_operator(params, 1)
        assert rep.analytic_scalar == 1
        assert rep.image_rank == r * r
        ident = GradedMorphism.identity(coend_object(r))
        assert rep.operator_matrix == tuple(tuple(row) for row in ident.matrix)


def test_genus_two_operator_vanishes_at_r3():
    rep = tilde_bp_operator(CategoryParams(3), 2)
    assert not rep.analytic_scalar
    assert rep.image_rank == 0
    assert all(not e for row in rep.operator_matrix for e in row)


def test_operator_idempotent_by_recomposition():
    rep = tilde_bp_operator(CategoryParams(2), 2)
    top = tensor_objects(coend_object(2), coend_object(2))
    op = GradedMorphism(top, top, [list(row) for row in rep.operator_matrix])
    assert compose(op, op) == op
    assert rep.image_rank == 16


def test_orientation_variants_agree():
    for (r, g) in [(2, 1), (3, 1), (2, 2)]:
        a = tilde_bp_operator(CategoryParams(r), g)
        c = tilde_bp_operator(CategoryParams(r), g, orientation="clockwise")
        assert a.operator_matrix == c.operator_matrix


def test_operator_rejects_bad_orientation():
    with pytest.raises(ValueError):
        tilde_bp_operator(CategoryParams(2), 1, orientation="widdershins")


def test_size_cap_enforced(monkeypatch):
    monkeypatch.setenv("STRINGNET_CAP", "80")
    with pytest.raises(SizeCapError) as exc:
        tilde_bp_operator(CategoryParams(3), 2)
    assert exc.value.size == 81
    assert exc.value.cap == 80


def test_a_doubled_projector_fails_its_idempotence_check(monkeypatch):
    # doubled together, the diagrams and the analytic value still agree, on
    # 2 times the identity at (r, g) = (2, 1), and 2 * 2 != 2
    weight, scalar = diagrams.loop_weight, spaces.bp_scalar
    monkeypatch.setattr(diagrams, "loop_weight", lambda u, side, p: 2 * weight(u, side, p))
    monkeypatch.setattr(spaces, "bp_scalar", lambda p, genus: 2 * scalar(p, genus))
    with pytest.raises(InvariantError) as exc:
        tilde_bp_operator(CategoryParams(2), 1)
    assert exc.value.invariant == "plaquette operator is idempotent"


def test_size_cap_env_var(monkeypatch):
    monkeypatch.setenv("STRINGNET_CAP", "3")
    with pytest.raises(SizeCapError):
        tilde_bp_operator(CategoryParams(2), 1)
    monkeypatch.setenv("STRINGNET_CAP", "4")
    rep = tilde_bp_operator(CategoryParams(2), 1)
    assert rep.image_rank == 4


def _resliced_variant(params, labels, u):
    """Same picture, different slicing: cups one per layer, pivots split
    between an early layer and a late one.  Must evaluate identically."""
    r = params.r
    ref = _bp_column_diagram(params, 1, labels, u, "anticlockwise")
    l1, l2, _legs_layer, _delta_layer, close_layer = ref.layers
    u_obj = simple_object(r, u)
    s, t = labels
    leg_objs = [
        simple_object(r, -s),
        simple_object(r, -t),
        simple_object(r, s),
        simple_object(r, t),
    ]
    delta = delta_pivot(u_obj, params)
    u_dual = dual_object(u_obj)
    # pivot on the outer strand before any cup exists
    early = [box(delta), box(l2[1]), identity(u_dual)]
    word = [u_obj] + leg_objs + [u_dual]
    layers = [list(l1), early]
    # one cup per layer, inserted left to right; each insertion shifts the
    # later gaps by two
    for gap in (2, 5, 8):
        gens = [identity(o) for o in word[:gap]]
        gens.append(cup_right(u_obj))
        gens.extend(identity(o) for o in word[gap:])
        word = word[:gap] + [u_dual, u_obj] + word[gap:]
        layers.append(gens)
    # remaining pivot on slot 3, the first cup's upward output
    late = [identity(o) for o in word]
    late[3] = box(delta)
    layers.append(late)
    layers.append(list(close_layer))
    return SliceDiagram(ref.boundary_top, layers)


def _folded_variant(params, labels, u):
    """Pivot coefficients folded into the basis box instead of drawn."""
    ref = _bp_column_diagram(params, 1, labels, u, "anticlockwise")
    l1, l2, legs_layer, delta_layer, close_layer = ref.layers
    phi = l2[1].scale(params.zeta(2 * u))
    u_obj = simple_object(params.r, u)
    slot_ids = [g if g is identity(g.source) else identity(u_obj) for g in delta_layer]
    layers = [
        list(l1),
        [l2[0], box(phi), l2[2]],
        list(legs_layer),
        slot_ids,
        list(close_layer),
    ]
    return SliceDiagram(ref.boundary_top, layers)


def test_column_diagram_reslicing_invariance():
    # sliding the loop edge and the pivots through the picture leaves the
    # evaluation unchanged; this is the diagram-level well-definedness check
    params = CategoryParams(3)
    for labels in itertools.product(range(3), repeat=2):
        for u in range(3):
            ref = evaluate(
                _bp_column_diagram(params, 1, labels, u, "anticlockwise"),
                params,
            )
            assert evaluate(_resliced_variant(params, labels, u), params) == ref
            assert evaluate(_folded_variant(params, labels, u), params) == ref


@pytest.mark.parametrize("orientation", ["anticlockwise", "clockwise"])
@pytest.mark.parametrize("r, genus", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_column_diagram_opens_one_handle_at_a_time(r, genus, orientation):
    # the widest layer holds one handle's four legs beside g - 1 H strands,
    # r^(2g+2), not all 4g legs at once, r^(4g)
    params = CategoryParams(r)
    for u in range(r):
        d = _bp_column_diagram(params, genus, (), u, orientation)
        widest = max(
            max(math.prod(m.source.dim for m in layer), math.prod(m.target.dim for m in layer))
            for layer in d.layers
        )
        assert widest == r ** (2 * genus + 2), (u, widest)
        assert len(d.layers) == 4 * genus + 1


def test_annulus_dimension_is_r_delta():
    for r in range(1, 6):
        params = CategoryParams(r)
        for a in range(r):
            for b in range(r):
                want = r if a == b else 0
                assert annulus_hom_dim(a, b, params) == want


def test_annulus_matches_centre_multiplicities():
    # dual route: count hull morphisms against shared centre constituents
    for r in (2, 3):
        params = CategoryParams(r)
        mult = {}
        for z_a in range(r):
            for k in range(r):
                z = CentreSimple(r, z_a, k)
                mult[(z_a, k)] = rank_cyc(p_Y_projector(z, params).matrix)
        for a in range(r):
            for b in range(r):
                total = sum(
                    mult[(z_a, k)] * mult[(z_a, k)]
                    for z_a in range(r)
                    for k in range(r)
                    if z_a == a and z_a == b
                )
                assert total == annulus_hom_dim(a, b, params)

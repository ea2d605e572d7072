"""The Drinfeld centre of the graded category: simples, braidings, projectors.

A centre simple is a pair (a, k): the underlying object is the grade-a
simple, and the half-braiding with a grade-b strand is zeta^{kb} times the
swap.  The construction is validated by its testable consequences: there are
r^2 simples, matching the torus string-net dimension, and the torus vectors
h_Z they produce are linearly independent.

`h_vector` is one loop sum of diagrams on the underlying object C_a.
`torus_vectors` runs the character-0 diagrams on L, the sum of all simples,
once per loop label u, and applies each character k as the scalar
zeta^{-ku} its braid box is on the simple strand C_u^dual: r diagrams for
the whole basis of r^2 vectors h_(a,k).

The lifted hull Ahat(Z) of a centre simple Z is r copies of C_a, block u
at position u.  Its half-braiding is assembled from dual-basis pairs in
C(i (x) W, j) by diagram evaluation, one entry per block and position of W,
and the tests check it against the closed form (blocks shift by the grade of
W, coefficient 1).  `ahat_structure` builds the unit-like and counit-like
maps once, r small diagrams apiece; p_Y is the second after the first.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import Record, require
from .category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    dual_object,
    loop_weight,
    simple_object,
    tensor_objects,
)
from .coends import HomSpaceVector, central_hull, coend_object, jmath, simples_object
from .cyclotomic import CycNum
from .diagrams import (
    SliceDiagram,
    box,
    cap_left,
    cup_left,
    cup_right,
    evaluate,
    identity,
    loop_sum,
)


class CentreSimple(Record):
    """Underlying grade a with half-braiding character k."""

    __slots__ = _fields = ("r", "a", "k")

    def __init__(self, r: int, a: int, k: int) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        super().__init__(r, a % r, k % r)

    def underlying(self) -> GradedObject:
        return simple_object(self.r, self.a)


def list_centre_simples(params: CategoryParams) -> list[CentreSimple]:
    r = params.r
    return [CentreSimple(r, a, k) for a in range(r) for k in range(r)]


def half_braiding_box(
    z: CentreSimple, w: GradedObject, params: CategoryParams
) -> GradedMorphism:
    """c_{Z,W}: C_a (x) W -> W (x) C_a, zeta^{k b} on the grade-b part of W."""
    if z.r != params.r or w.r != params.r:
        raise ValueError("mismatched r")
    return _braiding(z.underlying(), z.k, w, params)


def _braiding(x: GradedObject, k: int, w: GradedObject, params: CategoryParams) -> GradedMorphism:
    """X (x) W -> W (x) X with character k: zeta^{k b} on the grade-b part of W."""
    dx, dw = x.dim, w.dim
    entries = {
        (j * dx + i, i * dw + j): params.zeta(k * g)
        for i in range(dx)
        for j, g in enumerate(w.grades)
    }
    return GradedMorphism.from_entries(tensor_objects(x, w), tensor_objects(w, x), entries)


def _h_summand_diagram(x: GradedObject, k: int, u: int, params: CategoryParams) -> SliceDiagram:
    """One term of the torus vector on X with character k.

    Bottom to top: the X strand turns around (its two ends feed the box's
    X-dual and X slots), the U strand is created to the right and its dual
    half crosses the X strand through the braiding before everything
    enters the coend box for the pair (X, U).
    """
    r = params.r
    u_obj = simple_object(r, u)
    braid = _braiding(x, k, dual_object(u_obj), params)
    layers = [
        [cup_right(x)],
        [identity(dual_object(x)), identity(x), cup_right(u_obj)],
        [identity(dual_object(x)), box(braid), identity(u_obj)],
        [box(jmath(x, u_obj))],
    ]
    return SliceDiagram(coend_object(r), layers)


def h_vector(z: CentreSimple, params: CategoryParams) -> HomSpaceVector:
    """The genus-1 vector of a centre simple: the `loop_sum` of its summands."""
    x = z.underlying()
    total = loop_sum(lambda u: _h_summand_diagram(x, z.k, u, params), "right", params)
    return HomSpaceVector(params.r, 1, total.columns[0])


def torus_vectors(params: CategoryParams) -> list[HomSpaceVector]:
    """h_Z for every centre simple, in `list_centre_simples` order.

    One diagram per loop label u, over X = L the sum of all simples, with
    character 0.  On the strand C_u^dual, of grade g = -u, the braid box of
    character k is zeta^{kg} times that of character 0, so the u-th term of
    h_(a,k) is zeta^{kg} times the weighted entry the u-th diagram puts at
    a*r+u.  jmath(C_a, U) lands only there, one term per a (a named check),
    so no position receives two terms: r diagrams for the whole basis.
    """
    r = params.r
    x = simples_object(r)
    terms = []  # terms[u][a]: the weighted u-th loop term, at a*r+u
    for u in range(r):
        column = evaluate(_h_summand_diagram(x, 0, u, params), params).columns[0]
        landed = [p for p, _ in column] == list(range(u, r * r, r))
        require(landed, "torus loop term lands at a*r+u")
        weight = loop_weight(u, "right", params)
        terms.append([c * weight for _, c in column])
    return [
        HomSpaceVector(r, 1, [(a * r + u, params.zeta(-k * u) * t[a]) for u, t in enumerate(terms)])
        for a in range(r)
        for k in range(r)
    ]


def p_Y_projector(y: CentreSimple, params: CategoryParams) -> GradedMorphism:
    """The idempotent on A(C_a) with one-dimensional image labelled by Y: the
    counit-like map after the unit-like one, both from `ahat_structure`."""
    st = ahat_structure(y, params)
    layers = [[box(st.unitlike)], [box(st.counitlike)]]
    proj = evaluate(SliceDiagram(st.hull, layers), params)
    square = evaluate(SliceDiagram(st.hull, [[box(proj)], [box(proj)]]), params)
    require(square == proj, "hull projector p_Y is idempotent")
    return proj


class AhatStructure(NamedTuple):
    hull: GradedObject
    half_braiding: Callable[[GradedObject], GradedMorphism]
    unitlike: GradedMorphism
    counitlike: GradedMorphism


def _ahat_braiding_block(
    m: GradedObject, i: int, p: int, w: GradedObject, params: CategoryParams
) -> GradedMorphism:
    """A.1 wiring for hull block i and the grade position p of W.

    alpha : C_i (x) W -> C_j picks position p (so j = i + w_p); its dual
    abar comes back through a cup on C_j and a cap against the incoming
    C_i-dual strand.
    """
    r = params.r
    w_p = w.grades[p]
    i_obj = simple_object(r, i)
    j_obj = simple_object(r, i + w_p)
    alpha = GradedMorphism.from_entries(
        tensor_objects(i_obj, w), j_obj, {(0, p): CycNum.one(r)}
    )
    abar = GradedMorphism.from_entries(
        j_obj, tensor_objects(i_obj, w), {(p, 0): CycNum.one(r)}
    )
    i_dual = identity(dual_object(i_obj))
    j_dual = identity(dual_object(j_obj))
    m_j = [identity(m), identity(j_obj)]
    layers = [
        [i_dual, identity(m), box(alpha)],
        [i_dual, cup_left(j_obj), *m_j],
        [i_dual, box(abar), j_dual, *m_j],
        [cap_left(i_obj), identity(w), j_dual, *m_j],
    ]
    top = tensor_objects(w, dual_object(j_obj), m, j_obj)
    return evaluate(SliceDiagram(top, layers), params)


def ahat_structure(z: CentreSimple, params: CategoryParams) -> AhatStructure:
    """Ahat(Z), r one-dimensional blocks with block u at u, its half-braiding,
    and the unit-like and counit-like maps (the second carrying the
    dim_r(U)/Dim prefactor): the one place the two maps are built."""
    m = z.underlying()
    r = params.r
    hull = central_hull(m)

    def braiding(w: GradedObject) -> GradedMorphism:
        src = tensor_objects(hull, w)
        tgt = tensor_objects(w, hull)
        entries: dict = {}
        dw = w.dim
        for i in range(r):
            for p in range(dw):
                # block source [i-dual] M [i] W, target W [j-dual] M [j], both
                # of dimension dw; alpha pins the W position to p on both sides
                block = _ahat_braiding_block(m, i, p, w, params)
                j = (i + w.grades[p]) % r
                entries[p * r + j, i * dw + p] = block.entry(p, p)
        return GradedMorphism(src, tgt, entries)

    return AhatStructure(
        hull, braiding, _unitlike_map(z, hull, params), _counitlike_map(z, hull, params)
    )


def _unitlike_map(
    z: CentreSimple, hull: GradedObject, params: CategoryParams
) -> GradedMorphism:
    """Ahat(Z) -> Z: per block a braiding with the U strand, then a cap."""
    r = params.r
    a_obj = z.underlying()
    entries = {}
    for u in range(r):
        u_obj = simple_object(r, u)
        layers = [
            [identity(dual_object(u_obj)), box(half_braiding_box(z, u_obj, params))],
            [cap_left(u_obj), identity(a_obj)],
        ]
        val = evaluate(SliceDiagram(a_obj, layers), params)
        entries[(0, u)] = val.entry(0, 0)
    return GradedMorphism(hull, a_obj, entries)


def _counitlike_map(
    z: CentreSimple, hull: GradedObject, params: CategoryParams
) -> GradedMorphism:
    """Z -> Ahat(Z): U-cup then braiding, weighted by dim_r(U)/Dim."""
    r = params.r
    a_obj = z.underlying()
    entries = {}
    for u in range(r):
        u_obj = simple_object(r, u)
        braid = half_braiding_box(z, dual_object(u_obj), params)
        top = tensor_objects(dual_object(u_obj), a_obj, u_obj)
        layers = [
            [identity(a_obj), cup_right(u_obj)],
            [box(braid), identity(u_obj)],
        ]
        val = evaluate(SliceDiagram(top, layers), params)
        entries[(u, 0)] = val.entry(0, 0) * loop_weight(u, "right", params)
    return GradedMorphism(a_obj, hull, entries)

"""String-net space dimensions for closed surfaces, via the plaquette projector.

The space for a closed genus-g surface is the image of an idempotent on
C(1, H^{(x)g}) obtained by summing a loop diagram over the simple objects,
weighted by dim_r(U)/Dim.  For the pointed category the operator is a
scalar times the identity; the scalar is 1 when r divides 2-2g and 0
otherwise, so the dimension is r^{2g} or 0.  The sphere is genus 0: its
dimension is the image rank of the same operator on C(1, 1).

`tilde_bp_operator` builds the operator as one `loop_sum` of genuine slice
diagrams (loop around all 2g handle legs, with pivotal corrections where an
upward strand fills a double-dual slot): every handle is left free, entering
from its own H strand, so the r diagrams of the sum carry all r^{2g} columns
at once.  It proves the operator equal to `bp_scalar`, the analytic value
computed separately, times the identity, and that scalar idempotent.
"""

from __future__ import annotations

from . import Record, require
from .caps import check_cap
from .category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    delta_pivot,
    dual_object,
    simple_object,
    tensor_objects,
    unit_object,
)
from .coends import central_hull, coend_object, coend_split, jmath, simples_object
from .cyclotomic import CycNum, _rational
from .diagrams import (
    SliceDiagram,
    box,
    cap_left,
    cap_right,
    cup_left,
    cup_right,
    identity,
    loop_sum,
)

_ORIENTATIONS = ("anticlockwise", "clockwise")


class ProjectorReport(Record):
    """Outcome of building the plaquette projector on C(1, H^{(x)g})."""

    __slots__ = _fields = ("r", "genus", "analytic_scalar", "operator_matrix", "image_rank")


def sn_closed_dim(params: CategoryParams, genus: int) -> int:
    """Dimension of the closed genus-g string-net space: the r-spin count."""
    from .rspin import count_rspin

    return count_rspin(genus, params.r)


def bp_scalar(params: CategoryParams, genus: int) -> CycNum:
    """Analytic value of the projector: (1/r) sum_u zeta^{(2-2g)u}."""
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    r = params.r
    acc = CycNum.zero(r)
    for u in range(r):
        acc = acc + params.zeta((2 - 2 * genus) * u)
    return acc * _rational(r, 1, r)


def _loop_diagram(u: int, orientation: str, params: CategoryParams) -> SliceDiagram:
    u_obj = simple_object(params.r, u)
    # the anticlockwise surface loop flattens to a clockwise planar circle
    acw = orientation == "anticlockwise"
    cup, cap = (cup_left, cap_right) if acw else (cup_right, cap_left)
    return SliceDiagram(unit_object(params.r), [[cup(u_obj)], [cap(u_obj)]])


def sphere_sn_dim(params: CategoryParams) -> int:
    """Sphere space dimension: the image rank of the genus-0 projector."""
    return tilde_bp_operator(params, 0).image_rank


def _bp_column_diagram(
    params: CategoryParams,
    genus: int,
    labels: tuple[int, ...],
    u: int,
    orientation: str,
) -> SliceDiagram:
    """Slice form of the projector loop applied to a block of basis elements.

    `labels` holds (s, t) for each of the first len(labels)//2 handles.  Each
    other handle is free: its legs are L^dual, L^dual, L, L for L the sum of
    the simples, it enters from its own H strand at the bottom through
    `coend_split` and closes with jmath(L, L), so column c carries the basis
    element whose free handles read c in base r.  With all g labelled the
    bottom is the unit and the diagram carries one basis element.

    Reading bottom to top: the outer cup opens the loop, the basis box
    emits the 2g pairs of handle legs, an inner cup separates consecutive
    legs, pivotal boxes fix the two upward strands per handle that occupy
    double-dual slots, and one coend box per handle closes everything into
    H^{(x)g}.
    """
    r = params.r
    if genus == 0:
        return _loop_diagram(u, orientation, params)
    labelled = len(labels) // 2
    if len(labels) % 2 or labelled > genus:
        raise ValueError(
            f"genus {genus} takes labels in pairs, at most {2 * genus}, got {len(labels)}"
        )
    free = genus - labelled
    u_obj = simple_object(r, u)
    u_dual = dual_object(u_obj)
    acw = orientation == "anticlockwise"

    pairs = [
        (simple_object(r, labels[2 * i]), simple_object(r, labels[2 * i + 1]))
        for i in range(labelled)
    ]
    pairs += [(simples_object(r), simples_object(r))] * free
    legs: list[GradedObject] = []
    for x, y in pairs:
        legs.extend([dual_object(x), dual_object(y), x, y])

    outer = cup_left(u_obj) if acw else cup_right(u_obj)
    inner = cup_right(u_obj) if acw else cup_left(u_obj)
    left_end, right_end = (u_obj, u_dual) if acw else (u_dual, u_obj)

    emit = []
    if labelled:
        phi = GradedMorphism.from_entries(
            unit_object(r), tensor_objects(*legs[: 4 * labelled]), {(0, 0): CycNum.one(r)}
        )
        emit.append(box(phi))
    emit += [box(coend_split(r))] * free
    # H is r^2 copies of the unit, so the cup's U (x) U^dual (x) H^m and the
    # next layer's U (x) H^m (x) U^dual are one graded object, basis order
    # included
    first = [outer] + [identity(coend_object(r))] * free

    layer_legs = [identity(left_end)]
    for idx, leg in enumerate(legs):
        layer_legs.append(identity(leg))
        if idx < len(legs) - 1:
            layer_legs.append(inner)
    layer_legs.append(identity(right_end))

    # slot word after the cups, twelve strands per handle
    if acw:
        handle_pattern = [u_obj, None, u_dual] * 4
        delta_slots = {0, 3}
    else:
        handle_pattern = [u_dual, None, u_obj] * 4
        delta_slots = {2, 5}
    delta = delta_pivot(u_obj, params)
    layer_delta = []
    for i in range(genus):
        for j, slot in enumerate(handle_pattern):
            obj = legs[4 * i + j // 3] if slot is None else slot
            if j in delta_slots:
                layer_delta.append(box(delta))
            else:
                layer_delta.append(identity(obj))

    # the U strands around each leg are one-dimensional and cancel in grade,
    # so a handle's twelve strands are jmath's four legs
    layer_close = [box(jmath(x, y)) for x, y in pairs]

    top = tensor_objects(*([coend_object(r)] * genus))
    layers = [
        first,
        [identity(left_end), *emit, identity(right_end)],
        layer_legs,
        layer_delta,
        layer_close,
    ]
    return SliceDiagram(top, layers)


def tilde_bp_operator(
    params: CategoryParams, genus: int, *, orientation: str = "anticlockwise"
) -> ProjectorReport:
    """Build the projector on C(1, H^{(x)g}) and report its image rank.

    Checks the operator against the analytic scalar times the identity,
    then the scalar against its square; given the first, the second is
    op o op == op (theorems: an InvariantError means the diagram calculus
    is broken).  The image rank is n, or 0 when the scalar is.
    """
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    r = params.r
    check_cap("string-net basis", r, 2 * genus)
    side = "right" if orientation == "anticlockwise" else "left"
    # every handle is free, so one loop sum is the whole operator (the one
    # column of the unit at genus 0)
    op = loop_sum(lambda u: _bp_column_diagram(params, genus, (), u, orientation), side, params)
    scalar = bp_scalar(params, genus)
    require(
        op == GradedMorphism.identity(op.target).scale(scalar),
        "plaquette operator is the analytic scalar times the identity",
    )
    require(scalar * scalar == scalar, "plaquette operator is idempotent")
    return ProjectorReport(r, genus, scalar, op.matrix, op.target.dim if scalar else 0)


def annulus_hom_dim(a: int, b: int, params: CategoryParams) -> int:
    """dim C(C_a, A(C_b)): count hull summands of grade a."""
    r = params.r
    return central_hull(simple_object(r, b)).grades.count(a % r)

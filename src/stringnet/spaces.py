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
at once.  Each diagram opens and closes one handle at a time while the
others ride along as H strands: 4g + 1 layers, the widest r^{2g+2}.  It
proves the operator equal to `bp_scalar`, the analytic value computed
separately, times the identity, and that scalar idempotent.
"""

from __future__ import annotations

from . import Record, require
from .caps import check_cap
from .category import (
    CategoryParams,
    GradedMorphism,
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

    Reading bottom to top: the outer cup opens the loop, and its two strands
    start the first handle and end the last.  Then one handle at a time
    takes four layers while the others ride along as H strands: its basis
    box emits its four legs, cups separate consecutive legs, pivotal boxes
    fix the two upward strands that occupy double-dual slots, and jmath
    closes the handle into H.  The cup after a handle's last leg straddles
    it and the next handle.  So the diagram has 4g + 1 layers, and the
    widest, one handle's legs beside g - 1 H strands, is r^(2g+2).
    """
    r = params.r
    if genus == 0:
        return _loop_diagram(u, orientation, params)
    labelled = len(labels) // 2
    if len(labels) % 2 or labelled > genus:
        raise ValueError(
            f"genus {genus} takes labels in pairs, at most {2 * genus}, got {len(labels)}"
        )
    u_obj = simple_object(r, u)
    acw = orientation == "anticlockwise"
    # the outer cup emits the loop's left end then its right end, an inner
    # cup a right end then a left end
    if acw:
        outer, inner, ends = cup_left(u_obj), cup_right(u_obj), (u_obj, dual_object(u_obj))
    else:
        outer, inner, ends = cup_right(u_obj), cup_left(u_obj), (dual_object(u_obj), u_obj)
    left_end, right_end = map(identity, ends)
    # the U strands beside the first two legs fill double-dual slots
    delta = delta_pivot(u_obj, params)
    pivoted = (delta, right_end) if acw else (left_end, delta)
    sides = [pivoted, pivoted, (left_end, right_end), (left_end, right_end)]
    h = identity(coend_object(r))

    # H is r^2 copies of the unit and the loop's ends cancel in grade, so
    # wherever the ends ride among the H strands the layer ends are one
    # graded object, basis order included
    layers = [[outer] + [h] * (genus - labelled)]
    for i in range(genus):
        if i < labelled:
            x, y = simple_object(r, labels[2 * i]), simple_object(r, labels[2 * i + 1])
            legs_obj = tensor_objects(dual_object(x), dual_object(y), x, y)
            opener = GradedMorphism.from_entries(unit_object(r), legs_obj, {(0, 0): CycNum.one(r)})
        else:
            x = y = simples_object(r)
            opener = coend_split(r)
        legs = [identity(leg) for leg in (dual_object(x), dual_object(y), x, y)]
        # H strands: the closed handles left of this one, and right of it
        # the free handles still to open, then the loop's right end
        done = [h] * i
        waiting = [h] * (genus - max(i + 1, labelled)) + [right_end]
        last = i == genus - 1
        # a cup follows every leg; after the fourth it straddles this handle
        # and the next, and the last handle ends on the outer cup's strand
        spaced = [cell for leg in legs for cell in (leg, inner)][: 7 if last else 8]
        after = [] if last else [left_end, *waiting]
        twelve = [cell for leg, (lo, hi) in zip(legs, sides) for cell in (lo, leg, hi)]
        layers += [
            [*done, left_end, box(opener), *waiting],
            [*done, left_end, *spaced, *waiting],
            [*done, *twelve, *after],
            [*done, box(jmath(x, y)), *after],
        ]
    return SliceDiagram(tensor_objects(*([coend_object(r)] * genus)), layers)


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

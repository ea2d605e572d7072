"""Sliced planar string diagrams and their evaluation to sparse morphisms.

A diagram is a stack of layers, read bottom to top; each layer juxtaposes
generators left to right.  Generators are identity strands, the four duality
caps and cups, and boxes holding arbitrary morphisms.  Evaluation checks
the grade words adjacent layers exchange, then pushes each bottom basis
vector up as a sparse {flat index: coefficient} dict, split mixed-radix over
each layer's generators and read off each generator's stored columns; no
layer's Kronecker product and no dense matrix is ever built.  The pushed
vectors are the columns of the result.
`loop_sum` is the one place the projector's weighted sum over the loop
grade u, with weight dim(C_u)/Dim, is written, and `trace` closes an
endomorphism into the left or right pivotal trace with one cup and one cap.

Diagrams arrive pre-sliced; there is no planar-graph compiler here.  Every
construction downstream is drawn in sliceable normal form already, and an
isotopy engine would be out of proportion to the verification goal.
"""

from __future__ import annotations

from .category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    dual_object,
    duality_map,
    loop_weight,
    tensor_objects,
    unit_object,
)
from .cyclotomic import CycNum


class DiagramTypeError(ValueError):
    """Adjacent layers disagree on the object they exchange."""

    def __init__(
        self,
        layer_index: int,
        expected: GradedObject,
        found: GradedObject,
        note: str = "",
    ) -> None:
        where = f"layer {layer_index}" + (f" ({note})" if note else "")
        super().__init__(
            f"{where}: expected grades {list(expected.grades)}, "
            f"found {list(found.grades)}"
        )
        self.layer_index = layer_index
        self.expected = expected
        self.found = found


class Generator:
    """One cell of a layer: an identity, a duality cap/cup, or a box."""

    __slots__ = ("kind", "obj", "morphism", "source", "target")

    def __init__(self, kind: str, obj: GradedObject | None, morphism=None) -> None:
        if kind == "box":
            source, target = morphism.source, morphism.target
        elif kind == "identity":
            source = target = obj
        else:
            unit = unit_object(obj.r)
            if kind in ("cap_right", "cup_left"):
                pair = tensor_objects(obj, dual_object(obj))
            else:
                pair = tensor_objects(dual_object(obj), obj)
            source, target = (pair, unit) if kind.startswith("cap") else (unit, pair)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def matrix(self, params: CategoryParams) -> GradedMorphism:
        if self.kind == "box":
            return self.morphism
        if self.kind == "identity":
            return GradedMorphism.identity(self.obj)
        return duality_map(self.obj, self.kind, params)

    def __repr__(self):
        if self.kind == "box":
            return f"box({self.morphism!r})"
        return f"{self.kind}({list(self.obj.grades)})"


def identity(x: GradedObject) -> Generator:
    return Generator("identity", x)


def cap_left(x: GradedObject) -> Generator:
    """Evaluation consuming X^dual (x) X."""
    return Generator("cap_left", x)


def cap_right(x: GradedObject) -> Generator:
    """Evaluation consuming X (x) X^dual; carries the pivotal weight."""
    return Generator("cap_right", x)


def cup_left(x: GradedObject) -> Generator:
    """Coevaluation producing X (x) X^dual."""
    return Generator("cup_left", x)


def cup_right(x: GradedObject) -> Generator:
    """Coevaluation producing X^dual (x) X; carries the pivotal weight."""
    return Generator("cup_right", x)


def box(f: GradedMorphism) -> Generator:
    return Generator("box", None, f)


def _layer_ends(layer) -> tuple[GradedObject, GradedObject]:
    if not layer:
        raise ValueError("empty layer; use an identity generator instead")
    src = tensor_objects(*[g.source for g in layer])
    tgt = tensor_objects(*[g.target for g in layer])
    return src, tgt


class SliceDiagram:
    """Layers bottom to top with a declared top boundary."""

    __slots__ = ("boundary_top", "layers")

    def __init__(self, boundary_top: GradedObject, layers) -> None:
        layers = tuple(tuple(layer) for layer in layers)
        r = boundary_top.r
        for i, layer in enumerate(layers):
            for g in layer:
                if g.source.r != r:
                    raise ValueError(f"layer {i} mixes r={g.source.r} into an r={r} diagram")
        object.__setattr__(self, "boundary_top", boundary_top)
        object.__setattr__(self, "layers", layers)

    def __setattr__(self, name, value):
        raise AttributeError("SliceDiagram is immutable")

    @property
    def r(self) -> int:
        return self.boundary_top.r

    @property
    def boundary_bottom(self) -> GradedObject:
        if not self.layers:
            return self.boundary_top
        return _layer_ends(self.layers[0])[0]

    def __repr__(self):
        return f"SliceDiagram({len(self.layers)} layers, r={self.r})"


def _layer_action(layer, params: CategoryParams):
    """(source dim, target dim, columns) per generator, right to left, for `_push`.

    columns are the generator's `GradedMorphism.columns`; a run of identity
    strands gets columns None.
    """
    action = []
    for g in layer:
        if g.kind == "identity":  # merged into the run before it; a 1-dim run is a no-op
            dim = g.obj.dim * (action.pop()[0] if action and action[-1][2] is None else 1)
            if dim != 1:
                action.append((dim, dim, None))
            continue
        m = g.matrix(params)
        action.append((m.source.dim, m.target.dim, m.columns))
    action.reverse()
    return action


def _push(vec: dict, action, one) -> dict:
    """Apply one layer to a sparse vector {flat index: CycNum}.

    An entry that is the shared `one` leaves its coefficient as it is.
    """
    out: dict = {}
    for idx, val in vec.items():
        terms, place = [(0, val)], 1  # target digits fill in from the right
        for src_dim, tgt_dim, columns in action:
            idx, j = divmod(idx, src_dim)
            if columns is None:
                terms = [(t + j * place, v) for t, v in terms]
            else:
                col = columns[j]
                terms = [
                    (t + i * place, v if c is one else v * c) for t, v in terms for i, c in col
                ]
            place *= tgt_dim
        for t, v in terms:
            out[t] = out[t] + v if t in out else v
    return {t: v for t, v in out.items() if v}


def evaluate(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """The morphism a diagram denotes, from its bottom to its top boundary."""
    if params.r != d.r:
        raise ValueError(f"params r={params.r} but diagram r={d.r}")
    bottom = current = d.boundary_bottom
    for i, layer in enumerate(d.layers):
        src, tgt = _layer_ends(layer)
        if src != current:
            raise DiagramTypeError(i, expected=current, found=src)
        current = tgt
    if current != d.boundary_top:
        raise DiagramTypeError(len(d.layers) - 1, d.boundary_top, current, "top boundary")
    one = params.one()
    vectors = [{c: one} for c in range(bottom.dim)]
    for layer in d.layers:
        action = _layer_action(layer, params)
        vectors = [_push(vec, action, one) for vec in vectors]
    entries = {(i, c): v for c, vec in enumerate(vectors) for i, v in vec.items()}
    return GradedMorphism(bottom, current, entries)


def trace(f: GradedMorphism, side: str, params: CategoryParams) -> CycNum:
    """Close an endomorphism of X to a scalar with the pivotal duality maps.

    tr_left threads f through cup_right then cap_left; tr_right through
    cup_left then cap_right.  tr(id_X) recovers dimension(X, side).
    """
    if f.source != f.target:
        raise ValueError("trace needs an endomorphism")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x = f.source
    if side == "left":
        layers = [[cup_right(x)], [identity(dual_object(x)), box(f)], [cap_left(x)]]
    else:
        layers = [[cup_left(x)], [box(f), identity(dual_object(x))], [cap_right(x)]]
    return evaluate(SliceDiagram(unit_object(x.r), layers), params).entry(0, 0)


def loop_sum(diagram_of_u, side: str, params: CategoryParams) -> list:
    """The column sum_u loop_weight(u, side) * evaluate(diagram_of_u(u)).

    Each diagram must have the unit object at its bottom.  Only nonzero
    terms are added, so an entry no term touches stays the shared zero.
    """
    diagrams = [diagram_of_u(u) for u in range(params.r)]
    column = [params.zero()] * diagrams[0].boundary_top.dim
    for u, d in enumerate(diagrams):
        weight = loop_weight(u, side, params)
        (col,) = evaluate(d, params).columns
        for i, e in col:
            column[i] = column[i] + e * weight
    return column

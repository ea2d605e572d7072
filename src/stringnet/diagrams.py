"""Sliced planar string diagrams and their evaluation to matrices.

A diagram is a stack of layers, read bottom to top; each layer juxtaposes
generators left to right.  Generators are identity strands, the four duality
caps and cups, and boxes holding arbitrary morphisms.  Evaluation tensors
each layer and composes the stack, checking that adjacent layers agree on
the grade word they exchange.

Diagrams arrive pre-sliced; there is no planar-graph compiler here.  Every
construction downstream is drawn in sliceable normal form already, and an
isotopy engine would be out of proportion to the verification goal.
"""

from __future__ import annotations

from .category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    compose,
    dual_object,
    duality_maps,
    tensor_morphisms,
    tensor_objects,
    unit_object,
)


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

    __slots__ = ("kind", "obj", "morphism")

    def __init__(self, kind: str, obj: GradedObject | None, morphism=None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "morphism", morphism)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    @property
    def r(self) -> int:
        return self.morphism.r if self.kind == "box" else self.obj.r

    @property
    def source(self) -> GradedObject:
        if self.kind == "box":
            return self.morphism.source
        if self.kind == "identity":
            return self.obj
        if self.kind == "cap_left":
            return tensor_objects(dual_object(self.obj), self.obj)
        if self.kind == "cap_right":
            return tensor_objects(self.obj, dual_object(self.obj))
        return unit_object(self.obj.r)

    @property
    def target(self) -> GradedObject:
        if self.kind == "box":
            return self.morphism.target
        if self.kind == "identity":
            return self.obj
        if self.kind == "cup_left":
            return tensor_objects(self.obj, dual_object(self.obj))
        if self.kind == "cup_right":
            return tensor_objects(dual_object(self.obj), self.obj)
        return unit_object(self.obj.r)

    def matrix(self, params: CategoryParams) -> GradedMorphism:
        if self.kind == "box":
            return self.morphism
        if self.kind == "identity":
            return GradedMorphism.identity(self.obj)
        d = duality_maps(self.obj, params)
        return {
            "cap_left": d.ev_left,
            "cap_right": d.ev_right,
            "cup_left": d.coev_left,
            "cup_right": d.coev_right,
        }[self.kind]

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
                if g.r != r:
                    raise ValueError(f"layer {i} mixes r={g.r} into an r={r} diagram")
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


def evaluate(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """Tensor each layer, compose the stack, return the total morphism."""
    if params.r != d.r:
        raise ValueError(f"params r={params.r} but diagram r={d.r}")
    current = d.boundary_bottom
    acc = GradedMorphism.identity(current)
    for i, layer in enumerate(d.layers):
        src, tgt = _layer_ends(layer)
        if src != current:
            raise DiagramTypeError(i, expected=current, found=src)
        mats = [g.matrix(params) for g in layer]
        m = mats[0]
        for extra in mats[1:]:
            m = tensor_morphisms(m, extra)
        acc = compose(m, acc)
        current = tgt
    if current != d.boundary_top:
        raise DiagramTypeError(
            len(d.layers) - 1, expected=d.boundary_top, found=current,
            note="top boundary",
        )
    return acc

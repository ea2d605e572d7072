"""Sliced planar string diagrams and their evaluation to sparse morphisms.

A diagram is a stack of layers, read bottom to top; each layer is a sequence
of `GradedMorphism`s juxtaposed left to right.  The builders name the cells a
picture is drawn with: `identity` strands (one shared instance per object),
the four duality caps and cups (`category.duality_map`), and `box`es holding
arbitrary morphisms.  Evaluation computes each layer's source and target
objects once, checks the grade words adjacent layers exchange, then pushes
the bottom's basis vectors up as sparse {flat index: coefficient} dicts,
all of them through a layer in one call.  Each term is split mixed-radix
over the layer's morphisms and read off their stored columns: a
single-entry column moves it, a longer one branches it, an empty one drops
it; runs of shared identity strands pass their digits through untouched,
and a product with the shared `one` is never made.  Only an index that
received a sum is tested for zero.  No layer's Kronecker product and no
dense matrix is ever built.  The pushed vectors are the columns of the
result.
`loop_sum` is the one place the projector's weighted sum over the loop
grade u, with weight dim(C_u)/Dim, is written.

Diagrams arrive pre-sliced; there is no planar-graph compiler here.  Every
construction downstream is drawn in sliceable normal form already, and an
isotopy engine would be out of proportion to the verification goal.
"""

from __future__ import annotations

from functools import lru_cache

from .category import (
    MEMO_SIZE,
    CategoryParams,
    GradedMorphism,
    GradedObject,
    duality_map,
    loop_weight,
    tensor_objects,
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


@lru_cache(maxsize=MEMO_SIZE)
def identity(x: GradedObject) -> GradedMorphism:
    """The identity strand on X, one shared instance per object.

    `evaluate` passes a run of these through without reading their columns.
    """
    return GradedMorphism.identity(x)


def cap_left(x: GradedObject) -> GradedMorphism:
    """Evaluation consuming X^dual (x) X."""
    return duality_map(x, "cap_left")


def cap_right(x: GradedObject) -> GradedMorphism:
    """Evaluation consuming X (x) X^dual; carries the pivotal weight."""
    return duality_map(x, "cap_right")


def cup_left(x: GradedObject) -> GradedMorphism:
    """Coevaluation producing X (x) X^dual."""
    return duality_map(x, "cup_left")


def cup_right(x: GradedObject) -> GradedMorphism:
    """Coevaluation producing X^dual (x) X; carries the pivotal weight."""
    return duality_map(x, "cup_right")


def box(f: GradedMorphism) -> GradedMorphism:
    """A cell holding f: a morphism is its own cell."""
    return f


def _layer_ends(layer) -> tuple[GradedObject, GradedObject]:
    if not layer:
        raise ValueError("empty layer; use an identity strand instead")
    src = tensor_objects(*[m.source for m in layer])
    tgt = tensor_objects(*[m.target for m in layer])
    return src, tgt


class SliceDiagram:
    """Layers bottom to top with a declared top boundary."""

    __slots__ = ("boundary_top", "layers")

    def __init__(self, boundary_top: GradedObject, layers) -> None:
        layers = tuple(tuple(layer) for layer in layers)
        r = boundary_top.r
        for i, layer in enumerate(layers):
            for m in layer:
                if m.source.r != r:
                    raise ValueError(f"layer {i} mixes r={m.source.r} into an r={r} diagram")
        object.__setattr__(self, "boundary_top", boundary_top)
        object.__setattr__(self, "layers", layers)

    def __setattr__(self, name, value):
        raise AttributeError("SliceDiagram is immutable")

    @property
    def r(self) -> int:
        return self.boundary_top.r

    def __repr__(self):
        return f"SliceDiagram({len(self.layers)} layers, r={self.r})"


def _layer_action(layer):
    """(source dim, target dim, columns, next step) per morphism, right to left.

    A run of shared identity strands gets columns None; any other morphism,
    an identity built elsewhere included, is pushed through its columns.
    `next step` is the position after the entry, where `_push` resumes a
    term that split there.
    """
    action = []
    for m in layer:
        x = m.source
        if x is m.target and m is identity(x):  # merged into the run before it
            dim = x.dim * (action.pop()[0] if action and action[-1][2] is None else 1)
            if dim != 1:  # a 1-dim run is a no-op
                action.append((dim, dim, None))
            continue
        action.append((x.dim, m.target.dim, m.columns))
    action.reverse()
    return [(*step, k) for k, step in enumerate(action, 1)]


def _push(vectors: list, action, one) -> list:
    """Apply one layer to every sparse vector {flat index: CycNum} of `vectors`.

    Each term walks the layer right to left, its source digits split off
    mixed-radix and its target digits filled in from the right.  A
    single-entry column moves the term's flat index and multiplies into its
    coefficient; a column with more entries splits the term into one branch
    per entry, each resumed from the next step; an empty column drops it.
    Stored entries and pushed values are nonzero and Q(zeta_r) is a field,
    so only an index that received a sum can end at zero.  A factor that is
    the shared `one` leaves the other as it is.
    """
    pushed, branches = [], []
    for vec in vectors:
        out: dict = {}
        summed = set()
        for idx, v in vec.items():
            steps, t, place = action, 0, 1
            while True:
                for src_dim, tgt_dim, columns, resume in steps:
                    idx, j = divmod(idx, src_dim)
                    if columns is None:
                        t += j * place
                    else:
                        col = columns[j]
                        if len(col) != 1:
                            if not col:
                                break  # the term drops
                            for i, c in col[1:]:
                                w = v if c is one else c if v is one else v * c
                                branches.append((resume, idx, t + i * place, w, place * tgt_dim))
                        i, c = col[0]
                        t += i * place
                        if c is not one:
                            v = c if v is one else v * c
                    place *= tgt_dim
                else:
                    if t in out:
                        out[t] = out[t] + v
                        summed.add(t)
                    else:
                        out[t] = v
                if not branches:
                    break
                resume, idx, t, v, place = branches.pop()
                steps = action[resume:]
        for t in summed:
            if not out[t]:
                del out[t]
        pushed.append(out)
    return pushed


def evaluate(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """The morphism a diagram denotes, from its bottom to its top boundary."""
    if params.r != d.r:
        raise ValueError(f"params r={params.r} but diagram r={d.r}")
    ends = [_layer_ends(layer) for layer in d.layers]
    bottom = current = ends[0][0] if ends else d.boundary_top
    for i, (src, tgt) in enumerate(ends):
        if src is not current and src != current:
            raise DiagramTypeError(i, expected=current, found=src)
        current = tgt
    top = d.boundary_top
    if current is not top and current != top:
        raise DiagramTypeError(len(d.layers) - 1, top, current, "top boundary")
    one = params.one()
    vectors = [{c: one} for c in range(bottom.dim)]
    for layer in d.layers:
        vectors = _push(vectors, _layer_action(layer), one)
    entries = {(i, c): v for c, vec in enumerate(vectors) for i, v in vec.items()}
    return GradedMorphism(bottom, current, entries)


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

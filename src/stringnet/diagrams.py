"""Sliced planar string diagrams and their evaluation to sparse morphisms.

A diagram is a stack of layers, read bottom to top; each layer is a sequence
of `GradedMorphism`s juxtaposed left to right.  The builders name the cells a
picture is drawn with: `identity` strands (`category.identity`, the one
shared instance per object that `GradedMorphism.identity` also returns), the
four memoised duality caps and cups, whose one helper fixes the mirrored
positions and the zeta^{+-g} weights of the right-hand pair, and `box`es
holding arbitrary morphisms.  Evaluation computes each layer's source and
target objects once, checks the grade words adjacent layers exchange, then
pushes one sparse {flat index: coefficient} dict up: it holds every bottom
basis vector, column c's terms at c * dim + index, so the column is the
most significant digit of each index.  By the interchange law a layer is its
boxes applied one at a time, rightmost first, so the push takes one step per
box: a term's index splits into the digits left of the box, under it and
right of it, and each entry of the box's stored column for the middle digit
sends it on; an empty column drops it.  The left digits carry the column
digit through every step unchanged.  Shared identity strands take no step,
the 1x1 boxes of a layer fold into one scalar step, and a product with the
shared `one` is never made.  Only an index that received a sum is tested
for zero, after each step.  No layer's Kronecker product and no dense matrix
is ever built.  The pushed items, sorted once and split by their column
digit, are the columns of the result: they hold `GradedMorphism`'s
invariants by construction (nonzero entries of conductor r, on matching
grades, since every cell of a layer does), so they are passed as
`category._Columns` and stored unchecked; the constructor's checks are for
outside input.  `evaluate_lazily` type-checks a diagram the same way but
pushes column j, basis vector j alone, only when something first reads it;
a later diagram boxing that morphism reads its columns from the same store.
`loop_sum` is the one place the projector's weighted sum over the loop
grade u, with weight dim(C_u)/Dim, is written; it returns the summed
morphism, so a diagram whose bottom is wider than the unit carries a whole
block of basis vectors through one evaluation.

Diagrams arrive pre-sliced; there is no planar-graph compiler here.  Every
construction downstream is drawn in sliceable normal form already, and an
isotopy engine would be out of proportion to the verification goal.
"""

from __future__ import annotations

from functools import lru_cache

from . import Record
from .category import (
    MEMO_SIZE,
    CategoryParams,
    GradedMorphism,
    GradedObject,
    _Columns,
    dual_object,
    identity,
    loop_weight,
    tensor_objects,
    unit_object,
)
from .cyclotomic import CycNum, zeta_power


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


def _duality_cell(x: GradedObject, cap: bool, right: bool) -> GradedMorphism:
    """The one home of the cup/cap convention; see the four builders below.

    x_i meets its mirror x_{n-1-i}.  The left cap and the right cup read
    X^dual (x) X, the other two X (x) X^dual; a right cell weighs the grade-g
    pair by zeta^g (cap) or zeta^{-g} (cup), a left cell by 1.
    """
    r, n = x.r, x.dim
    dual_first = cap != right
    one = CycNum.one(r)
    entries = {}
    for i, g in enumerate(x.grades):
        flat = (n - 1 - i) * n + i if dual_first else i * n + n - 1 - i
        weight = zeta_power(r, g if cap else -g) if right else one
        entries[(0, flat) if cap else (flat, 0)] = weight
    xd = dual_object(x)
    pair = tensor_objects(xd, x) if dual_first else tensor_objects(x, xd)
    unit = unit_object(r)
    return GradedMorphism(pair, unit, entries) if cap else GradedMorphism(unit, pair, entries)


@lru_cache(maxsize=MEMO_SIZE)
def cap_left(x: GradedObject) -> GradedMorphism:
    """Evaluation consuming X^dual (x) X."""
    return _duality_cell(x, cap=True, right=False)


@lru_cache(maxsize=MEMO_SIZE)
def cap_right(x: GradedObject) -> GradedMorphism:
    """Evaluation consuming X (x) X^dual; carries the pivotal weight."""
    return _duality_cell(x, cap=True, right=True)


@lru_cache(maxsize=MEMO_SIZE)
def cup_left(x: GradedObject) -> GradedMorphism:
    """Coevaluation producing X (x) X^dual."""
    return _duality_cell(x, cap=False, right=False)


@lru_cache(maxsize=MEMO_SIZE)
def cup_right(x: GradedObject) -> GradedMorphism:
    """Coevaluation producing X^dual (x) X; carries the pivotal weight."""
    return _duality_cell(x, cap=False, right=True)


def box(f: GradedMorphism) -> GradedMorphism:
    """A cell holding f: a morphism is its own cell."""
    return f


def _layer_ends(layer) -> tuple[GradedObject, GradedObject]:
    if not layer:
        raise ValueError("empty layer; use an identity strand instead")
    src = tensor_objects(*[m.source for m in layer])
    tgt = tensor_objects(*[m.target for m in layer])
    return src, tgt


class SliceDiagram(Record):
    """Layers bottom to top with a declared top boundary."""

    __slots__ = _fields = ("boundary_top", "layers")

    def __init__(self, boundary_top: GradedObject, layers) -> None:
        layers = tuple(tuple(layer) for layer in layers)
        r = boundary_top.r
        for i, layer in enumerate(layers):
            for m in layer:
                if m.source.r != r:
                    raise ValueError(f"layer {i} mixes r={m.source.r} into an r={r} diagram")
        super().__init__(boundary_top, layers)

    @property
    def r(self) -> int:
        return self.boundary_top.r

    def __repr__(self):
        return f"SliceDiagram({len(self.layers)} layers, r={self.r})"


def _layer_steps(layer, one):
    """(source dim, target dim, columns, right dim) per box of a layer, rightmost first.

    By the interchange law a layer is its boxes applied one at a time, each
    beside identity strands; the right dim is the product of the target dims
    of the cells to the box's right, which have already been applied.  Shared
    identity strands make no step.  The 1x1 boxes fold into one 1x1 step
    holding their product, none if that is one; an empty 1x1 column zeroes
    the whole layer.  A box holding `evaluate_lazily`'s morphism steps
    through its store's `view`, which every column of that morphism shares.
    """
    steps, right, scalar = [], 1, one
    for m in reversed(layer):
        x, dim = m.source, m.target.dim
        if x.dim == dim == 1:
            if not m.columns[0]:
                return [(1, 1, ((),), 1)]
            c = m.columns[0][0][1]
            if c is not one:
                scalar = c if scalar is one else scalar * c
        elif not (x is m.target and m is identity(x)):
            columns = m.columns
            if columns and type(columns[0]) is _PushedColumn:
                columns = columns[0].built.view
            steps.append((x.dim, dim, columns, right))
        right *= dim
    if scalar != one:
        steps.append((1, 1, (((0, scalar),),), 1))
    return steps


def _push(vec: dict, step, one) -> dict:
    """Apply one box to a sparse vector {flat index: CycNum}.

    Each term's index splits as (x, j, y) over (left, box source, right);
    an entry (i, c) of column j sends it to (x * target dim + i) * right + y
    with its coefficient times c, and an empty column drops it.  The left
    digit x carries the column digit of `evaluate`'s seed along unchanged.
    Stored entries and pushed values are nonzero and Q(zeta_r) is a field,
    so only an index that received a sum can end at zero.  A factor that is
    the shared `one` leaves the other as it is.
    """
    src_dim, tgt_dim, columns, right = step
    out: dict = {}
    summed = set()
    for idx, v in vec.items():
        x, y = divmod(idx, right)
        x, j = divmod(x, src_dim)
        x *= tgt_dim
        for i, c in columns[j]:
            t = (x + i) * right + y
            w = v if c is one else c if v is one else v * c
            if t in out:
                out[t] = out[t] + w
                summed.add(t)
            else:
                out[t] = w
    for t in summed:
        if not out[t]:
            del out[t]
    return out


def _checked_steps(d: SliceDiagram, params: CategoryParams):
    """(bottom, top, steps) of a diagram whose adjacent layers agree.

    Each layer's source and target are computed once and checked against
    the object below it; DiagramTypeError names the first layer that
    disagrees.  The steps are every layer's `_layer_steps`, bottom to top.
    """
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
    return bottom, current, [step for layer in d.layers for step in _layer_steps(layer, one)]


def evaluate(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """The morphism a diagram denotes, from its bottom to its top boundary.

    One vector carries every bottom basis vector: column c's terms sit at
    c * dim + index, so the column is the most significant digit, which
    every step carries through unchanged.  The items, sorted once, split
    into the columns by that digit.
    """
    bottom, top, steps = _checked_steps(d, params)
    one = params.one()
    n = bottom.dim
    vec = {c * n + c: one for c in range(n)}
    for step in steps:
        vec = _push(vec, step, one)
    items = sorted(vec.items())
    if n == 1:
        return GradedMorphism(bottom, top, _Columns((tuple(items),)))
    columns = [[] for _ in range(n)]
    m = top.dim
    for key, v in items:
        c, i = divmod(key, m)
        columns[c].append((i, v))
    return GradedMorphism(bottom, top, _Columns(map(tuple, columns)))


class _ColumnsOnRead:
    """The columns of `evaluate_lazily`'s morphism, each pushed on first read.

    `view[j]` is column j's `_PushedColumn` until something reads it, then
    basis vector j pushed through the diagram's steps, as its sorted tuple.
    A step boxing that morphism pushes through `view`, a plain list, so
    `_push` reads a built column by one list index, and a column not yet
    built builds itself when `_push` iterates it.
    """

    __slots__ = ("steps", "one", "view")

    def __init__(self, steps: list, one: CycNum, dim: int) -> None:
        self.steps, self.one = steps, one
        self.view = [_PushedColumn(self, j) for j in range(dim)]

    def column(self, j: int) -> tuple:
        col = self.view[j]
        if type(col) is _PushedColumn:
            one = self.one
            vec = {j: one}
            for step in self.steps:
                vec = _push(vec, step, one)
            col = self.view[j] = tuple(sorted(vec.items()))
        return col


class _PushedColumn(Record):
    """One column of `evaluate_lazily`'s morphism: it reads, equals and
    hashes as the tuple its `_ColumnsOnRead` builds on first read."""

    __slots__ = _fields = ("built", "j")

    def __iter__(self):
        return iter(self.built.column(self.j))

    def __len__(self) -> int:
        return len(self.built.column(self.j))

    def __getitem__(self, k):
        return self.built.column(self.j)[k]

    def __eq__(self, other):
        return self.built.column(self.j) == other

    def __hash__(self):
        return hash(self.built.column(self.j))


def evaluate_lazily(d: SliceDiagram, params: CategoryParams) -> GradedMorphism:
    """`evaluate(d, params)`, with each column pushed only when first read.

    The layers are type-checked now; a reader that takes one column of the
    result pays for that column alone, while equality, hashing and
    `matrix` build every column.
    """
    bottom, top, steps = _checked_steps(d, params)
    built = _ColumnsOnRead(steps, params.one(), bottom.dim)
    return GradedMorphism(bottom, top, _Columns(built.view))


def loop_sum(diagram_of_u, side: str, params: CategoryParams) -> GradedMorphism:
    """sum_u loop_weight(u, side) * evaluate(diagram_of_u(u)), as one morphism.

    The weighted entries are added into one {row: value} dict per column and
    the morphism is built once, from those columns.  Every weight is nonzero,
    so only a cell that received a sum is tested for zero.  The diagrams must
    share their bottom and top objects: ValueError otherwise.
    """
    for u in range(params.r):
        term = evaluate(diagram_of_u(u), params)
        if u == 0:
            source, target = term.source, term.target
            vectors = [{} for _ in term.columns]
            summed = set()
        elif term.source != source or term.target != target:
            raise ValueError("mismatched shapes in morphism sum")
        weight = loop_weight(u, side, params)
        for j, col in enumerate(term.columns):
            vec = vectors[j]
            for i, a in col:
                v = a * weight
                if i in vec:
                    vec[i] = vec[i] + v
                    summed.add((i, j))
                else:
                    vec[i] = v
    for i, j in summed:
        if not vectors[j][i]:
            del vectors[j][i]
    columns = _Columns(tuple(sorted(vec.items())) for vec in vectors)
    return GradedMorphism(source, target, columns)

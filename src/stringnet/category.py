"""The pivotal category of Z_r-graded vector spaces.

Objects are ordered direct sums of the invertible simples C_u, recorded as
grade lists; morphisms are sparse matrices, stored as the nonzero entries of
each column, with support only where the target and source grades agree.
The pivotal data assigns the simple C_u right dimension zeta^u and left
dimension zeta^{-u}, where zeta = zeta_r = exp(2 pi i / r).  For r >= 3 the
left and right pivotal traces differ: that failure of sphericality is the
whole point of the constructions downstream.

`compose` and `tensor_morphisms` are the dense reference products: the
library multiplies morphisms only by evaluating slice diagrams, and these
two stay as the independent route the tests compare that evaluation with.

Objects and identities are immutable values, so the functions that build
them, and the caps and cups of `diagrams`, are memoised (`MEMO_SIZE` entries
each): a diagram asks for the same few objects, strands and caps thousands
of times.

Conventions fixed here and relied on everywhere else:

- tensor product distributes over the sum in row-major order, so the basis
  of X (x) Y at flat index i*dim(Y)+j is (x_i, y_j), and the tensor of
  matrices is the Kronecker product in the same order;
- dual of a grade list reverses it and negates the grades (which keeps the
  duality caps and cups planar: matched pairs sit at mirrored positions);
- with row-major flattening the strict identity is
  dual(x (x) y) = dual(x) (x) dual(y); the reversed-order form
  dual(y) (x) dual(x) agrees only up to the evident permutation of summands,
  which never matters here because tensor words of invertible simples have
  a single summand;
- the unit object is [0]; the empty list is the zero object.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import Record
from .cyclotomic import CycNum, _is_fraction, _rational, zeta_power


class CategoryParams(Record):
    """The grading order r; zeta is zeta_r."""

    __slots__ = _fields = ("r",)

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        super().__init__(r)

    def zeta(self, k: int = 1) -> CycNum:
        """zeta_r^k as an element of Q(zeta_r)."""
        return zeta_power(self.r, k)

    def one(self) -> CycNum:
        return CycNum.one(self.r)

    def zero(self) -> CycNum:
        return CycNum.zero(self.r)


class GradedObject(Record):
    """An ordered direct sum of invertible simples, one grade per summand.

    The hash is computed once, at construction: every memoised builder
    hashes the objects it is called with.
    """

    __slots__ = ("r", "grades", "_hash")
    _fields = ("r", "grades")

    def __init__(self, r: int, grades: Iterable[int]) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        grades = tuple(g % r for g in grades)
        super().__init__(r, grades)
        object.__setattr__(self, "_hash", hash((r, grades)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.grades)


# Bound of each memoised builder.  torus-basis at r=12 fills the largest
# cache, tensor_objects, to 434 entries; a larger run evicts the least
# recently used values, which changes only its speed.
MEMO_SIZE = 1024


@lru_cache(maxsize=MEMO_SIZE)
def unit_object(r: int) -> GradedObject:
    return GradedObject(r, (0,))


@lru_cache(maxsize=MEMO_SIZE)
def simple_object(r: int, u: int) -> GradedObject:
    return GradedObject(r, (u,))


@lru_cache(maxsize=MEMO_SIZE)
def tensor_objects(*objs: GradedObject) -> GradedObject:
    if not objs:
        raise ValueError("need at least one object")
    r = objs[0].r
    grades = [0]
    for x in objs:
        if x.r != r:
            raise ValueError(f"mixed r: {r} vs {x.r}")
        grades = [g + h for g in grades for h in x.grades]
    return GradedObject(r, grades)


@lru_cache(maxsize=MEMO_SIZE)
def dual_object(x: GradedObject) -> GradedObject:
    """Reverse the summand order and negate each grade."""
    return GradedObject(x.r, tuple(-g for g in reversed(x.grades)))


class GradeSupportError(ValueError):
    """A matrix entry sits where target and source grades disagree."""


class _Columns(tuple):
    """Canonical columns a library routine built: `GradedMorphism` stores them as given.

    Column j is a tuple of (row, entry) pairs sorted by row, each entry a
    nonzero CycNum of conductor r in a row whose grade is source grade j.
    `diagrams.evaluate` and `loop_sum`, and `GradedMorphism.__add__` and
    `scale`, hold this by construction; outside input never has this type.
    """

    __slots__ = ()


class GradedMorphism(Record):
    """A sparse matrix of CycNum supported on matching target/source grades.

    `columns[j]` holds the nonzero (row, entry) pairs of source index j, in
    row order, so `Record`'s equality and hashing are structural.  The
    constructor validates outside input, dense rows or a {(row, column):
    entry} mapping: shape, indices, entry type and conductor, grade support,
    and drops zero entries.  Library results that hold those invariants by
    construction pass their columns as `_Columns`, which are stored without a
    check.  `matrix` is the dense view, built on demand.
    """

    __slots__ = _fields = ("source", "target", "columns")

    def __init__(self, source: GradedObject, target: GradedObject, matrix) -> None:
        if type(matrix) is _Columns:
            object.__setattr__(self, "source", source)
            object.__setattr__(self, "target", target)
            object.__setattr__(self, "columns", tuple(matrix))
            return
        if source.r != target.r:
            raise ValueError("source and target have different r")
        r, sg, tg = source.r, source.grades, target.grades
        m, n = len(tg), len(sg)
        if isinstance(matrix, dict):
            items = matrix.items()
        else:
            rows = [tuple(row) for row in matrix]
            if len(rows) != m or any(len(row) != n for row in rows):
                raise ValueError(
                    f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not "
                    f"match {m}x{n}"
                )
            zero = CycNum.zero(r)  # shared, so most zero cells pass by identity
            items = (
                ((i, j), a)
                for i, row in enumerate(rows)
                for j, a in enumerate(row)
                if a is not zero
            )
        columns = [[] for _ in range(n)]
        for (i, j), a in items:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry index ({i},{j}) outside the {m}x{n} shape")
            if not isinstance(a, CycNum) or a.order != r:
                raise ValueError("entries must be CycNum of conductor r")
            if a:
                if tg[i] != sg[j]:
                    raise GradeSupportError(
                        f"entry ({i},{j}) nonzero but grades differ: {tg[i]} vs {sg[j]}"
                    )
                columns[j].append((i, a))
        for col in columns:
            if len(col) > 1:
                col.sort()  # rows are distinct, so entries are never compared
        super().__init__(source, target, tuple(map(tuple, columns)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(
        cls, source: GradedObject, target: GradedObject, entries: dict
    ) -> "GradedMorphism":
        return cls(source, target, entries)

    @classmethod
    def identity(cls, x: GradedObject) -> "GradedMorphism":
        """The shared identity on X; see `identity`."""
        return identity(x)

    @classmethod
    def zero_map(cls, source: GradedObject, target: GradedObject) -> "GradedMorphism":
        return cls(source, target, {})

    # -- structure ---------------------------------------------------------

    @property
    def r(self) -> int:
        return self.source.r

    @property
    def matrix(self) -> tuple[tuple[CycNum, ...], ...]:
        """The dense rows, zeros included."""
        zero = CycNum.zero(self.r)
        rows = [[zero] * self.source.dim for _ in range(self.target.dim)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                rows[i][j] = a
        return tuple(map(tuple, rows))

    def entry(self, i: int, j: int) -> CycNum:
        """The entry in row i, column j."""
        for row, a in self.columns[j]:
            if row == i:
                return a
        return CycNum.zero(self.r)

    def __add__(self, other: "GradedMorphism") -> "GradedMorphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("mismatched shapes in morphism sum")
        return GradedMorphism(
            self.source, self.target, _Columns(map(_add_columns, self.columns, other.columns))
        )

    def scale(self, c) -> "GradedMorphism":
        """c times self, for c a CycNum of conductor r or a rational."""
        if not (isinstance(c, (CycNum, int)) or _is_fraction(c)):
            raise TypeError(f"cannot scale a morphism by {type(c).__name__}")
        # every cell is scaled, so every cell is tested: c may be zero
        columns = _Columns(tuple((i, v) for i, a in col if (v := a * c)) for col in self.columns)
        return GradedMorphism(self.source, self.target, columns)

    def __repr__(self):
        return (
            f"GradedMorphism({list(self.source.grades)} -> "
            f"{list(self.target.grades)}, {self.target.dim}x{self.source.dim})"
        )


def _add_columns(col: tuple, other: tuple) -> tuple:
    """The sum of two canonical columns; only a row both hold is tested for zero."""
    if not other:
        return col
    if not col:
        return other
    out = dict(col)
    for i, b in other:
        if i in out:
            if s := out[i] + b:
                out[i] = s
            else:
                del out[i]
        else:
            out[i] = b
    return tuple(sorted(out.items()))


@lru_cache(maxsize=MEMO_SIZE)
def identity(x: GradedObject) -> GradedMorphism:
    """The identity on X, one shared instance per object, which `evaluate` passes through."""
    one = CycNum.one(x.r)
    return GradedMorphism(x, x, {(i, i): one for i in range(x.dim)})


def compose(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """f after g (dense matrix product f.matrix @ g.matrix); reference only."""
    if g.target != f.source:
        raise ValueError(
            f"cannot compose: inner objects differ "
            f"({list(g.target.grades)} vs {list(f.source.grades)})"
        )
    zero = CycNum.zero(f.r)
    out = [[zero] * g.source.dim for _ in range(f.target.dim)]
    g_rows = g.matrix
    for i, frow in enumerate(f.matrix):
        for j, a in enumerate(frow):
            if a:
                grow = g_rows[j]
                orow = out[i]
                for k, b in enumerate(grow):
                    if b:
                        orow[k] = orow[k] + a * b
    return GradedMorphism(g.source, f.target, out)


def tensor_morphisms(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """Dense Kronecker product, row-major, matching tensor_objects; reference only."""
    src = tensor_objects(f.source, g.source)
    tgt = tensor_objects(f.target, g.target)
    zero = CycNum.zero(f.r)
    gm, gn = g.target.dim, g.source.dim
    out = [[zero] * src.dim for _ in range(tgt.dim)]
    g_rows = g.matrix
    for i1, frow in enumerate(f.matrix):
        for j1, a in enumerate(frow):
            if a:
                for i2, grow in enumerate(g_rows):
                    for j2, b in enumerate(grow):
                        if b:
                            out[i1 * gm + i2][j1 * gn + j2] = a * b
    return GradedMorphism(src, tgt, out)


def delta_pivot(x: GradedObject, params: CategoryParams) -> GradedMorphism:
    """The pivotal automorphism: zeta^g on the grade-g summand."""
    entries = {(i, i): params.zeta(g) for i, g in enumerate(x.grades)}
    return GradedMorphism.from_entries(x, x, entries)


def dimension(x: GradedObject, side: str, params: CategoryParams) -> CycNum:
    """Left or right quantum dimension: the sum of zeta^{-g} (left) or zeta^{g}."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sign = -1 if side == "left" else 1
    total = params.zero()
    for g in x.grades:
        total = total + params.zeta(sign * g)
    return total


@lru_cache(maxsize=MEMO_SIZE)
def loop_weight(u: int, side: str, params: CategoryParams) -> CycNum:
    """dim_side(C_u) / Dim, the weight of the grade-u loop in every projector.

    Dim, the sum over simples of dim_left * dim_right, equals r exactly, so
    the quotient is a rational rescale.  Memoised: every projector column
    weighs the same r loops.
    """
    return dimension(simple_object(params.r, u), side, params) * _rational(params.r, 1, params.r)

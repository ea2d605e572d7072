"""The pivotal category of Z_r-graded vector spaces with a chosen root of unity.

Objects are ordered direct sums of the invertible simples C_u, recorded as
grade lists; morphisms are matrices with support only where the target and
source grades agree.  The pivotal data assigns the simple C_u right dimension
zeta^u and left dimension zeta^{-u}, where zeta is the chosen primitive r-th
root of unity.  For r >= 3 the two traces (`diagrams.trace`) differ: that
failure of sphericality is the whole point of the constructions downstream.

`compose` and `tensor_morphisms` are the dense reference products: the
library multiplies morphisms only by evaluating slice diagrams, and these
two stay as the independent route the tests compare that evaluation with.

Conventions fixed here and relied on everywhere else:

- tensor product distributes over the sum in row-major order, so the basis
  of X (x) Y at flat index i*dim(Y)+j is (x_i, y_j), and the tensor of
  matrices is the Kronecker product in the same order;
- dual of a grade list reverses it and negates the grades (which keeps the
  duality caps and cups planar: matched pairs sit at mirrored positions);
- dual of a morphism is the anti-transpose; with row-major flattening the
  strict identities are dual(x (x) y) = dual(x) (x) dual(y) and likewise for
  morphisms -- the reversed-order form dual(y) (x) dual(x) agrees only up to
  the evident permutation of summands, which never matters here because
  tensor words of invertible simples have a single summand;
- the unit object is [0]; the empty list is the zero object.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from . import Record
from .cyclotomic import CycNum, rational_scale, zeta_power


class CategoryParams(Record):
    """r and the exponent selecting zeta = zeta_r^zeta_exponent (primitive)."""

    __slots__ = _fields = ("r", "zeta_exponent")

    def __init__(self, r: int, zeta_exponent: int = 1) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        if gcd(zeta_exponent, r) != 1:
            raise ValueError(f"zeta_exponent {zeta_exponent} must be coprime to r={r}")
        super().__init__(r, zeta_exponent)

    def zeta(self, k: int = 1) -> CycNum:
        """zeta^k as an element of Q(zeta_r)."""
        return zeta_power(self.r, k * self.zeta_exponent)

    def one(self) -> CycNum:
        return CycNum.one(self.r)

    def zero(self) -> CycNum:
        return CycNum.zero(self.r)


class GradedObject(Record):
    """An ordered direct sum of invertible simples, one grade per summand."""

    __slots__ = _fields = ("r", "grades")

    def __init__(self, r: int, grades: Iterable[int]) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "grades", tuple(g % r for g in grades))

    @property
    def dim(self) -> int:
        return len(self.grades)


def unit_object(r: int) -> GradedObject:
    return GradedObject(r, (0,))


def simple_object(r: int, u: int) -> GradedObject:
    return GradedObject(r, (u,))


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


def dual_object(x: GradedObject) -> GradedObject:
    """Reverse the summand order and negate each grade."""
    return GradedObject(x.r, tuple(-g for g in reversed(x.grades)))


class GradeSupportError(ValueError):
    """A matrix entry sits where target and source grades disagree."""


class GradedMorphism:
    """A matrix of CycNum supported on matching target/source grades."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GradedObject, target: GradedObject, matrix) -> None:
        if source.r != target.r:
            raise ValueError("source and target have different r")
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != target.dim or any(len(row) != source.dim for row in rows):
            raise ValueError(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not "
                f"match {target.dim}x{source.dim}"
            )
        zero = CycNum.zero(source.r)  # shared, so most zero cells pass by identity
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                if a is zero:
                    continue
                if not isinstance(a, CycNum) or a.order != source.r:
                    raise ValueError("entries must be CycNum of conductor r")
                if a and target.grades[i] != source.grades[j]:
                    raise GradeSupportError(
                        f"entry ({i},{j}) nonzero but grades differ: "
                        f"{target.grades[i]} vs {source.grades[j]}"
                    )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMorphism is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(
        cls, source: GradedObject, target: GradedObject, entries: dict
    ) -> "GradedMorphism":
        zero = CycNum.zero(source.r)
        rows = [[zero] * source.dim for _ in range(target.dim)]
        for (i, j), a in entries.items():
            rows[i][j] = a
        return cls(source, target, rows)

    @classmethod
    def identity(cls, x: GradedObject) -> "GradedMorphism":
        one = CycNum.one(x.r)
        zero = CycNum.zero(x.r)
        rows = [[one if i == j else zero for j in range(x.dim)] for i in range(x.dim)]
        return cls(x, x, rows)

    @classmethod
    def zero_map(cls, source: GradedObject, target: GradedObject) -> "GradedMorphism":
        zero = CycNum.zero(source.r)
        return cls(source, target, [[zero] * source.dim for _ in range(target.dim)])

    # -- structure ---------------------------------------------------------

    @property
    def r(self) -> int:
        return self.source.r

    def __eq__(self, other):
        if not isinstance(other, GradedMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __add__(self, other: "GradedMorphism") -> "GradedMorphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("mismatched shapes in morphism sum")
        return GradedMorphism(
            self.source,
            self.target,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.matrix, other.matrix)
            ],
        )

    def scale(self, c) -> "GradedMorphism":
        if isinstance(c, (int, Fraction)):
            return GradedMorphism(
                self.source,
                self.target,
                [[rational_scale(a, c) for a in row] for row in self.matrix],
            )
        return GradedMorphism(
            self.source, self.target, [[a * c for a in row] for row in self.matrix]
        )

    def __repr__(self):
        return (
            f"GradedMorphism({list(self.source.grades)} -> "
            f"{list(self.target.grades)}, {self.target.dim}x{self.source.dim})"
        )


def compose(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """f after g (dense matrix product f.matrix @ g.matrix); reference only."""
    if g.target != f.source:
        raise ValueError(
            f"cannot compose: inner objects differ "
            f"({list(g.target.grades)} vs {list(f.source.grades)})"
        )
    zero = CycNum.zero(f.r)
    out = [[zero] * g.source.dim for _ in range(f.target.dim)]
    for i, frow in enumerate(f.matrix):
        for j, a in enumerate(frow):
            if a:
                grow = g.matrix[j]
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
    for i1, frow in enumerate(f.matrix):
        for j1, a in enumerate(frow):
            if a:
                for i2, grow in enumerate(g.matrix):
                    for j2, b in enumerate(grow):
                        if b:
                            out[i1 * gm + i2][j1 * gn + j2] = a * b
    return GradedMorphism(src, tgt, out)


def dual_morphism(f: GradedMorphism) -> GradedMorphism:
    """Anti-transpose: f^dual[i][j] = f[m-1-j][n-1-i] on the reversed lists."""
    src = dual_object(f.target)
    tgt = dual_object(f.source)
    m = f.target.dim
    n = f.source.dim
    rows = [[f.matrix[m - 1 - j][n - 1 - i] for j in range(m)] for i in range(n)]
    return GradedMorphism(src, tgt, rows)


def delta_pivot(x: GradedObject, params: CategoryParams) -> GradedMorphism:
    """The pivotal automorphism: zeta^g on the grade-g summand."""
    entries = {(i, i): params.zeta(g) for i, g in enumerate(x.grades)}
    return GradedMorphism.from_entries(x, x, entries)


_DUALITY_KINDS = ("cap_left", "cap_right", "cup_left", "cup_right")


def duality_map(x: GradedObject, kind: str, params: CategoryParams) -> GradedMorphism:
    """One (co)evaluation for X, named as its diagram generator is.

    cap_left: X^dual (x) X -> 1 and cup_left: 1 -> X (x) X^dual pair mirrored
    positions with coefficient 1; cap_right: X (x) X^dual -> 1 carries zeta^g
    and cup_right: 1 -> X^dual (x) X carries zeta^{-g} per grade-g summand.
    """
    if kind not in _DUALITY_KINDS:
        raise ValueError(f"kind must be one of {', '.join(_DUALITY_KINDS)}, got {kind!r}")
    n = x.dim
    dual_first = kind in ("cap_left", "cup_right")
    cap = kind.startswith("cap")
    one = params.one()
    entries = {}
    for i, g in enumerate(x.grades):
        # x_i meets its mirror n-1-i: flat index (n-1-i)*n + i in X^dual (x) X,
        # i*n + (n-1-i) in X (x) X^dual
        flat = (n - 1 - i) * n + i if dual_first else i * n + n - 1 - i
        weight = one if kind.endswith("left") else params.zeta(g if cap else -g)
        entries[(0, flat) if cap else (flat, 0)] = weight
    xd = dual_object(x)
    pair = tensor_objects(xd, x) if dual_first else tensor_objects(x, xd)
    unit = unit_object(x.r)
    source, target = (pair, unit) if cap else (unit, pair)
    return GradedMorphism.from_entries(source, target, entries)


def dimension(x: GradedObject, side: str, params: CategoryParams) -> CycNum:
    """Left or right quantum dimension: the sum of zeta^{-g} (left) or zeta^{g}."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sign = -1 if side == "left" else 1
    total = params.zero()
    for g in x.grades:
        total = total + params.zeta(sign * g)
    return total


def global_dimension(params: CategoryParams) -> CycNum:
    """Sum over simples of dim_left * dim_right; equals r exactly."""
    total = params.zero()
    for u in range(params.r):
        total = total + params.zeta(-u) * params.zeta(u)
    return total


def loop_weight(u: int, side: str, params: CategoryParams) -> CycNum:
    """dim_side(C_u) / Dim, the weight of the grade-u loop in every projector.

    Dim is global_dimension(params), which equals r exactly, so the quotient
    is a rational rescale.
    """
    dim_u = dimension(simple_object(params.r, u), side, params)
    return rational_scale(dim_u, Fraction(1, params.r))

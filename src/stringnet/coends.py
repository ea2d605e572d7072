"""The coend H, the central hull A(X), and the coend map jmath.

H is the direct sum over pairs of simples (s,t) of S^dual (x) T^dual (x) S
(x) T, the pair (s,t) at position s*r + t; every summand has total grade
zero, so maps out of the unit see all r^2 of them.  `coend_object` builds it
once per r, and every module that draws H takes it from there.  A(X) is the
direct sum over simples U of U^dual (x) X (x) U; the grades of U^dual and U
cancel, so for graded X it is r copies of X, block u at u * dim X, and
`central_hull` returns that graded object.

jmath is written in closed form, one entry 1 per pair of positions of X and
Y, and memoised like the objects it is built from.  The scaled-basis
reference lives in tests/test_coends.py: it assembles jmath from explicit
dual-basis pairs (alpha, alpha-bar) with alpha o alpha-bar = id on the
simple target, and its rescaled pairs show the result does not depend on
them.

`coend_split` is jmath(L, L) read backwards, for L the sum of all r
simples: it splits H into the handle legs of every pair (s,t) at once, so
a projector diagram that starts from H carries a whole handle's r^2 basis
vectors.

A `HomSpaceVector` has one constructor, which takes the one column of an
evaluated morphism 1 -> H^{(x)g} and stores it densely.
"""

from __future__ import annotations

from functools import lru_cache

from . import Record
from .category import (
    MEMO_SIZE,
    GradedMorphism,
    GradedObject,
    dual_object,
    tensor_objects,
)
from .cyclotomic import CycNum


@lru_cache(maxsize=MEMO_SIZE)
def coend_object(r: int) -> GradedObject:
    """H for conductor r: r^2 summands of grade zero, (s,t) at s*r + t."""
    return GradedObject(r, (0,) * (r * r))


@lru_cache(maxsize=MEMO_SIZE)
def simples_object(r: int) -> GradedObject:
    """L, the sum of the r simples: C_s at position s."""
    return GradedObject(r, range(r))


@lru_cache(maxsize=MEMO_SIZE)
def coend_split(r: int) -> GradedMorphism:
    """H -> L^dual (x) L^dual (x) L (x) L: the pair (s,t) to its own summand, coefficient 1.

    jmath(L, L) read backwards, so jmath(L, L) after it is the identity on H.
    """
    forward = jmath(simples_object(r), simples_object(r))
    entries = {(i, j): c for i, col in enumerate(forward.columns) for j, c in col}
    return GradedMorphism.from_entries(coend_object(r), forward.source, entries)


def central_hull(x: GradedObject) -> GradedObject:
    """A(X): r copies of X, the block U^dual (x) X (x) U at u * dim X for u = 0..r-1."""
    return GradedObject(x.r, x.grades * x.r)


@lru_cache(maxsize=MEMO_SIZE)
def jmath(x: GradedObject, y: GradedObject) -> GradedMorphism:
    """The coend map X^dual (x) Y^dual (x) X (x) Y -> H; x_i pairs with X^dual[dx-1-i]."""
    r, dx, dy, one = x.r, x.dim, y.dim, CycNum.one(x.r)
    entries = {
        (gx * r + gy, (((dx - 1 - i) * dy + (dy - 1 - j)) * dx + i) * dy + j): one
        for i, gx in enumerate(x.grades)
        for j, gy in enumerate(y.grades)
    }
    source = tensor_objects(dual_object(x), dual_object(y), x, y)
    return GradedMorphism.from_entries(source, coend_object(r), entries)


class HomSpaceVector(Record):
    """Coordinates in C(1, H^{(x)g}), one per label (s_1,t_1,...,s_g,t_g) in lex order.

    Built from the one column of a morphism 1 -> H^{(x)g} the library
    evaluated, as its (index, entry) pairs, and stored densely: the
    coordinates not in `column` are zero.
    """

    __slots__ = _fields = ("r", "genus", "coords")

    def __init__(self, r: int, genus: int, column) -> None:
        coords = [CycNum.zero(r)] * r ** (2 * genus)
        for i, a in column:
            coords[i] = a
        super().__init__(r, genus, tuple(coords))

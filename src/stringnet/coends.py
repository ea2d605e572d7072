"""The coend H, the central hull A(X), and the coend map jmath.

H is the direct sum over pairs of simples (s,t) of S^dual (x) T^dual (x) S
(x) T; every summand has total grade zero, so maps out of the unit see all
r^2 of them.  A(X) is the direct sum over simples U of U^dual (x) X (x) U,
which for graded X is just r shifted-and-unshifted copies of X stacked in
order u = 0..r-1.

jmath is written in closed form, one entry 1 per pair of positions of X and
Y, and memoised like the objects it is built from.  The scaled-basis
reference lives in tests/test_coends.py: it assembles jmath from explicit
dual-basis pairs (alpha, alpha-bar) with alpha o alpha-bar = id on the
simple target, and its rescaled pairs show the result does not depend on
them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from . import Record
from .category import (
    MEMO_SIZE,
    CategoryParams,
    GradedMorphism,
    GradedObject,
    dual_object,
    simple_object,
    tensor_objects,
)
from .cyclotomic import CycNum


class CoendH(Record):
    """The coend object with its ordered summand labels."""

    __slots__ = _fields = ("r", "summands")

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        super().__init__(r, tuple(itertools.product(range(r), repeat=2)))

    def as_object(self) -> GradedObject:
        return GradedObject(self.r, (0,) * (self.r * self.r))

    def index(self, s: int, t: int) -> int:
        return (s % self.r) * self.r + (t % self.r)


class CentralHull(Record):
    """A(X) together with where each summand u sits inside it."""

    __slots__ = _fields = ("base", "object", "offsets")

    @property
    def r(self) -> int:
        return self.base.r


def central_hull(x: GradedObject) -> CentralHull:
    """A(X) as the ordered concatenation of U^dual (x) X (x) U, u = 0..r-1."""
    r = x.r
    grades: list[int] = []
    offsets = []
    for u in range(r):
        offsets.append(len(grades))
        block = tensor_objects(
            dual_object(simple_object(r, u)), x, simple_object(r, u)
        )
        grades.extend(block.grades)
    return CentralHull(x, GradedObject(r, grades), tuple(offsets))


@lru_cache(maxsize=MEMO_SIZE)
def jmath(x: GradedObject, y: GradedObject) -> GradedMorphism:
    """The coend map X^dual (x) Y^dual (x) X (x) Y -> H; x_i pairs with X^dual[dx-1-i]."""
    h, dx, dy, one = CoendH(x.r), x.dim, y.dim, CycNum.one(x.r)
    entries = {
        (h.index(gx, gy), (((dx - 1 - i) * dy + (dy - 1 - j)) * dx + i) * dy + j): one
        for i, gx in enumerate(x.grades)
        for j, gy in enumerate(y.grades)
    }
    source = tensor_objects(dual_object(x), dual_object(y), x, y)
    return GradedMorphism.from_entries(source, h.as_object(), entries)


class BasisDescription(NamedTuple):
    labels: list[tuple[int, ...]]
    dimension: int


def hom_space_basis(genus: int, params: CategoryParams) -> BasisDescription:
    """Basis of C(1, H^{(x)g}): tuples (s_1,t_1,...,s_g,t_g), lex order."""
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    labels = [
        tuple(lab) for lab in itertools.product(range(params.r), repeat=2 * genus)
    ]
    return BasisDescription(labels, len(labels))


class HomSpaceVector(Record):
    """Coordinates in C(1, H^{(x)g}), one per basis label of `hom_space_basis`."""

    __slots__ = _fields = ("r", "genus", "coords")

    def __init__(self, r: int, genus: int, coords: tuple[CycNum, ...]) -> None:
        want = r ** (2 * genus)
        if len(coords) != want:
            raise ValueError(f"expected {want} coordinates, got {len(coords)}")
        for a in coords:
            if not isinstance(a, CycNum) or a.order != r:
                raise ValueError("coords must be CycNum of conductor r")
        super().__init__(r, genus, coords)

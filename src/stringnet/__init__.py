"""Exact string-net state spaces for Z_r-graded pivotal categories.

An exact-arithmetic engine (no floating point anywhere) computing string-net
space dimensions and bases on closed surfaces, the puncture projector and its
spectrum, the Drinfeld-centre torus basis, the combinatorial r-spin structure
census, the group-algebra Frobenius route to the same spaces, and the
background-charge criterion for pivotally deformed modular data.

Value objects (scalars, categories, objects, morphisms, diagrams, surfaces,
reports) are `Record`s: a class names its fields in `_fields`, its `__init__`
normalises and validates them, and `Record` supplies immutability, equality,
hashing and repr.  `Record` is the one class that defines assignment and
deletion; a subclass may still define its own equality, hashing or repr.
This module also holds the errors the CLI reports, so that loading the CLI
loads no computation.
"""

from operator import attrgetter

__version__ = "0.1.0"


class InvariantError(AssertionError):
    """A theorem checked on the library's own output failed; raised even under -O."""

    def __init__(self, invariant: str) -> None:
        super().__init__(f"invariant violated: {invariant}")
        self.invariant = invariant


def require(holds: bool, invariant: str) -> None:
    """Raise InvariantError naming `invariant` unless it holds."""
    if not holds:
        raise InvariantError(invariant)


class InadmissibleMarkingError(ValueError):
    """An r-spin marking fails the vertex congruence; `.report` has the residues."""

    def __init__(self, message: str, report) -> None:
        super().__init__(message)
        self.report = report


class ModularDataError(ValueError):
    """Modular data violating a defining identity; `.violations` lists them."""

    def __init__(self, violations) -> None:
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


class Record:
    """An immutable value object whose fields are named by `_fields`.

    `Record(*values)` sets the fields in order.  Equality and hashing use
    every field and hold only between instances of one class; repr shows
    every field.  Assignment and deletion raise AttributeError, so an `__init__`
    that normalises its arguments sets them with `object.__setattr__` or
    `Record.__init__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

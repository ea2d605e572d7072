"""Exact string-net state spaces for Z_r-graded pivotal categories.

An exact-arithmetic engine (no floating point anywhere) computing string-net
space dimensions and bases on closed surfaces, the puncture projector and its
spectrum, the Drinfeld-centre torus basis, the combinatorial r-spin structure
census, the group-algebra Frobenius route to the same spaces, and the
background-charge criterion for pivotally deformed modular data.
"""

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

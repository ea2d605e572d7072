"""Reference operations on graded morphisms that only the tests use.

The dual of a morphism is the anti-transpose: with the dual of a grade list
reversed and negated, f^dual[i][j] = f[m-1-j][n-1-i].  With row-major
flattening the strict identities are dual(f (x) g) = dual(f) (x) dual(g)
and dual(f o g) = dual(g) o dual(f); the reversed-order tensor form agrees
only up to the evident permutation of summands, which never matters here
because tensor words of invertible simples have a single summand.

`trace` closes an endomorphism into the left or right pivotal trace with
one cup and one cap; for r >= 3 the two differ on the nontrivial simples.
"""

from __future__ import annotations

from stringnet.category import CategoryParams, GradedMorphism, dual_object, unit_object
from stringnet.cyclotomic import CycNum
from stringnet.diagrams import (
    SliceDiagram,
    cap_left,
    cap_right,
    cup_left,
    cup_right,
    evaluate,
    identity,
)


def dual_morphism(f: GradedMorphism) -> GradedMorphism:
    """Anti-transpose: f^dual[i][j] = f[m-1-j][n-1-i] on the reversed lists."""
    m = f.target.dim
    n = f.source.dim
    rows = f.matrix
    return GradedMorphism(
        dual_object(f.target),
        dual_object(f.source),
        [[rows[m - 1 - j][n - 1 - i] for j in range(m)] for i in range(n)],
    )


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
        layers = [[cup_right(x)], [identity(dual_object(x)), f], [cap_left(x)]]
    else:
        layers = [[cup_left(x)], [f, identity(dual_object(x))], [cap_right(x)]]
    return evaluate(SliceDiagram(unit_object(x.r), layers), params).entry(0, 0)


def global_dimension(params: CategoryParams) -> CycNum:
    """Sum over simples of dim_left * dim_right; equals r exactly."""
    total = params.zero()
    for u in range(params.r):
        total = total + params.zeta(-u) * params.zeta(u)
    return total

"""Dense reference operations on graded morphisms that only the tests use.

The dual of a morphism is the anti-transpose: with the dual of a grade list
reversed and negated, f^dual[i][j] = f[m-1-j][n-1-i].  With row-major
flattening the strict identities are dual(f (x) g) = dual(f) (x) dual(g)
and dual(f o g) = dual(g) o dual(f); the reversed-order tensor form agrees
only up to the evident permutation of summands, which never matters here
because tensor words of invertible simples have a single summand.
"""

from __future__ import annotations

from stringnet.category import GradedMorphism, dual_object


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

"""The four routes to a closed surface's string-net dimension agree at larger (r, g).

The closed form r^2g (r | 2 - 2g), the image rank of the diagram-built
plaquette projector, the r-spin census on the standard decomposition, and
the rank of the Frobenius state-sum vectors sigma_F of every admissible
marking must all give the same number.  Each case is also held to a CPU-time
bound of three times its time measured on a 2-vCPU x86_64 host (Python
3.11.7, a fresh interpreter per case), so a route that slows down fails here.

The (8, 1) case takes about 10 s and carries the `slow` marker: the default
run deselects it (`addopts` in pyproject.toml), and `pytest -m slow
tests/test_scale.py` runs it.
"""

from __future__ import annotations

import time

import pytest

from stringnet.category import CategoryParams
from stringnet.frobenius import frobenius_zr, sigma_F
from stringnet.linalg import rank_cyc
from stringnet.rspin import enumerate_admissible, standard_decomposition
from stringnet.spaces import sn_closed_dim, tilde_bp_operator

# (r, genus, bound): each bound is 3 x the median of three measured times
CASES = [
    pytest.param(2, 4, 3 * 0.80, id="r2-g4"),
    pytest.param(6, 1, 3 * 1.34, id="r6-g1"),
    pytest.param(8, 1, 3 * 10.9, id="r8-g1", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("r, genus, bound_s", CASES)
def test_four_routes_agree(r, genus, bound_s):
    start = time.process_time()
    params = CategoryParams(r)
    closed = sn_closed_dim(params, genus)
    projector = tilde_bp_operator(params, genus).image_rank
    markings = enumerate_admissible(standard_decomposition(genus), r)
    f_data = frobenius_zr(params)
    vectors = [sigma_F(m, f_data).coords for m in markings]
    n = len(vectors[0])
    sigma = rank_cyc([[v[i] for v in vectors] for i in range(n)])
    elapsed = time.process_time() - start
    assert (closed, projector, len(markings), sigma) == (r ** (2 * genus),) * 4
    assert elapsed < bound_s, (r, genus, elapsed)

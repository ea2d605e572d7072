"""The four routes to a closed surface's string-net dimension agree at larger (r, g).

The closed form r^2g (r | 2 - 2g), the image rank of the diagram-built
plaquette projector, the r-spin census on the standard decomposition, and
the rank of the Frobenius state-sum vectors sigma_F of every admissible
marking must all give the same number.  Each case is also held to a CPU-time
bound of three times its time measured on a 2-vCPU x86_64 host (Python
3.11.7, a fresh interpreter per case), so a route that slows down fails here.

The (8, 1) and (10, 1) cases carry the `slow` marker: the default run
deselects them (`addopts` in pyproject.toml), and `pytest -m slow
tests/test_scale.py` runs them.  Since the state push builds only the chi
columns it reads, (8, 1) takes about 1 s and (10, 1) about 4 s.

At r = 7 and 8 the rank of the r^2 torus vectors h_Z, one per simple of the
Drinfeld centre, must equal the closed form and the r-spin count at genus 1,
under a bound set the same way.  These cases take a few hundredths of a
second, so each runs in a fresh interpreter, as its bound was measured: in
the process that ran the rest of the suite, the same region was timed
slower now and then.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stringnet.category import CategoryParams
from stringnet.frobenius import frobenius_zr, sigma_F
from stringnet.linalg import rank_cyc
from stringnet.rspin import count_rspin, enumerate_admissible, standard_decomposition
from stringnet.spaces import sn_closed_dim, tilde_bp_operator

# (r, genus, bound): each bound is 3 x the median of three measured times
CASES = [
    pytest.param(2, 4, 3 * 0.80, id="r2-g4"),
    pytest.param(6, 1, 3 * 1.34, id="r6-g1"),
    pytest.param(8, 1, 3 * 10.9, id="r8-g1", marks=pytest.mark.slow),
    pytest.param(10, 1, 3 * 3.58, id="r10-g1", marks=pytest.mark.slow),
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


# (r, bound): each bound is 3 x the median of three measured times
TORUS_CASES = [
    pytest.param(7, 3 * 0.030, id="torus-r7"),
    pytest.param(8, 3 * 0.027, id="torus-r8"),
]


SRC = Path(__file__).resolve().parents[1] / "src"
# The timed region of a torus case, run as `python -c TORUS_CASE r`; it
# prints the rank and the CPU time.
TORUS_CASE = """
import json, sys, time
from stringnet.category import CategoryParams
from stringnet.centre import torus_vectors
from stringnet.linalg import rank_cyc
r = int(sys.argv[1])
start = time.process_time()
params = CategoryParams(r)
vectors = [v.coords for v in torus_vectors(params)]
rank = rank_cyc([[v[i] for v in vectors] for i in range(r * r)])
elapsed = time.process_time() - start
print(json.dumps([rank, elapsed]))
"""


@pytest.mark.parametrize("r, bound_s", TORUS_CASES)
def test_torus_vectors_span_the_genus_one_space(r, bound_s):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", TORUS_CASE, str(r)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    rank, elapsed = json.loads(out.splitlines()[-1])
    params = CategoryParams(r)
    assert (rank, count_rspin(1, r)) == (sn_closed_dim(params, 1),) * 2 == (r * r,) * 2
    assert elapsed < bound_s, (r, elapsed)

"""The four routes to a closed surface's string-net dimension agree at larger (r, g).

The closed form r^2g (r | 2 - 2g), the image rank of the diagram-built
plaquette projector, the r-spin census on the standard decomposition, and
the rank of the Frobenius state-sum vectors sigma_F of every admissible
marking must all give the same number.  Each case is also held to a CPU-time
bound of three times its time measured on a 2-vCPU x86_64 host (Python
3.11.7, a fresh interpreter per case), so a route that slows down fails here.

The (8, 1) and (10, 1) cases carry the `slow` marker: the default run
deselects them (`addopts` in pyproject.toml), and `pytest -m slow
tests/test_scale.py` runs them.  Since the state push boxes each chi on
1_0 alone, one column pushed from the unit, (6, 1) takes about 0.2 s, (8, 1)
about 1 s and (10, 1) about 5 s.

The plaquette projector alone runs at (2, 6) and (3, 4), under `slow`: it
opens one handle at a time, so its widest diagram layer is r^(2g+2), and what
holds its memory is the dense n x n operator matrix.  Each case is bounded
in CPU time as above, and its child reports its own max RSS, held to a budget
of twice the measured figure.

At r = 7 and 8 the rank of the r^2 torus vectors h_Z, one per simple of the
Drinfeld centre, must equal the closed form and the r-spin count at genus 1,
under a bound set the same way.

Pointed Z_60 modular data (60 labels at conductor 60, priced at 3600^2, so
the cap is raised in the child) is parsed and validated through
`modular_data_from_json` under `slow`, bounded the same way.

Every case runs its timed region in a fresh interpreter, as its bound was
measured: in the process that ran the rest of the suite, the same region
was timed slower now and then, and the memos that earlier tests filled
would hide a slower route.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringnet.category import CategoryParams
from stringnet.rspin import count_rspin
from stringnet.spaces import sn_closed_dim

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str, *args: int) -> list:
    """Run `code` as `python -c code args...` and return the JSON list it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


# (r, genus, bound): each bound is 3 x the median of three measured times
CASES = [
    pytest.param(2, 4, 3 * 0.384, id="r2-g4"),
    pytest.param(6, 1, 3 * 0.234, id="r6-g1"),
    pytest.param(8, 1, 3 * 1.257, id="r8-g1", marks=pytest.mark.slow),
    pytest.param(10, 1, 3 * 3.58, id="r10-g1", marks=pytest.mark.slow),
]


# The timed region of a four-route case, run as `python -c FOUR_ROUTES_CASE r
# genus`; it prints the four dimensions and the CPU time.
FOUR_ROUTES_CASE = """
import json, sys, time
from stringnet.category import CategoryParams
from stringnet.frobenius import frobenius_zr, sigma_F
from stringnet.linalg import rank_cyc
from stringnet.rspin import enumerate_admissible, standard_decomposition
from stringnet.spaces import sn_closed_dim, tilde_bp_operator
r, genus = int(sys.argv[1]), int(sys.argv[2])
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
print(json.dumps([closed, projector, len(markings), sigma, elapsed]))
"""


@pytest.mark.parametrize("r, genus, bound_s", CASES)
def test_four_routes_agree(r, genus, bound_s):
    *dims, elapsed = _run_fresh(FOUR_ROUTES_CASE, r, genus)
    assert dims == [r ** (2 * genus)] * 4
    assert elapsed < bound_s, (r, genus, elapsed)


# (r, genus, bound, RSS budget): each bound is 3 x the median of three measured
# times, each budget 2 x the max RSS measured (279 MB and 698 MB)
PROJECTOR_CASES = [
    pytest.param(2, 6, 3 * 0.782, 2 * 279, id="projector-r2-g6", marks=pytest.mark.slow),
    pytest.param(3, 4, 3 * 2.70, 2 * 698, id="projector-r3-g4", marks=pytest.mark.slow),
]


# The timed region of a projector case, run as `python -c PROJECTOR_CASE r
# genus`; it prints the image rank, the CPU time and the process's max RSS in MB.
PROJECTOR_CASE = """
import json, resource, sys, time
from stringnet.category import CategoryParams
from stringnet.spaces import tilde_bp_operator
r, genus = int(sys.argv[1]), int(sys.argv[2])
start = time.process_time()
rank = tilde_bp_operator(CategoryParams(r), genus).image_rank
elapsed = time.process_time() - start
print(json.dumps([rank, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


@pytest.mark.parametrize("r, genus, bound_s, budget_mb", PROJECTOR_CASES)
def test_projector_alone_at_the_capped_frontier(r, genus, bound_s, budget_mb):
    rank, elapsed, rss_mb = _run_fresh(PROJECTOR_CASE, r, genus)
    assert rank == count_rspin(genus, r) == r ** (2 * genus)
    assert elapsed < bound_s, (r, genus, elapsed)
    assert rss_mb < budget_mb, (r, genus, rss_mb)


# (r, bound): each bound is 3 x the median of three measured times
TORUS_CASES = [
    pytest.param(7, 3 * 0.027, id="torus-r7"),
    pytest.param(8, 3 * 0.020, id="torus-r8"),
]


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
    rank, elapsed = _run_fresh(TORUS_CASE, r)
    params = CategoryParams(r)
    assert (rank, count_rspin(1, r)) == (sn_closed_dim(params, 1),) * 2 == (r * r,) * 2
    assert elapsed < bound_s, (r, elapsed)


# (n, bound): the bound is 3 x the median of five measured times
MODULAR_CASES = [
    pytest.param(60, 3 * 0.251, id="modular-z60", marks=pytest.mark.slow),
]


# The timed region of a modular-data case, run as `python -c MODULAR_CASE n`:
# pointed Z_n, s_ab = zeta_n^(ab), is built as JSON untimed, then parsed and
# validated; it prints the label count and the CPU time.
MODULAR_CASE = """
import json, os, sys, time
from stringnet.cyclotomic import CycNum, to_json, zeta_power
from stringnet.modular import modular_data_from_json
n = int(sys.argv[1])
os.environ["STRINGNET_CAP"] = str((n * n) ** 2)
obj = json.loads(json.dumps({
    "labels": [str(a) for a in range(n)],
    "dual": [-a % n for a in range(n)],
    "dims": [to_json(CycNum.one(n))] * n,
    "s": [[to_json(zeta_power(n, a * b)) for b in range(n)] for a in range(n)],
}))
start = time.process_time()
data = modular_data_from_json(obj)
elapsed = time.process_time() - start
print(json.dumps([len(data.labels), elapsed]))
"""


@pytest.mark.parametrize("n, bound_s", MODULAR_CASES)
def test_pointed_modular_data_validates_in_bounded_time(n, bound_s):
    labels, elapsed = _run_fresh(MODULAR_CASE, n)
    assert labels == n
    assert elapsed < bound_s, (n, elapsed)

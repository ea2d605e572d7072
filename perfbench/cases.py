"""The three case grids, each drawn from a seed.

A case is the argument list of one `stringnet` CLI invocation.  The seed
varies only inputs that leave the cost unchanged: orientations, markings,
boundary grades, modular-data labels and the order of the cases.  The sizes
(r, genus, data file) are fixed per workload, so any two seeds of a workload
do the same amount of work.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

COMMANDS = (
    "sn-dim",
    "sphere",
    "torus-basis",
    "bp-operator",
    "annulus",
    "rspin-count",
    "rspin-enumerate",
    "rspin-check",
    "sigma-f",
    "frobenius-check",
    "charge",
    "validate-modular",
)

# No timed case takes much over half a second.  A shared host changes speed
# by up to 1.8x from one second to the next, and only a short case mostly
# runs at one speed, the one its host-scale reference timings see; short
# passes also give each run enough of them for steady medians.
BP_GRID = ((2, 1), (3, 1), (4, 1), (2, 2))
TORUS_GRID = (2, 3, 4, 5)
# r divides 2 - 2g for every pair, so every marking is admissible.
SIGMA_GRID = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1))
FROBENIUS_GRID = (4, 6)
# The memory-heavy state sum (57 MB), run once per run, checked but untimed.
SIGMA_MEMORY_PROBE = (2, 5)

SN_DIM_GRID = ((2, 0), (2, 1), (3, 2), (4, 3))
SPHERE_GRID = (1, 2, 3)
ANNULUS_GRID = (3, 4, 5)
RSPIN_COUNT_GRID = ((2, 1), (3, 4), (4, 2))
RSPIN_CHECK_GRID = ((2, 2), (3, 1), (3, 2))
RSPIN_ENUMERATE_GRID = ((2, 1), (2, 3), (3, 2), (3, 4))
# Shipped modular data: file stem, labels in group order, duality.
MODULAR_DATA = (
    ("trivial", ("0",), (0,)),
    ("semion", ("1", "s"), (0, 1)),
    ("z3_pointed", ("0", "1", "2"), (0, 2, 1)),
    ("z5_pointed", ("0", "1", "2", "3", "4"), (0, 4, 3, 2, 1)),
)


def data_path(stem: str) -> str:
    """Path of a shipped modular-data file, relative to the repository root."""
    return f"src/stringnet/data/{stem}.json"


def _orientation(rng: random.Random) -> str:
    return rng.choice(("anticlockwise", "clockwise"))


def _indices(rng: random.Random, r: int, n: int) -> str:
    return ",".join(str(rng.randrange(r)) for _ in range(n))


def _projector_grid(rng: random.Random) -> list[list[str]]:
    cases = [
        ["bp-operator", "--r", str(r), "--genus", str(g), "--orientation", _orientation(rng)]
        for r, g in BP_GRID
    ]
    cases += [["torus-basis", "--r", str(r)] for r in TORUS_GRID]
    return cases


def _statesum_grid(rng: random.Random) -> list[list[str]]:
    cases = [
        ["sigma-f", "--r", str(r), "--genus", str(g), "--indices", _indices(rng, r, 2 * g)]
        for r, g in SIGMA_GRID
    ]
    cases += [["frobenius-check", "--r", str(r)] for r in FROBENIUS_GRID]
    return cases


def _cli_light(rng: random.Random) -> list[list[str]]:
    cases = [["sn-dim", "--r", str(r), "--genus", str(g)] for r, g in SN_DIM_GRID]
    cases += [["sphere", "--r", str(r)] for r in SPHERE_GRID]
    for r in ANNULUS_GRID:
        a = rng.randrange(r)
        b = a if rng.random() < 0.5 else rng.randrange(r)
        cases.append(["annulus", "--r", str(r), "--a", str(a), "--b", str(b)])
    cases += [["rspin-count", "--r", str(r), "--genus", str(g)] for r, g in RSPIN_COUNT_GRID]
    cases += [
        ["rspin-check", "--r", str(r), "--genus", str(g), "--indices", _indices(rng, r, 2 * g)]
        for r, g in RSPIN_CHECK_GRID
    ]
    cases += [
        ["rspin-enumerate", "--r", str(r), "--genus", str(g)] for r, g in RSPIN_ENUMERATE_GRID
    ]
    for stem, labels, dual in MODULAR_DATA:
        n = len(labels)
        j = rng.randrange(n)
        # Half the draws put U at J (x) J and V at its dual, the one-dimensional case.
        u = (2 * j) % n if rng.random() < 0.5 else rng.randrange(n)
        v = dual[u] if rng.random() < 0.5 else rng.randrange(n)
        cases.append(
            ["charge", "--data", data_path(stem), "--j", labels[j], "--u", labels[u], "--v", labels[v]]
        )
    cases += [["validate-modular", "--data", data_path(stem)] for stem, _, _ in MODULAR_DATA]
    cases.append(["bp-operator", "--r", "2", "--genus", "1", "--orientation", _orientation(rng)])
    cases.append(["torus-basis", "--r", "2"])
    cases += [[command, "--json-schema"] for command in COMMANDS]
    return cases


def _sigma_probe(rng: random.Random) -> list[list[str]]:
    r, g = SIGMA_MEMORY_PROBE
    return [["sigma-f", "--r", str(r), "--genus", str(g), "--indices", _indices(rng, r, 2 * g)]]


WORKLOADS = {
    "projector_grid": _projector_grid,
    "statesum_grid": _statesum_grid,
    "cli_light": _cli_light,
}
# Cases each run makes once, outside the timed passes, for peak_rss_mb.
PROBES = {"statesum_grid": _sigma_probe}
# Seconds a run spends on a 2-core Xeon VM: (one pass with fresh processes,
# one warm-interpreter pass, the work done once: warm-up pass and probes).
# Each pass includes its set-up probes and reference timings.  They turn
# --seconds into a fixed pass count, so every run of a workload takes each
# case's median over the same number of samples.
NOMINAL_S = {
    "projector_grid": (3.2, 1.3, 1.6),
    "statesum_grid": (2.9, 1.05, 5.8),
    "cli_light": (4.5, 1.15, 0.8),
}


def build_cases(workload: str, seed: int) -> list[list[str]]:
    """The workload's cases for this seed, in the seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases


def build_probes(workload: str, seed: int) -> list[list[str]]:
    """The workload's untimed memory-probe cases for this seed."""
    probe = PROBES.get(workload)
    return probe(random.Random(f"{workload}:{seed}:probe")) if probe else []


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


"""Timings of the library's inner kernels, one number per kernel and size.

    PYTHONPATH=src python3 perfbench/kernels.py SEED

Prints one JSON object mapping metric name to {"value", "unit"}.  Covers
CycNum mul/add at conductors 3/4/5/8/12, `rank_cyc` on growing n x n
matrices, `compose` and `tensor_morphisms` on growing tensor powers of the
group algebra object, `evaluate` on one plaquette-projector column diagram,
and `chi` (one handle of the state sum: two Nakayama rotations and the chi
diagram).  Each value is the median per-call time over five repeats.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

CONDUCTORS = (3, 4, 5, 8, 12)
RANK_SIZES = (2, 4, 8)
STRANDS = (1, 2, 3)
REPEATS = 5
MIN_REPEAT_S = 0.01


def per_call_s(fn) -> float:
    """Median seconds per call, with enough calls per repeat to read the clock."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_REPEAT_S:
            break
        n *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def measure(seed: int) -> dict:
    from stringnet.category import (
        CategoryParams,
        GradedMorphism,
        GradedObject,
        compose,
        tensor_morphisms,
        tensor_objects,
    )
    from stringnet.cyclotomic import CycNum, degree, zeta_power
    from stringnet.diagrams import evaluate
    from stringnet.frobenius import chi, frobenius_zr
    from stringnet.linalg import rank_cyc
    from stringnet.spaces import _bp_column_diagram

    rng = random.Random(f"kernels:{seed}")

    def cyc(n: int) -> CycNum:
        return CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree(n))])

    metrics = {}

    def put(name: str, seconds: float, unit: str) -> None:
        scale = {"us": 1e6, "ms": 1e3}[unit]
        metrics[name] = {"value": seconds * scale, "unit": unit}

    for n in CONDUCTORS:
        a, b = cyc(n), cyc(n)
        put(f"kernel.cyc_mul_c{n}_us", per_call_s(lambda: a * b), "us")
        put(f"kernel.cyc_add_c{n}_us", per_call_s(lambda: a + b), "us")

    for size in RANK_SIZES:
        rows = [[CycNum(5, [rng.randint(-3, 3) for _ in range(4)]) for _ in range(size)] for _ in range(size)]
        put(f"kernel.rank_cyc_n{size}_ms", per_call_s(lambda: rank_cyc(rows)), "ms")

    r = 3
    f_obj = GradedObject(r, range(r))

    def dense_endo(x: GradedObject) -> GradedMorphism:
        """Every grade-allowed entry set to a root of unity."""
        rows = [
            [zeta_power(r, rng.randrange(r)) if gi == gj else CycNum.zero(r) for gj in x.grades]
            for gi in x.grades
        ]
        return GradedMorphism(x, x, rows)

    one_strand = dense_endo(f_obj)
    for k in STRANDS:
        f = dense_endo(tensor_objects(*([f_obj] * k)))
        put(f"kernel.compose_s{k}_ms", per_call_s(lambda: compose(f, f)), "ms")
        put(f"kernel.tensor_s{k}_ms", per_call_s(lambda: tensor_morphisms(f, one_strand)), "ms")

    params = CategoryParams(r)
    column = _bp_column_diagram(params, 1, (1, 2), 1, "anticlockwise")
    put("kernel.evaluate_bp_column_ms", per_call_s(lambda: evaluate(column, params)), "ms")
    f_data = frobenius_zr(params)
    put("kernel.chi_ms", per_call_s(lambda: chi(1, 2, f_data)), "ms")
    return metrics


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))

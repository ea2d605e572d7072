"""Run a case grid in one warm interpreter through `stringnet.cli.main`.

    PYTHONPATH=src python3 perfbench/inproc.py

A line protocol on stdin and stdout, so run.py can interleave these
passes with its fresh-process passes and both sample the same stretch of
time.  The first input line is a JSON list of argument lists; the worker
answers with one warm-up pass: {"results": [{"code", "sha256"}, ...]}.  Each
later input line is a number of passes; the worker runs them and answers
{"case_s": [[...], ...]}, each case's CPU time in each pass, "scale": the host
scale of each of those times (perfbench/reference.py), "reference_s": the
reference timings behind the scales, and "unstable": the cases whose exit code or stdout digest ever differed from
the warm-up pass.  The worker exits when its input ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import time

from reference import Bracket


def run_case(main, argv: list[str]) -> tuple[float, int, str]:
    # Collect outside the timed region, so no case pays for the garbage of
    # the case before it and the seeded case order does not move the time.
    gc.collect()
    buf = io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    cpu = time.process_time() - t0
    return cpu, code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def reply(out, obj: dict) -> None:
    out.write(json.dumps(obj) + "\n")
    out.flush()


def main() -> int:
    out = sys.stdout
    cases = json.loads(sys.stdin.readline())
    from stringnet.cli import main as cli_main

    first = [run_case(cli_main, argv)[1:] for argv in cases]
    reply(out, {"results": [{"code": c, "sha256": s} for c, s in first]})
    unstable: set[int] = set()
    for line in sys.stdin:
        passes, scales, reference = [], [], []
        for _ in range(int(line)):
            bracket = Bracket()
            times, scale = [], []
            for i, argv in enumerate(cases):
                cpu, code, sha = run_case(cli_main, argv)
                times.append(cpu)
                scale.append(bracket.scale())
                if (code, sha) != first[i]:
                    unstable.add(i)
            passes.append(times)
            scales.append(scale)
            reference += bracket.samples
        reply(out, {"case_s": passes, "scale": scales, "reference_s": reference, "unstable": sorted(unstable)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

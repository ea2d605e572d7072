"""The stringnet benchmark: the paper's case grids through the CLI, checked and timed.

    python3 perfbench/run.py --workload projector_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --golden check    # default-seed grids against golden.json
    python3 perfbench/run.py --golden write    # rewrite golden.json (only if every check passes)
    python3 perfbench/selftest.py              # tests of the benchmark's own code

Run it from the repository root; it uses the standard library and the
checkout's `src/` only.  One client runs the grid as a closed loop: each case
is a fresh `python -m stringnet.cli` process with STRINGNET_CAP removed from
its environment, and the next case starts only when the previous one has
exited, since a 2-core machine cannot run cases side by side without them
slowing each other.  Every time is CPU time (user + system), of the child
for a fresh process and of the worker for the warm interpreter: on a shared
host, wall time mostly measures how long the case waited for a CPU.

With --trace 0 a run makes passes over the grid with a fresh process per
case, and passes in one warm interpreter after a warm-up pass, alternating
the two so both sample the whole run.  The number of pass pairs (at least
two) is what fits in --seconds at the workload's nominal times; a run
that overruns --seconds by 30% stops early.  Each run also makes the
workload's memory-probe cases once, untimed.  It reports
  grid_s         one pass with a fresh process per case: the sum over cases
                 of each case's median time over the passes;
  inproc_grid_s  the same for the warm interpreter calling stringnet.cli.main
                 with stdout captured;
  peak_rss_mb    the largest child max-RSS over the fresh-process passes
                 and the memory probes;
  setup_s        the median CPU time a fresh interpreter takes to
                 import stringnet.cli and build its parser, probed between the
                 fresh-process cases (about 4 per pass) so the probes span
                 the whole run.
Each timing behind these three is scaled to the host's speed: the run times
a fixed stdlib routine (perfbench/reference.py) just before and just after
it, in a fresh interpreter for fresh-process timings and
in the warm interpreter for its own, and multiplies the timing by the
routine's usual time over the mean of the two.  The details line has the
three unscaled too.
With --trace 1 it runs one untraced and one traced pass, probes included
(perfbench/tracer.py wraps every stringnet module from outside `src/`), and
the layer kernels (perfbench/kernels.py), and reports the per-layer metrics.

Every output is checked (perfbench/checks.py) and its stdout digest compared
with golden.json where the case has one.  The last stdout line is the JSON
result; the line before it holds run metadata and details: per-case times,
tail percentiles with their sample counts, the fail ratio and its base,
golden agreement and any failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from cases import DEFAULT_SEED, NOMINAL_S, WORKLOADS, build_cases, build_probes, case_id
from checks import GOLDEN_PATH, check_output, digest, load_golden
from reference import Bracket, child_cpu_s
from tracer import TRACE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
# A run stops making passes once it has taken this many times --seconds,
# so a slow spell on the host cannot stretch it without end.
OVERRUN = 1.3
SETUP_PROBES_PER_PASS = 4
BRACKETS_PER_PASS = 10
CASE_TIMEOUT_S = 150
RUN_TIMEOUT_S = 170
SETUP_CODE = (
    "import time\n"
    "t0 = time.process_time()\n"
    "import stringnet.cli as cli\n"
    "cli._build_parser()\n"
    "t1 = time.process_time()\n"
    "print(t1 - t0, cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    """The caller's environment without a size cap, importing stringnet from src/.

    Bytecode is cached next to the sources, as an installed package has it,
    so start-up cost does not depend on the caller's bytecode settings.  The
    hash seed is fixed, so set and dict orders, and with them the work done,
    are the same in every process.
    """
    env = dict(os.environ)
    for name in ("STRINGNET_CAP", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def run_child(argv: list[str], env: dict, timeout: float = CASE_TIMEOUT_S) -> dict:
    """Run one process to completion; CPU time, exit code, output and max-RSS."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.daemon = True
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "cpu": child_cpu_s(usage),
        "code": proc.returncode,
        "out": out,
        "err": err[0],
        "maxrss_kb": usage.ru_maxrss,
    }


def tail(samples: list[float]) -> dict | None:
    """The highest of p50..p99.9 with at least ten samples above it."""
    s = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = math.ceil(len(s) * p / 100)
        if rank and len(s) - rank >= 10:
            best = {"p": p, "value": s[rank - 1]}
    return best


def summary(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "tail": tail(samples),
    }


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def metadata(seed: int) -> dict:
    init = _read(ROOT / "src" / "stringnet" / "__init__.py") or ""
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "package_version": version.group(1) if version else None,
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
        "loadavg_before": list(os.getloadavg()),
    }


class Bench:
    """Runs cases and judges every execution against the checks and golden.json."""

    def __init__(self, golden: dict[str, str]):
        self.env = child_env()
        self.golden = golden
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (phase, case, problems) -> executions
        self.golden_compared = 0
        self.golden_mismatched = 0
        self.reference: list[float] = []  # reference.py timings of the fresh-process passes

    def judge(self, phase: str, argv: list[str], code: int, sha: str, out: bytes | None) -> None:
        """Count one execution, and whether its output is wrong."""
        cid = case_id(argv)
        key = (cid, code, sha)
        if key not in self.verdicts:
            if out is None:
                self.verdicts[key] = ["in-process output differs from the fresh-process output"]
            else:
                problems = check_output(argv, code, out, ROOT)
                want = self.golden.get(cid)
                if want is not None:
                    self.golden_compared += 1
                    if want != sha:
                        self.golden_mismatched += 1
                        problems.append("stdout digest differs from golden.json")
                self.verdicts[key] = problems
        self.attempted += 1
        problems = self.verdicts[key]
        if problems:
            self.failed += 1
            self.failures[(phase, cid, "; ".join(problems[:3]))] += 1

    def cold_pass(self, cases: list[list[str]], traced: bool = False, setup: list | None = None) -> list[dict]:
        """One fresh process per case.  With `setup`, a timed pass: set-up
        probes, as (seconds, host scale), spread over the pass, and a host
        scale for every case, from reference timings (perfbench/reference.py)
        around each group of about a tenth of the cases."""
        prefix = [sys.executable, str(HERE / "tracer.py")] if traced else [sys.executable, "-m", "stringnet.cli"]
        stride = max(1, len(cases) // SETUP_PROBES_PER_PASS)
        group = max(1, len(cases) // BRACKETS_PER_PASS)
        bracket = Bracket(fresh_process=True) if setup is not None else None
        probes: list[float] = []
        runs = []
        for i, argv in enumerate(cases):
            if bracket and i % stride == 0:
                probes.append(self.setup_time())
            run = run_child(prefix + argv, self.env)
            run["sha256"] = digest(run["out"])
            run["bytes"] = len(run["out"])
            self.judge("traced" if traced else "cold", argv, run["code"], run["sha256"], run["out"])
            if traced:
                text = run.pop("err").decode(errors="replace")
                if TRACE_MARKER not in text:
                    raise BenchError(f"traced case {case_id(argv)!r} wrote no trace: {text[-2000:]}")
                run["trace"] = json.loads(text.rsplit(TRACE_MARKER, 1)[1])
            run.pop("out")
            run.pop("err", None)
            runs.append(run)
            if bracket and ((i + 1) % group == 0 or i + 1 == len(cases)):
                scale = bracket.scale()
                for grouped in runs[i - i % group :]:
                    grouped["scale"] = scale
                setup += [(seconds, scale) for seconds in probes]
                probes.clear()
        if bracket:
            self.reference += bracket.samples
        return runs

    def setup_time(self) -> float:
        """CPU seconds a fresh interpreter takes to import stringnet.cli and build its parser."""
        run = run_child([sys.executable, "-c", SETUP_CODE], self.env)
        if run["code"] != 0:
            raise BenchError(f"importing stringnet.cli failed: {run['err'].decode(errors='replace')}")
        seconds, module = run["out"].decode().split(maxsplit=1)
        if not Path(module.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"stringnet.cli was imported from {module.strip()}, not from src/")
        return float(seconds)

    def judge_inproc(self, cases: list[list[str]], results: list[dict], unstable: set, passes: int) -> None:
        for i, (argv, result) in enumerate(zip(cases, results)):
            sha = "unstable" if i in unstable else result["sha256"]
            for _ in range(passes):
                self.judge("inproc", argv, result["code"], sha, None)

    def kernels(self, seed: int) -> dict:
        run = run_child([sys.executable, str(HERE / "kernels.py"), str(seed)], self.env)
        if run["code"] != 0:
            raise BenchError(f"kernel timings failed: {run['err'].decode(errors='replace')[-2000:]}")
        return json.loads(run["out"])


def pass_estimate(passes: list[list[float]], scales: list[list[float]] | None = None) -> float:
    """One pass over the grid: the sum over cases of each case's median time,
    each time multiplied by its host scale when `scales` is given.

    The scale undoes the host's slow mode where a case met it; the median
    shrugs off the cases that met a change of mode mid-way.  The run also
    reports the median pass, with its tail, in its details.
    """
    if scales is not None:
        passes = [[t * f for t, f in zip(p, s)] for p, s in zip(passes, scales)]
    return sum(statistics.median(times) for times in zip(*passes))


class Worker:
    """The warm interpreter of inproc.py, driven one request at a time."""

    def __init__(self, env: dict, cases: list[list[str]]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "inproc.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.killer = threading.Timer(RUN_TIMEOUT_S, self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        self.results = self.request(json.dumps(cases))["results"]

    def request(self, line: str) -> dict:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"in-process runner failed: {self.close()}")
        return json.loads(reply)

    def close(self) -> str:
        """Stop the worker and wait for it; returns the tail of its stderr."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        err = self.proc.stderr.read()
        self.proc.wait()
        self.killer.cancel()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return err[-2000:]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics summed over the traced cases (largest_cells: the max)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    incl: Counter = Counter()
    counters: Counter = Counter()
    largest = 0
    for t in traces:
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        incl.update(t["inclusive_s"])
        largest = max(largest, t["counters"].get("largest_cells", 0))
        counters.update({k: v for k, v in t["counters"].items() if k != "largest_cells"})

    def c(*keys: str) -> int:
        return sum(calls[k] for k in keys)

    count, secs = "count", "s"
    m = {
        "cyclotomic.mul_calls": (c("cyclotomic.CycNum.__mul__", "cyclotomic.CycNum.__rmul__"), count),
        "cyclotomic.add_calls": (
            c(*(f"cyclotomic.CycNum.{op}" for op in ("__add__", "__radd__", "__sub__", "__rsub__"))),
            count,
        ),
        "cyclotomic.new_calls": (c("cyclotomic.CycNum.__init__"), count),
        "category.morphisms_built": (c("category.GradedMorphism.__init__"), count),
        "category.compose_calls": (c("category.compose"), count),
        "category.tensor_calls": (c("category.tensor_morphisms"), count),
        "category.cells_built": (counters["cells_built"], count),
        "category.cells_nonzero": (counters["cells_nonzero"], count),
        "category.nnz_ratio": (ratio(counters["cells_nonzero"], counters["cells_built"]), "ratio"),
        "category.largest_cells": (largest, count),
        "diagrams.evaluate_calls": (c("diagrams.evaluate"), count),
        "diagrams.layers_evaluated": (counters["layers_evaluated"], count),
        "coends.jmath_calls": (c("coends.jmath"), count),
        "coends.jmath_distinct": (counters["jmath_distinct"], count),
        "coends.jmath_reuse_ratio": (ratio(counters["jmath_distinct"], c("coends.jmath")), "ratio"),
        "linalg.rank_calls": (c("linalg.rank_cyc"), count),
        "linalg.rank_cells": (counters["rank_cells"], count),
        "frobenius.axiom_check_s": (incl["frobenius.FrobeniusAlgebraData.__post_init__"], secs),
        "frobenius.nakayama_calls": (c("frobenius.nakayama"), count),
        "rspin.assignments_checked": (counters["assignments_checked"], count),
        "modular.load_s": (incl["modular.load_modular_data"], secs),
        "cli.parse_s": (incl["cli._build_parser"] + incl["cli._Parser.parse_args"], secs),
        "cli.render_s": (incl["cli._emit"] + incl["cli._render"], secs),
    }
    for layer in ("cyclotomic", "category", "diagrams", "coends", "linalg", "frobenius", "spaces", "centre", "rspin"):
        m[f"{layer}.self_s"] = (self_s[layer], secs)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run: (details, result line)."""
    meta = metadata(seed)
    bench = Bench(load_golden())
    cases = build_cases(workload, seed)
    probes = build_probes(workload, seed)
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "meta": meta}
    if trace:
        untraced = bench.cold_pass(cases + probes)
        traced = bench.cold_pass(cases + probes, traced=True)
        untraced_s = sum(r["cpu"] for r in untraced)
        traced_s = sum(r["cpu"] for r in traced)
        metrics = layer_metrics([r["trace"] for r in traced])
        metrics["cli.stdout_bytes"] = {"value": sum(r["bytes"] for r in traced), "unit": "B"}
        metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        metrics.update(bench.kernels(seed))
        details["grid_s"] = {"untraced": untraced_s, "traced": traced_s}
        details["cases"] = [
            {"id": case_id(argv), "cpu_s": r["cpu"], "self_s": r["trace"]["self_s"]}
            for argv, r in zip(cases + probes, traced)
        ]
    else:
        bench.setup_time()  # fills the bytecode cache where one is written
        memory = bench.cold_pass(probes)
        setup: list[float] = []
        passes = []
        inproc: list[list[float]] = []
        inproc_scale: list[list[float]] = []
        warm_reference: list[float] = []
        unstable: set[int] = set()
        cold_s, warm_s, once_s = NOMINAL_S[workload]
        n = max(MIN_PASSES, int((seconds - once_s) / (cold_s + warm_s)))
        deadline = time.perf_counter() + OVERRUN * seconds
        worker = Worker(bench.env, cases)
        try:
            for i in range(n):
                if i >= MIN_PASSES and time.perf_counter() > deadline:
                    break
                passes.append(bench.cold_pass(cases, setup=setup))
                reply = worker.request("1")
                inproc += reply["case_s"]
                inproc_scale += reply["scale"]
                warm_reference += reply["reference_s"]
                unstable = set(reply["unstable"])
        finally:
            worker.close()
        bench.judge_inproc(cases, worker.results, unstable, len(inproc) + 1)
        cold = [[r["cpu"] for r in runs] for runs in passes]
        cold_scale = [[r["scale"] for r in runs] for runs in passes]
        peak_kb = max(r["maxrss_kb"] for runs in passes + [memory] for r in runs)
        metrics = {
            "grid_s": {"value": pass_estimate(cold, cold_scale), "unit": "s"},
            "inproc_grid_s": {"value": pass_estimate(inproc, inproc_scale), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(t * f for t, f in setup), "unit": "s"},
        }
        details.update(
            passes={"planned": n, "made": len(passes)},
            unscaled_s={
                "grid_s": pass_estimate(cold),
                "inproc_grid_s": pass_estimate(inproc),
                "setup_s": statistics.median(t for t, _ in setup),
            },
            reference_s={"cold": summary(bench.reference), "warm": summary(warm_reference)},
            setup_s=summary([t for t, _ in setup]),
            grid_pass_s=summary([sum(p) for p in cold]),
            case_s=summary([t for p in cold for t in p]),
            inproc_pass_s=summary([sum(p) for p in inproc]),
            cases=[
                {
                    "id": case_id(argv),
                    "cold_s": [p[i] for p in cold],
                    "cold_scale": [p[i] for p in cold_scale],
                    "inproc_s": [p[i] for p in inproc],
                    "inproc_scale": [p[i] for p in inproc_scale],
                    "maxrss_mb": max(runs[i]["maxrss_kb"] for runs in passes) / 1024,
                    "bytes": passes[0][i]["bytes"],
                }
                for i, argv in enumerate(cases)
            ],
            probes=[
                {"id": case_id(argv), "cpu_s": r["cpu"], "maxrss_mb": r["maxrss_kb"] / 1024}
                for argv, r in zip(probes, memory)
            ],
        )
    meta["loadavg_after"] = list(os.getloadavg())
    details["fail_ratio"] = {
        "value": bench.failed / bench.attempted,
        "failed": bench.failed,
        "attempted": bench.attempted,
        "base": "case executions: every fresh-process, in-process and traced run of a case",
    }
    details["golden"] = {
        "distinct_outputs_compared": bench.golden_compared,
        "mismatched": bench.golden_mismatched,
    }
    details["failures"] = [
        {"phase": phase, "case": cid, "problems": problems, "executions": n}
        for (phase, cid, problems), n in sorted(bench.failures.items())
    ]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return details, result


def golden(mode: str) -> int:
    """Check or rewrite golden.json from one default-seed pass of every workload."""
    bench = Bench({} if mode == "write" else load_golden())
    digests = {}
    for workload in WORKLOADS:
        cases = build_cases(workload, DEFAULT_SEED) + build_probes(workload, DEFAULT_SEED)
        for argv, run in zip(cases, bench.cold_pass(cases)):
            digests[case_id(argv)] = run["sha256"]
    report = {
        "mode": mode,
        "cases": len(digests),
        "failed": bench.failed,
        "golden_mismatched": bench.golden_mismatched,
        "failures": [f"{cid}: {problems}" for (_, cid, problems) in sorted(bench.failures)],
    }
    if mode == "check":
        missing = sorted(set(digests) - set(bench.golden))
        report["missing_from_golden"] = missing
        print(json.dumps(report, indent=2))
        return 0 if bench.failed == 0 and not missing else 1
    if bench.failed:
        print(json.dumps(report, indent=2))
        print("golden.json not written: some outputs fail their checks", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", choices=("check", "write"))
    args = parser.parse_args(argv)
    if args.golden is None and args.workload is None:
        parser.error("need --workload or --golden")
    if not (ROOT / "src" / "stringnet" / "cli.py").is_file():
        print(f"perfbench: no stringnet sources under {ROOT / 'src'}; run it in a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # checks.py writes roots of unity with zeta_power
    try:
        if args.golden:
            return golden(args.golden)
        details, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

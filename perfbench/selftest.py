"""Tests of the benchmark's own code.

    python3 perfbench/selftest.py

Named so that a plain `pytest` run of the repository does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cases import WORKLOADS, build_cases, build_probes, case_id  # noqa: E402
from checks import check_output, load_golden  # noqa: E402
from reference import REFERENCE_S, Bracket  # noqa: E402
from run import pass_estimate, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def case_size(argv: list[str]) -> tuple:
    """The cost-determining part of a case: its command and its size flags."""
    flags = dict(zip(argv[1::2], argv[2::2])) if "--json-schema" not in argv else {}
    return (argv[0], "--json-schema" in argv, flags.get("--r"), flags.get("--genus"), flags.get("--data"))


def cli_stdout(argv: list[str]) -> bytes:
    from stringnet.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue().encode()


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        """root(x) 0..20 opens a(y) 2..7, which opens b(x) 3..5, and c(y) 10..11."""
        now = [0]
        tracer = Tracer(clock=lambda: now[0])

        def advance(dt):
            now[0] += dt

        def b():
            advance(2)

        def a():
            advance(1)
            wb()
            advance(2)

        def c():
            advance(1)

        def root():
            advance(2)
            wa()
            advance(3)
            wc()
            advance(9)

        wb = tracer.wrap("x", "x.b", b)
        wa = tracer.wrap("y", "y.a", a)
        wc = tracer.wrap("y", "y.c", c)
        wroot = tracer.wrap("x", "x.root", root)
        wroot()
        totals = tracer.totals()
        self.assertEqual(now[0], 20)
        # x: root 20 - (a 5 + c 1) = 14, plus b 2; y: a 5 - b 2 = 3, plus c 1.
        self.assertEqual(totals["self_s"], {"x": 16, "y": 4})
        self.assertEqual(sum(totals["self_s"].values()), 20)
        self.assertEqual(totals["calls"], {"x.b": 1, "y.a": 1, "y.c": 1, "x.root": 1})
        self.assertEqual(tracer.stack, [])

    def test_exception_closes_span(self):
        now = [0]
        tracer = Tracer(clock=lambda: now[0])

        def boom():
            now[0] += 4
            raise ValueError("boom")

        wboom = tracer.wrap("x", "x.boom", boom)
        with self.assertRaises(ValueError):
            wboom()
        self.assertEqual(tracer.totals()["self_s"], {"x": 4})
        self.assertEqual(tracer.stack, [])


class Checker(unittest.TestCase):
    def test_bp_operator_entry_changed(self):
        argv = ["bp-operator", "--r", "3", "--genus", "1", "--orientation", "clockwise"]
        out = cli_stdout(argv)
        self.assertEqual(check_output(argv, 0, out, ROOT), [])
        payload = json.loads(out)
        for i, j in ((0, 0), (2, 5)):
            bad = json.loads(out)
            entry = bad["matrix"][i][j]
            entry["coeffs"][1] = "1/2" if entry["coeffs"][1] != "1/2" else "1/3"
            problems = check_output(argv, 0, json.dumps(bad).encode(), ROOT)
            self.assertTrue(any(f"matrix[{i}][{j}]" in p for p in problems), problems)
        payload["rank"] -= 1
        self.assertTrue(check_output(argv, 0, json.dumps(payload).encode(), ROOT))

    def test_other_commands_rejected(self):
        cases = [
            (["frobenius-check", "--r", "4"], lambda p: p["nakayama_diagonal"][1]["coeffs"].reverse()),
            (["sigma-f", "--r", "2", "--genus", "1", "--indices", "1,0"], lambda p: p["vector"]["coords"].pop()),
            (["torus-basis", "--r", "2"], lambda p: p.update(rank=3)),
            (["rspin-enumerate", "--r", "2", "--genus", "1"], lambda p: p["markings"].pop()),
            (["annulus", "--r", "3", "--a", "1", "--b", "2"], lambda p: p.update(dim=3)),
        ]
        for argv, spoil in cases:
            out = cli_stdout(argv)
            self.assertEqual(check_output(argv, 0, out, ROOT), [], argv)
            payload = json.loads(out)
            spoil(payload)
            self.assertTrue(check_output(argv, 0, json.dumps(payload).encode(), ROOT), argv)

    def test_exit_code_and_bad_json(self):
        argv = ["sn-dim", "--r", "2", "--genus", "1"]
        self.assertEqual(check_output(argv, 1, b"{}", ROOT), ["exit code 1"])
        self.assertEqual(check_output(argv, 0, b"not json", ROOT), ["stdout is not JSON"])


class Seeds(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for workload in WORKLOADS:
            self.assertEqual(build_cases(workload, 7), build_cases(workload, 7))
            self.assertEqual(build_probes(workload, 7), build_probes(workload, 7))

    def test_other_seed_changes_inputs_not_sizes(self):
        for workload in WORKLOADS:
            a, b = build_cases(workload, 1), build_cases(workload, 2)
            self.assertNotEqual(sorted(a), sorted(b), workload)
            self.assertEqual(sorted(map(case_size, a)), sorted(map(case_size, b)), workload)
            a, b = build_probes(workload, 1), build_probes(workload, 2)
            self.assertEqual(list(map(case_size, a)), list(map(case_size, b)), workload)

    def test_golden_covers_default_seed(self):
        golden = load_golden()
        for workload in WORKLOADS:
            for argv in build_cases(workload, 0) + build_probes(workload, 0):
                self.assertIn(case_id(argv), golden)


class Tail(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tail([1.0] * 19))
        self.assertEqual(tail(list(range(1, 21))), {"p": 50, "value": 10})
        self.assertEqual(tail(list(range(1, 101)))["p"], 90)


class HostScale(unittest.TestCase):
    def test_pass_estimate_medians_of_scaled_times(self):
        passes = [[1.0, 2.0], [3.0, 2.0], [2.0, 9.0]]
        self.assertEqual(pass_estimate(passes), 2.0 + 2.0)
        scales = [[1.0, 1.0], [0.5, 1.0], [1.0, 0.25]]
        # scaled: [1, 2], [1.5, 2], [2, 2.25] -> medians 1.5 and 2
        self.assertEqual(pass_estimate(passes, scales), 1.5 + 2.0)

    def test_bracket_uses_the_mean_of_its_two_reference_timings(self):
        bracket = Bracket()
        bracket.samples = [0.01]
        bracket.timer = lambda: 0.03
        self.assertAlmostEqual(bracket.scale(), REFERENCE_S / 0.02)
        self.assertEqual(bracket.samples, [0.01, 0.03])


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark on tiny grids (about a minute on 2 cores).

    python3 perfbench/test_bench.py

Run from the repository root.  It runs every workload's ops once at
workloads.TINY sizes, untraced and traced, and checks that every metric of
BENCHMARK.json is emitted with its unit, that an op forced to fail is
counted, that the report checks catch what they should, and that the
runner refuses a directory without the program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import workloads
from run import WORK_DIR, Runner

ROOT = Path.cwd().resolve()


def run_tiny(name, trace, extra_ops=()):
    runner = Runner(ROOT, name, 7, 0, trace, sizes=workloads.TINY, extra_ops=extra_ops)
    return runner, runner.run()


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, workloads.spec())


class WorkloadTest(unittest.TestCase):
    def assert_metrics(self, result, expected):
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for n, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), n)
            self.assertTrue(math.isfinite(m["value"]), n)

    def test_every_workload_untraced_and_traced(self):
        e2e = {n: u for n, u, _, _ in workloads.END_TO_END}
        layers = {n: u for n, u, _ in workloads.per_layer_metrics()}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runner, result = run_tiny(name, False)
                problems = [p for r in runner.results for p in r.problems]
                self.assertEqual(problems, [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, e2e)
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)

                runner, result = run_tiny(name, True)
                self.assertTrue(result["correct"])
                self.assertTrue(any(r.traced for r in runner.results))
                self.assertTrue(any(not r.traced for r in runner.results))
                self.assert_metrics(result, layers)
                values = {n: m["value"] for n, m in result["metrics"].items()}
                self.assertGreater(values["trace.spans"], 0)
                self.assertGreater(values["cli.import_s"], 0)
                self.assertGreater(values["cli.self_s"], 0)

    def test_traced_layers_see_their_calls(self):
        _, result = run_tiny("carleson_csv", True)
        values = {n: m["value"] for n, m in result["metrics"].items()}
        self.assertEqual(values["duality.carleson_norm.calls"], 2)
        self.assertGreater(values["geometry.cutoff_m.calls"], 0)
        self.assertGreater(values["grid.read_grid_function.bytes"], 0)
        self.assertEqual(values["whitney.whitney_cubes.calls"], 0)

    def test_forced_failure_is_counted(self):
        bad = workloads.Op("norm.missing", "norm",
                           ("norm", "--input", str(ROOT / WORK_DIR / "missing.gtnt")))
        runner, result = run_tiny("aperture_sweep", False, extra_ops=(bad,))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 2)
        self.assertEqual([r.label for r in runner.results if not r.ok], ["norm.missing"])


class CheckTest(unittest.TestCase):
    def test_reference_match(self):
        ref = {"n_atoms": 3, "ratio": 1.5, "p": math.inf, "residual_mass": 0.0,
               "audit": {"k_range": [-2, 1], "max_rel_err": 1e-16}}
        same = {"n_atoms": 3, "ratio": 1.5 * (1 + 1e-14), "p": math.inf,
                "residual_mass": 1e-3,
                "audit": {"k_range": [-2, 1], "max_rel_err": 5e-15}}
        self.assertEqual(checks.mismatches(ref, same), [])
        for changed in ({"n_atoms": 4}, {"ratio": 1.5 * (1 + 1e-10)}, {"p": 2.0},
                        {"audit": {"k_range": [-3, 1], "max_rel_err": 0.0}}):
            self.assertNotEqual(checks.mismatches(ref, {**same, **changed}), [])

    def test_flags(self, tmp=ROOT / WORK_DIR / "flags"):
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            self.assertEqual(checks.flag_problems("verify", {"all_ok": True}, tmp), [])
            self.assertNotEqual(checks.flag_problems("verify", {"all_ok": False}, tmp), [])
            self.assertNotEqual(checks.flag_problems("norm", {"norm": 0.0}, tmp), [])
            self.assertNotEqual(checks.flag_problems(
                "carleson", {"norm": 1.0, "pairing": {"C_emp": "inf"}}, tmp), [])
            self.assertNotEqual(checks.flag_problems(
                "decompose", {"residual_mass": 0.0, "ratio": 1.0, "source_norm": 1.0,
                              "n_atoms": 0, "audit": {"nesting_ok": False}}, tmp), [])
        finally:
            shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = ROOT / WORK_DIR / "bare"
        here = Path(__file__).resolve().parent
        try:
            shutil.copytree(here, bare / here.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{here.name}/run.py", "--workload", "aperture_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""The benchmark's own test: smoke runs of every workload and mode, the
result-line contract, the unlike-host refusal, and the failure exit in a
directory that holds only the benchmark.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.splitlines()
        host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
        self.assertEqual(set(host), {"cores", "kernels", "compiler", "build_type"})
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(list(result["metrics"]), [spec["name"] for spec in specs])
        for spec in specs:
            self.assertEqual(result["metrics"][spec["name"]]["unit"], spec["unit"])
        return result["metrics"]

    def test_every_workload_and_mode(self):
        for workload in [entry["name"] for entry in BENCH["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.check_run(workload, trace)
                    if trace:
                        self.assertAlmostEqual(metrics["ledger.stage_sum_share"]["value"], 1.0,
                                               delta=0.05)
                    else:
                        self.assertEqual(metrics["ok_share"]["value"], 1.0)

    def test_same_seed_same_inputs(self):
        first = self.check_run("small-mixed", 0)
        second = self.check_run("small-mixed", 0)
        self.assertEqual(first["exact_share"], second["exact_share"])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         ["mn-paper", "small-mixed", "adaptive-rounds"])
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_fails_without_the_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "mn-paper", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)

    def test_compare_refuses_unlike_hosts(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
            for side, cores in (("base", 4), ("new", 8)):
                os.makedirs(os.path.join(scratch, side))
                record = {"workload": "mn-paper", "seed": 1, "trace": 0,
                          "host": {"cores": cores, "kernels": "avx2",
                                   "compiler": "GNU-12", "build_type": "Release"},
                          "result": {"metrics": {"jobs_per_s": {"value": 10.0, "unit": "1/s"}}}}
                with open(os.path.join(scratch, side, "run.json"), "w") as handle:
                    json.dump(record, handle)
            done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), "diff",
                                   os.path.join(scratch, "base"), os.path.join(scratch, "new")],
                                  capture_output=True, text=True)
            self.assertEqual(done.returncode, 2)
            self.assertIn("unlike hosts", done.stderr)


if __name__ == "__main__":
    unittest.main()

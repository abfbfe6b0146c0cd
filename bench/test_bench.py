"""Tests of the benchmark itself, at smoke sizes.

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "1", "--smoke", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result(*args: str) -> tuple[dict, dict]:
    """The run record and the result line."""
    done = bench(*args)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    record, last = done.stdout.splitlines()[-2:]
    return json.loads(record)["run"], json.loads(last)


class DeclaredMetrics(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_valid_and_unique(self) -> None:
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_per_layer_declarations_match_the_tracer(self) -> None:
        declared = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(declared, layers.per_layer_metrics())

    def test_workloads_match(self) -> None:
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), workloads.WORKLOADS)


class Gate(unittest.TestCase):
    def test_formula_gives_the_spot_values(self) -> None:
        for d, value in workloads.SPOT_VALUES.items():
            self.assertEqual(workloads.expected_degree(d), value)
            self.assertIsNone(workloads.check(["secant3_degree", d, "cofactor"], value))
            self.assertIsNotNone(workloads.check(["secant3_degree", d, "cofactor"], value + 1))

    def test_verify_needs_every_check_passed(self) -> None:
        op = ["cli", "verify", "--d-min", "8", "--d-max", "9", "--format", "json"]
        checks = [{"name": "a", "passed": True}]
        report = {"d_min": 8, "d_max": 9, "passed": True, "checks": checks}
        self.assertIsNone(workloads.check(op, (0, json.dumps(report))))
        report["checks"].append({"name": "b", "passed": False})
        self.assertIsNotNone(workloads.check(op, (0, json.dumps(report))))
        self.assertIsNotNone(workloads.check(op, (2, "")))

    def test_inputs_follow_the_seed(self) -> None:
        methods = ["cofactor", "recurrence", "closed-form"]
        for workload in workloads.WORKLOADS:
            self.assertEqual(
                workloads.build(workload, 7, methods), workloads.build(workload, 7, methods)
            )
        self.assertEqual(len(workloads.build("sweep", 7, methods)), 53 * 3)


class Runs(unittest.TestCase):
    def test_smoke_runs_emit_exactly_the_declared_metrics(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in workloads.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, out = result("--workload", workload, "--seed", "3", "--trace", trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(set(out["metrics"]), {m["name"] for m in spec[key]})
                    for name, metric in out["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == "1":
                        self.assertGreater(out["metrics"]["trace_overhead"]["value"], 0)
                        self.assertGreater(out["metrics"]["ring.ambient_mul.calls"]["value"], 0)

    def test_wrong_degree_is_counted_as_failed(self) -> None:
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                args = ("--workload", workload, "--seed", "3", "--inject-wrong-degree")
                record, out = result(*args)
                self.assertFalse(out["correct"])
                self.assertGreater(record["failed_ratio"], 0)
                self.assertEqual(record["failed_ratio"], out["failed"] / out["attempted"])

    def test_refuses_without_the_engine_sources(self) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copytree(
                BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__")
            )
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = bench("--workload", "sweep", "--seed", "1", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()

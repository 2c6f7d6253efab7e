"""Tiny-size self-test of the benchmark (about a minute on two cores).

Runs each workload at a tiny size, untraced and traced, and checks that every
metric named in BENCHMARK.json is emitted with its unit and that the outputs
pass the correctness gate. Then forces a correctness failure (the oracle
checked against a wrong Y0) and checks that it lands in ``failed`` and that
no sample of that run is timed.

Usage (from the repository root):
    python3 benchmark/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SIZES = {
    "oracle": {"sampling.paths": 2000, "grid.steps": 10},
    "pathdep": {"sampling.paths": 2000, "grid.steps": 10},
    "tree": {"grid.steps": 4},
}
TINY = {
    name: replace(w, configs=tuple(replace(c, overrides=TINY_SIZES[name])
                                   for c in w.configs))
    for name, w in run.WORKLOADS.items()
}


class BenchmarkSelfTest(unittest.TestCase):

    def setUp(self):
        build = run.ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=build))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, workload, trace):
        return run.run_workload(workload, seed=7, seconds=0.1, trace=trace,
                                work=self.work)

    def test_workload_names_match(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for name, workload in TINY.items():
                with self.subTest(workload=name, trace=trace):
                    res = self._run(workload, trace)
                    self.assertTrue(res.correct, res.lines)
                    self.assertEqual(res.failed, 0, res.lines)
                    self.assertGreaterEqual(res.attempted, 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res.metrics.items()},
                        expected)
                    for metric, entry in res.metrics.items():
                        self.assertTrue(math.isfinite(entry["value"]), metric)

    def test_forced_failure_lands_in_failed_share(self):
        wrong = replace(TINY["oracle"], checks=run.oracle_checks(y0=0.25))
        res = self._run(wrong, trace=False)
        self.assertFalse(res.correct)
        self.assertGreaterEqual(res.failed, 2)  # one per sample
        self.assertEqual(res.timed_samples, 0)
        self.assertLess(res.metrics["ok_share"]["value"], 1.0)
        for name in ("wall_s", "run_s"):
            self.assertNotIn(name, res.metrics)
        self.assertTrue(any("oracle Y0" in line for line in res.lines))


if __name__ == "__main__":
    unittest.main()

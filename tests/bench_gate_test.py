#!/usr/bin/env python3
"""Pins the verdict of the paired perf gate (bench/check_bench_trajectory.py).

Each case writes small google-benchmark JSON files for a parent and a
change side into a temp dir, folds them the way the gate does, and
checks the verdict.  No bench binary runs.

Usage: python3 tests/bench_gate_test.py
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_GATE = Path(__file__).resolve().parent.parent / "bench" / \
    "check_bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("check_bench_trajectory", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

PARENT = {
    "scale/n=1000/heft-oneport/gap-indexed": 1.0,
    "routed/ring/n=1000/heft-oneport/gap-indexed": 3.0,
    "validate/one-port/n=10000/heft": 2.5,
    "service/throughput": 14.0,
}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, label, times, unit="ms", extra_rows=()):
        """One google-benchmark JSON file with a row per name."""
        rows = [{"name": name, "run_type": "iteration", "real_time": t,
                 "time_unit": unit} for name, t in times.items()]
        path = self.dir / f"{label}.json"
        path.write_text(json.dumps({"context": {},
                                    "benchmarks": rows + list(extra_rows)}))
        return path

    def fold(self, *paths):
        rows = gate.fastest_rows(json.loads(p.read_text()) for p in paths)
        return {name: gate.entry_ns(row) for name, row in rows.items()}

    def judge(self, change_ms):
        return gate.verdict(self.fold(self.write("parent", PARENT)),
                            self.fold(self.write("change", change_ms)))

    def test_identical_sides_pass(self):
        v = self.judge(PARENT)
        self.assertTrue(v.ok)
        self.assertEqual(v.regressed, [])
        self.assertEqual(v.missing, [])
        self.assertEqual(v.new, [])

    def test_global_2x_slowdown_fails(self):
        v = self.judge({name: 2.0 * t for name, t in PARENT.items()})
        self.assertFalse(v.ok)
        self.assertEqual(sorted(v.regressed), sorted(PARENT))

    def test_one_bench_1_3x_fails(self):
        slow = dict(PARENT)
        slow["validate/one-port/n=10000/heft"] *= 1.3
        v = self.judge(slow)
        self.assertFalse(v.ok)
        self.assertEqual(v.regressed, ["validate/one-port/n=10000/heft"])

    def test_parent_name_missing_from_change_fails(self):
        change = dict(PARENT)
        del change["service/throughput"]
        v = self.judge(change)
        self.assertFalse(v.ok)
        self.assertEqual(v.regressed, [])
        self.assertEqual(v.missing, ["service/throughput"])

    def test_name_only_in_change_passes_and_is_reported(self):
        change = dict(PARENT, **{"exact/lb-quality/anytime/forkjoin60": 9.4})
        v = self.judge(change)
        self.assertTrue(v.ok)
        self.assertEqual(v.new, ["exact/lb-quality/anytime/forkjoin60"])

    def test_fold_keeps_fastest_gated_plain_row(self):
        name = "scale/n=1000/heft-oneport/gap-indexed"
        aggregate = {"name": name + "_mean", "run_type": "aggregate",
                     "real_time": 0.001, "time_unit": "ms"}
        ungated = {"name": "sweep/serial", "run_type": "iteration",
                   "real_time": 5.0, "time_unit": "ms"}
        slow = self.write("slow", {name: 1.5})
        fast = self.write("fast", {name: 900.0}, "us", [aggregate, ungated])
        self.assertEqual(self.fold(slow, fast), {name: 900.0e3})


if __name__ == "__main__":
    unittest.main()

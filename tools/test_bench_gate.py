#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py: small JSON artifacts in a temp dir,
checked by the script's exit code (0 = pass, 1 = a check failed).

    python3 tools/test_bench_gate.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")


def row(phase, instance, value=1.0, speedup="-", identical="-"):
    return {"experiment": "test", "phase": phase, "instance": instance,
            "threads": 1, "ms_per_op": value,
            "ops_per_sec": 1000.0 / value if value > 0 else 0.0,
            "speedup": speedup, "identical": identical}


def value_row(phase, instance, value, identical="yes"):
    """A row as bench_common.h's value_row writes it: no throughput."""
    return dict(row(phase, instance, value, identical=identical),
                ops_per_sec="-")


def work_rows(lane_reads=795200.0):
    return [value_row("route_work", "g/rounds", 800.0),
            value_row("route_work", "g/lane_reads", lane_reads)]


def warm_work_rows(cold=44.0, warm=35.0):
    return [value_row("warm_work", "g/cold_rounds", cold),
            value_row("warm_work", "g/warm_rounds", warm)]


class BenchGateTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def gate(self, fresh, baseline=None, *flags):
        def write(name, rows):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(rows, f)
            return path

        cmd = [sys.executable, GATE, "--fresh", write("fresh.json", fresh)]
        if baseline is not None:
            cmd += ["--baseline", write("baseline.json", baseline)]
        cmd += list(flags)
        return subprocess.run(cmd, capture_output=True, text=True).returncode

    def test_value_row_equal_to_baseline_passes(self):
        self.assertEqual(self.gate(work_rows(), work_rows(),
                                   "--mem-flat", "route_work:1.0"), 0)

    def test_value_row_raised_by_one_fails(self):
        self.assertEqual(self.gate(work_rows(795201.0), work_rows(),
                                   "--mem-flat", "route_work:1.0"), 1)

    def test_value_row_missing_from_fresh_fails(self):
        self.assertEqual(self.gate(work_rows()[:1], work_rows(),
                                   "--mem-flat", "route_work:1.0"), 1)

    def test_value_row_missing_from_baseline_fails(self):
        self.assertEqual(self.gate(work_rows(), work_rows()[:1],
                                   "--mem-flat", "route_work:1.0"), 1)

    def test_round_total_raised_by_one_fails(self):
        flags = ("--mem-flat", "warm_work:1.0")
        self.assertEqual(self.gate(warm_work_rows(), warm_work_rows(),
                                   *flags), 0)
        self.assertEqual(self.gate(warm_work_rows(cold=45.0),
                                   warm_work_rows(), *flags), 1)
        self.assertEqual(self.gate(warm_work_rows(warm=36.0),
                                   warm_work_rows(), *flags), 1)

    def test_required_value_rows_skip_the_throughput_check(self):
        self.assertEqual(self.gate(work_rows(), None,
                                   "--require-phase", "route_work"), 0)
        # Presence and the identity check are still required.
        self.assertEqual(self.gate(work_rows(), None,
                                   "--require-phase", "warm_work"), 1)
        unchecked = [value_row("route_work", "g/rounds", 800.0,
                               identical="-")]
        self.assertEqual(self.gate(unchecked, None,
                                   "--require-phase", "route_work"), 1)

    def test_required_timed_row_with_zero_throughput_fails(self):
        self.assertEqual(self.gate([row("route_batch", "g", 0.0,
                                        identical="yes")],
                                   None, "--require-phase", "route_batch"), 1)

    def test_any_identical_no_row_fails(self):
        fresh = [row("route", "g"), row("build", "g", identical="no")]
        self.assertEqual(self.gate(fresh), 1)

    def test_required_phase_without_identity_check_fails(self):
        self.assertEqual(self.gate([row("route_batch", "g", identical="yes")],
                                   None, "--require-phase", "route_batch"), 0)
        self.assertEqual(self.gate([row("route_batch", "g", identical="-")],
                                   None, "--require-phase", "route_batch"), 1)

    def test_speedup_below_tolerance_band_fails(self):
        baseline = [row("warm_rounds", "g", speedup=2.5, identical="yes")]
        at_floor = [row("warm_rounds", "g", speedup=2.0, identical="yes")]
        below = [row("warm_rounds", "g", speedup=1.99, identical="yes")]
        self.assertEqual(self.gate(at_floor, baseline), 0)
        self.assertEqual(self.gate(below, baseline), 1)


if __name__ == "__main__":
    unittest.main()

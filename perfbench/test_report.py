"""Self-tests of the benchmark's percentile, aggregation, self-time and
result-line code.

    python3 perfbench/test_report.py
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402


def raw_run(**overrides):
    raw = {
        "setup_s": [0.5, 0.1, 0.3],
        "epoch_ms": [4.0, 1.0, 3.0, 2.0, 5.0],
        "demands_per_epoch": 8,
        "timed_wall_s": 2.0,
        "congestion": [1.0, 2.0],
        "ratio": [1.5, 2.5],
        "makespan": [10, 13],
        "attempted": 10,
        "failed": 1,
        "peak_rss_mb": 12.25,
    }
    raw.update(overrides)
    return raw


class Percentile(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        self.assertEqual(report.percentile(xs, 0.0), 10.0)
        self.assertEqual(report.percentile(xs, 1.0), 40.0)
        self.assertAlmostEqual(report.percentile(xs, 0.5), 25.0)
        self.assertAlmostEqual(report.percentile(xs, 0.9), 37.0)

    def test_median_matches_statistics(self):
        for xs in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0, 9.5]):
            self.assertEqual(report.percentile(xs, 0.5), statistics.median(xs))

    def test_is_order_independent_and_rejects_bad_input(self):
        self.assertEqual(report.percentile([3.0, 1.0, 2.0], 0.9),
                         report.percentile([1.0, 2.0, 3.0], 0.9))
        with self.assertRaises(ValueError):
            report.percentile([], 0.5)
        with self.assertRaises(ValueError):
            report.percentile([1.0], 1.5)


class Aggregation(unittest.TestCase):
    def test_end_to_end(self):
        m = report.end_to_end(raw_run())
        self.assertEqual(set(m), {name for name, _ in report.END_TO_END})
        self.assertEqual(m["setup_s"], 0.3)
        self.assertEqual(m["epoch_ms_p50"], 3.0)
        self.assertAlmostEqual(m["epoch_ms_p90"], 4.6)
        self.assertEqual(m["demands_per_s"], 5 * 8 / 2.0)
        self.assertEqual(m["congestion_mean"], 1.5)
        self.assertEqual(m["ratio_mean"], 2.0)
        self.assertEqual(m["makespan_mean"], 11.5)
        self.assertEqual(m["success_frac"], 0.9)
        self.assertEqual(m["peak_rss_mb"], 12.25)

    def test_a_run_without_samples_still_reports(self):
        m = report.end_to_end(raw_run(epoch_ms=[], congestion=[], ratio=[], makespan=[],
                                      failed=10))
        self.assertEqual(m["epoch_ms_p50"], 0.0)
        self.assertEqual(m["demands_per_s"], 0.0)
        self.assertEqual(m["congestion_mean"], 0.0)
        self.assertEqual(m["success_frac"], 0.0)

    def test_per_layer_adds_tracing_overhead(self):
        layers = {name: 1.0 for name, _ in report.PER_LAYER
                  if name != "trace.overhead_share"}
        m = report.per_layer(raw_run(layers=layers, traced_epoch_ms=[3.3, 3.3, 3.3]))
        self.assertEqual(set(m), {name for name, _ in report.PER_LAYER})
        self.assertAlmostEqual(m["trace.overhead_share"], 0.1)


class SelfTimes(unittest.TestCase):
    def test_nested_spans_subtract_children_on_the_same_thread(self):
        def span(name, ts, dur, tid=0, cat="perfbench"):
            return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "tid": tid}
        events = [
            span("epoch", 0, 1000),
            span("lp.restricted", 100, 600),
            span("graph.lower_bound", 700, 200),
            span("epoch", 2000, 500),
            span("lp.restricted", 2000, 500),
            span("lp.restricted", 100, 400, tid=1),  # other thread: no parent
            span("route", 100, 50, cat="engine"),     # other category: ignored
            {"name": "fault", "cat": "perfbench", "ph": "i", "ts": 5},
        ]
        table = report.self_times(events)
        self.assertEqual(set(table), {"epoch", "lp.restricted", "graph.lower_bound"})
        self.assertEqual(table["epoch"]["calls"], 2)
        self.assertAlmostEqual(table["epoch"]["total_ms"], 1.5)
        self.assertAlmostEqual(table["epoch"]["self_ms"], 0.2)
        self.assertAlmostEqual(table["lp.restricted"]["self_ms"], 1.5)
        self.assertAlmostEqual(table["graph.lower_bound"]["self_ms"], 0.2)
        text = report.format_self_times(table)
        self.assertTrue(text.splitlines()[1].startswith("lp.restricted"))


class ResultLine(unittest.TestCase):
    def test_exact_keys_units_and_digits(self):
        units = [("a_ms", "ms"), ("b", "count")]
        line = report.result_line(True, 7, 0, {"a_ms": 1.2345678901234567, "b": 3}, units)
        self.assertNotIn("\n", line)
        parsed = json.loads(line)
        self.assertEqual(list(parsed), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(parsed["correct"], True)
        self.assertEqual(parsed["attempted"], 7)
        self.assertEqual(parsed["metrics"]["a_ms"], {"value": 1.2345678901234567, "unit": "ms"})
        self.assertEqual(parsed["metrics"]["b"], {"value": 3, "unit": "count"})

    def test_rejects_missing_or_non_finite_metrics(self):
        with self.assertRaises(KeyError):
            report.result_line(True, 1, 0, {}, [("a", "ms")])
        with self.assertRaises(ValueError):
            report.result_line(True, 1, 0, {"a": float("nan")}, [("a", "ms")])


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_the_declared_benchmark(self):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         report.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         report.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

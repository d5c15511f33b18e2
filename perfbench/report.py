"""Turns one raw sor_perfbench run into the benchmark's metrics.

Pure functions only (no I/O), so test_report.py can pin the percentile,
aggregation, self-time and result-line code on hand-made inputs.
"""

import json
import math
import statistics

# (name, unit) in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("demands_per_s", "1/s"),
    ("congestion_mean", "ratio"),
    ("ratio_mean", "ratio"),
    ("makespan_mean", "steps"),
    ("success_frac", "share"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("oblivious.build_ms", "ms"),
    ("core.install_ms", "ms"),
    ("core.paths_installed", "count"),
    ("core.arena_ints", "count"),
    ("lp.restricted_ms", "ms"),
    ("lp.restricted_rounds", "count"),
    ("lp.restricted_capped_share", "share"),
    ("graph.lower_bound_ms", "ms"),
    ("lp.optimum_ms", "ms"),
    ("lp.optimum_capped_share", "share"),
    ("lp.optimum_gap", "ratio"),
    ("core.rounding_ms", "ms"),
    ("core.integral_congestion", "ratio"),
    ("sim.ms", "ms"),
    ("sim.packets", "count"),
    ("api.batch_ms", "ms"),
    ("api.batch_efficiency", "share"),
    ("runtime.route_allocs", "count"),
    ("trace.overhead_share", "share"),
]


def percentile(values, q):
    """q-quantile (0 <= q <= 1) with linear interpolation between the
    closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, as {name: value}. A run
    whose every epoch failed has no samples; its metrics read 0 (and its
    success_frac says why)."""
    epochs = raw["epoch_ms"] or [0.0]
    demands = len(raw["epoch_ms"]) * raw["demands_per_epoch"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "epoch_ms_p50": percentile(epochs, 0.5),
        "epoch_ms_p90": percentile(epochs, 0.9),
        "demands_per_s": demands / raw["timed_wall_s"],
        "congestion_mean": _mean(raw["congestion"]),
        "ratio_mean": _mean(raw["ratio"]),
        "makespan_mean": _mean(raw["makespan"]),
        "success_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer metrics of a traced run. trace.overhead_share compares
    the traced epoch's median with the untraced one of the same run."""
    metrics = dict(raw["layers"])
    metrics["trace.overhead_share"] = (
        percentile(raw["traced_epoch_ms"], 0.5) / percentile(raw["epoch_ms"], 0.5)
        - 1.0)
    return metrics


def self_times(trace_events, cat="perfbench"):
    """Per span name: calls, total and self milliseconds, over the complete
    ("X") events of category `cat`. A span's self time is its duration
    minus the part covered by spans nested inside it on the same thread."""
    spans = [e for e in trace_events if e.get("ph") == "X" and e.get("cat") == cat]
    child_us = [0] * len(spans)
    by_tid = {}
    for i, e in enumerate(spans):
        by_tid.setdefault(e.get("tid", 0), []).append(i)
    for ids in by_tid.values():
        ids.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []
        for i in ids:
            start = spans[i]["ts"]
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                child_us[stack[-1]] += spans[i]["dur"]
            stack.append(i)
    table = {}
    for i, e in enumerate(spans):
        row = table.setdefault(e["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += e["dur"] / 1000.0
        row["self_ms"] += max(0, e["dur"] - child_us[i]) / 1000.0
    return table


def format_self_times(table):
    """Fixed-width table, largest self time first, with each row's share of
    the summed self time."""
    total = sum(row["self_ms"] for row in table.values()) or 1.0
    lines = ["%-20s %8s %12s %12s %7s" % ("span", "calls", "total_ms", "self_ms", "self%")]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append("%-20s %8d %12.3f %12.3f %6.1f%%" % (
            name, row["calls"], row["total_ms"], row["self_ms"],
            100.0 * row["self_ms"] / total))
    return "\n".join(lines)


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line: exactly correct/attempted/failed/
    metrics, each metric as {"value", "unit"} with every digit kept."""
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r" % (name, value))
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })

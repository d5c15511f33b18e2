#!/usr/bin/env python3
"""CI perf-regression gate over the bench JSON artifacts.

Parses every artifact format the benches emit into the one canonical row
schema declared in bench/bench_common.h (phase, instance, threads,
ms_per_op, ops_per_sec, speedup, identical):

  * JsonSink arrays (BENCH_m3/m4/m6-m10/f1/t*.json) are already canonical;
  * google-benchmark output (BENCH_m1.json) is normalized: each benchmark
    entry becomes one row with phase = name up to the first '/', instance =
    full name, ms_per_op = real_time in ms.

Checks, in order:

  1. schema: every row parses into the canonical field set;
  2. presence: each --require-phase PHASE has >= 1 row, every such row
     has nonzero ops_per_sec (guards against a bench silently measuring
     nothing; a value row's "-" has no throughput to check), and every
     such row says identical=yes — a required phase whose output
     comparison was skipped ("-") fails, not just one that failed;
  3. identity: no row anywhere may say identical=no — a row's identity
     check (bit-identity, or the claim or contract its bench documents)
     is a correctness gate, never a tolerance;
  4. value rows (bench_common.h's value_row: ms_per_op carries a VALUE
     and ops_per_sec is "-"; bench_m7's memory rows, bench_m4's
     route_work and bench_m9's warm_work counts): --mem-zero PHASE
     requires >= 1 row whose value is exactly 0 with identical=yes (an
     unmeasured contract — identical="-" from a build without
     SOR_ALLOC_STATS — fails, not passes); --mem-flat PHASE[:TOL[:SLACK]]
     requires, against --baseline, that every fresh row of that phase has
     a baseline counterpart and vice versa (two-way, same rename/drop
     discipline as the speedup gate) and that fresh_value <=
     baseline_value * TOL + SLACK. TOL defaults to 1.0 and SLACK to 0:
     exact, for values that are deterministic per seed (arena peaks, work
     counts); pass e.g. 1.10:2.0 for the machine-dependent RSS row (10% +
     2 MB);
  5. regression (only with --baseline): every gated row (numeric speedup)
     must match between fresh and baseline BOTH ways — a baseline row
     with no fresh counterpart (renamed/dropped phase or instance would
     otherwise silently lose its gate) and a fresh gated row with no
     baseline counterpart (new instance: refresh the baseline in the same
     PR) are both failures — and for every matched key the fresh speedup
     must be >= baseline_speedup / tolerance. The speedup column is a
     seed-exact factor or a ratio against an IN-RUN control, so it
     transfers across machines where absolute ms would not. Default
     tolerance 1.25 = the ">25% regression fails" contract. Absolute
     ms_per_op drifts are reported as warnings only.

Refreshing a baseline intentionally (e.g. after a deliberate algorithm
change): re-run the bench with --quick --json and copy the artifact over
bench/baselines/BENCH_*.baseline.json in the same PR that changes the
performance, with a line in the PR description saying why.

Exit code 0 = gate passes, 1 = any check failed, 2 = usage/parse error.
"""

import argparse
import json
import sys

CANONICAL_FIELDS = [
    "phase", "instance", "threads", "ms_per_op", "ops_per_sec", "speedup",
    "identical",
]


def normalize(path):
    """Loads `path` and returns canonical rows (list of dicts)."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and "benchmarks" in data:
        # google-benchmark format (bench_m1).
        rows = []
        for b in data["benchmarks"]:
            name = b.get("name", "")
            ms = float(b.get("real_time", 0.0))
            if b.get("time_unit") == "ns":
                ms /= 1e6
            elif b.get("time_unit") == "us":
                ms /= 1e3
            rows.append({
                "experiment": "m1_substrates",
                "phase": name.split("/")[0],
                "instance": name,
                "threads": 1,
                "ms_per_op": ms,
                "ops_per_sec": 1000.0 / ms if ms > 0 else 0.0,
                "speedup": "-",
                "identical": "-",
            })
        return rows
    if not isinstance(data, list):
        raise ValueError(f"{path}: neither a JsonSink array nor "
                         "google-benchmark output")
    for row in data:
        missing = [f for f in CANONICAL_FIELDS if f not in row]
        if missing:
            raise ValueError(f"{path}: row {row} missing canonical fields "
                             f"{missing} (see bench_common.h)")
    return data


def key(row):
    return (row.get("experiment", ""), row["phase"], row["instance"],
            str(row["threads"]))


def numeric(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="The full bench matrix — what every M*/T* harness measures, "
               "which phases each CI job gates with which flags, and the "
               "baseline-refresh procedure — lives in docs/benchmarks.md.")
    parser.add_argument("--fresh", required=True,
                        help="bench JSON produced by this run")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to gate against")
    parser.add_argument("--require-phase", action="append", default=[],
                        help="phase that must be present with nonzero "
                             "throughput (value rows: '-') and "
                             "identical=yes (repeatable)")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="allowed fresh-vs-baseline speedup shrink "
                             "factor (1.25 = fail on >25%% regression)")
    parser.add_argument("--mem-zero", action="append", default=[],
                        help="memory phase whose every row must carry the "
                             "value 0 with identical=yes (repeatable)")
    parser.add_argument("--mem-flat", action="append", default=[],
                        help="PHASE[:TOL[:SLACK]]: value-row phase (memory "
                             "or work) gated against --baseline as value "
                             "<= baseline * TOL + SLACK (repeatable)")
    args = parser.parse_args()

    mem_flat = []
    for spec in args.mem_flat:
        parts = spec.split(":")
        try:
            phase = parts[0]
            tol = float(parts[1]) if len(parts) > 1 else 1.0
            slack = float(parts[2]) if len(parts) > 2 else 0.0
            if not phase or len(parts) > 3:
                raise ValueError(spec)
        except ValueError:
            print(f"bench_gate: bad --mem-flat spec {spec!r} "
                  "(want PHASE[:TOL[:SLACK]])")
            return 2
        mem_flat.append((phase, tol, slack))
    if mem_flat and not args.baseline:
        print("bench_gate: --mem-flat needs --baseline")
        return 2

    try:
        fresh = normalize(args.fresh)
    except (OSError, ValueError) as e:
        print(f"bench_gate: cannot parse fresh artifact: {e}")
        return 2

    failures = []

    for phase in args.require_phase:
        rows = [r for r in fresh if r["phase"] == phase]
        if not rows:
            failures.append(f"no '{phase}' rows in {args.fresh}")
            continue
        for r in rows:
            throughput = r["ops_per_sec"]  # "-" on a value row: none to check
            if throughput != "-" and not (numeric(throughput) or 0) > 0:
                failures.append(f"zero throughput: {key(r)}")
            if r.get("identical") != "yes":
                failures.append(
                    f"required phase without identity check "
                    f"(identical={r.get('identical')!r}): {key(r)}")

    for r in fresh:
        if r.get("identical") == "no":
            failures.append(f"output mismatch (identical=no): {key(r)}")

    for phase in args.mem_zero:
        rows = [r for r in fresh if r["phase"] == phase]
        if not rows:
            failures.append(f"no '{phase}' rows in {args.fresh}")
            continue
        for r in rows:
            if numeric(r["ms_per_op"]) != 0:
                failures.append(
                    f"steady-state heap allocations "
                    f"(value {r['ms_per_op']}): {key(r)}")
            if r.get("identical") != "yes":
                # "-" means the build could not measure (no SOR_ALLOC_STATS)
                # — an unmeasured zero-alloc contract fails, not passes.
                failures.append(
                    f"memory contract unmeasured or failed "
                    f"(identical={r.get('identical')!r}): {key(r)}")

    if args.baseline:
        try:
            baseline = normalize(args.baseline)
        except (OSError, ValueError) as e:
            print(f"bench_gate: cannot parse baseline: {e}")
            return 2
        base_by_key = {key(r): r for r in baseline}
        fresh_keys = {key(r) for r in fresh}
        # Gated rows must match both ways: a rename/drop on either side
        # would otherwise silently un-gate that row.
        for b in baseline:
            if numeric(b["speedup"]) is not None and key(b) not in fresh_keys:
                failures.append(
                    f"baseline gated row has no fresh counterpart "
                    f"(renamed or dropped?): {key(b)}")
        compared = 0
        for r in fresh:
            b = base_by_key.get(key(r))
            if b is None:
                if numeric(r["speedup"]) is not None:
                    failures.append(
                        f"fresh gated row missing from baseline (new "
                        f"instance? refresh bench/baselines/ in this PR): "
                        f"{key(r)}")
                continue
            fresh_speedup, base_speedup = numeric(r["speedup"]), numeric(
                b["speedup"])
            if fresh_speedup is not None and base_speedup is not None:
                compared += 1
                floor = base_speedup / args.tolerance
                if fresh_speedup < floor:
                    failures.append(
                        f"speedup regression: {key(r)} speedup "
                        f"{fresh_speedup:.2f} < {floor:.2f} "
                        f"(baseline {base_speedup:.2f} / tolerance "
                        f"{args.tolerance})")
            fresh_ms, base_ms = numeric(r["ms_per_op"]), numeric(
                b["ms_per_op"])
            if (fresh_ms is not None and base_ms is not None and base_ms > 0
                    and fresh_ms > base_ms * args.tolerance):
                print(f"warning: absolute ms_per_op drift {key(r)}: "
                      f"{fresh_ms:.2f} vs baseline {base_ms:.2f} "
                      "(machine-dependent; informational only)")
        mem_compared = 0
        for phase, tol, slack in mem_flat:
            fresh_rows = [r for r in fresh if r["phase"] == phase]
            if not fresh_rows:
                failures.append(f"no '{phase}' rows in {args.fresh}")
            # Two-way matching, same rename/drop discipline as the speedup
            # gate: a value row vanishing on either side un-gates it.
            for b in baseline:
                if b["phase"] == phase and key(b) not in fresh_keys:
                    failures.append(
                        f"baseline value row has no fresh counterpart "
                        f"(renamed or dropped?): {key(b)}")
            for r in fresh_rows:
                b = base_by_key.get(key(r))
                if b is None:
                    failures.append(
                        f"fresh value row missing from baseline (new "
                        f"instance? refresh bench/baselines/ in this PR): "
                        f"{key(r)}")
                    continue
                fresh_v, base_v = numeric(r["ms_per_op"]), numeric(
                    b["ms_per_op"])
                if fresh_v is None or base_v is None:
                    failures.append(f"non-numeric value: {key(r)}")
                    continue
                mem_compared += 1
                ceiling = base_v * tol + slack
                if fresh_v > ceiling:
                    failures.append(
                        f"value above its ceiling: {key(r)} value "
                        f"{fresh_v:.3f} > {ceiling:.3f} (baseline "
                        f"{base_v:.3f} * {tol} + {slack})")
        if mem_compared:
            print(f"{mem_compared} value rows gated against baseline")
        if compared == 0 and mem_compared == 0:
            failures.append(
                f"baseline {args.baseline} shares no gated (speedup or "
                f"value) rows "
                f"with {args.fresh} — stale baseline?")
        elif compared:
            print(f"{compared} speedup rows gated against baseline "
                  f"(tolerance {args.tolerance})")

    print(f"{len(fresh)} rows parsed from {args.fresh} "
          f"({sum(1 for r in fresh if r.get('identical') == 'yes')} "
          "identity-checked)")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

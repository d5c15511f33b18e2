#!/usr/bin/env python3
"""Render a solver convergence CSV as a per-round terminal table.

Input is the CSV `sor_cli --convergence-out FILE` (or
`obs::write_convergence_csv`) emits — one row per solver round with the
schema declared in src/obs/convergence.h:

    round,congestion,dual,best_lower,gap,touched_edges

Output is a stdlib-only "plot": a sampled per-round table (long solves
are thinned to ~MAX_ROWS evenly spaced rounds; first and last always
shown) with an ASCII bar tracking the certified gap on a log scale, plus
a summary line (rounds, final congestion, final certified gap, total
touched-edge work). Non-finite gaps (a round before any lower bound
exists) render as "-".

    tools/plot_convergence.py convergence.csv
    tools/plot_convergence.py --rows 40 convergence.csv

Exit code 0 on success, 1 on a malformed/empty file, 2 on usage error.
"""

import argparse
import csv
import math
import sys

FIELDS = ("round", "congestion", "dual", "best_lower", "gap",
          "touched_edges")
BAR_WIDTH = 28

# Log-scale bar bounds: gaps above GAP_HI fill the bar, below GAP_LO
# empty it. Chosen to make typical solver decay (1e0 -> 1e-3) visible.
GAP_HI = 10.0
GAP_LO = 1e-4


def parse_rows(path):
    """Reads the CSV into a list of dicts with float/int fields."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != FIELDS:
            raise ValueError(
                f"{path}: expected header {','.join(FIELDS)}, got "
                f"{','.join(reader.fieldnames or ['<empty>'])}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append({
                    "round": int(row["round"]),
                    "congestion": float(row["congestion"]),
                    "dual": float(row["dual"]),
                    "best_lower": float(row["best_lower"]),
                    "gap": float(row["gap"]),
                    "touched_edges": int(row["touched_edges"]),
                })
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: bad row: {e}") from e
    if not rows:
        raise ValueError(f"{path}: no convergence records")
    return rows


def sample_indices(n, max_rows):
    """Evenly spaced row indices, always including first and last."""
    if n <= max_rows:
        return list(range(n))
    picked = {0, n - 1}
    for k in range(1, max_rows - 1):
        picked.add(round(k * (n - 1) / (max_rows - 1)))
    return sorted(picked)


def gap_bar(gap):
    """ASCII bar of the certified gap on a log scale ('-' if not finite)."""
    if not math.isfinite(gap):
        return "-".ljust(BAR_WIDTH)
    clamped = min(max(gap, GAP_LO), GAP_HI)
    frac = (math.log10(clamped) - math.log10(GAP_LO)) / (
        math.log10(GAP_HI) - math.log10(GAP_LO))
    filled = max(0, min(BAR_WIDTH, round(frac * BAR_WIDTH)))
    return ("#" * filled).ljust(BAR_WIDTH)


def fmt(value, width=12):
    if not math.isfinite(value):
        return "-".rjust(width)
    return f"{value:.6g}".rjust(width)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("csv_path", help="convergence CSV to render")
    parser.add_argument("--rows", type=int, default=30, metavar="N",
                        help="max table rows; long solves are thinned to "
                        "N evenly spaced rounds (default 30)")
    args = parser.parse_args()
    if args.rows < 2:
        parser.error("--rows must be >= 2")

    try:
        rows = parse_rows(args.csv_path)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    header = (f"{'round':>6} {'congestion':>12} {'dual':>12} "
              f"{'best_lower':>12} {'gap':>12} {'touched':>8}  "
              f"gap (log {GAP_LO:g}..{GAP_HI:g})")
    print(header)
    print("-" * len(header))
    for i in sample_indices(len(rows), args.rows):
        r = rows[i]
        print(f"{r['round']:>6} {fmt(r['congestion'])} {fmt(r['dual'])} "
              f"{fmt(r['best_lower'])} {fmt(r['gap'])} "
              f"{r['touched_edges']:>8}  |{gap_bar(r['gap'])}|")

    last = rows[-1]
    work = sum(r["touched_edges"] for r in rows)
    shown = len(sample_indices(len(rows), args.rows))
    print("-" * len(header))
    print(f"{len(rows)} rounds ({shown} shown), final congestion "
          f"{last['congestion']:.6g}, final certified gap "
          f"{(str('-') if not math.isfinite(last['gap']) else format(last['gap'], '.3g'))}, "
          f"{work} touched-edge updates total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

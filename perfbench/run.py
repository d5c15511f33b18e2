#!/usr/bin/env python3
"""End-to-end TE-epoch benchmark of the semi-oblivious routing engine.

    python3 perfbench/run.py --workload sparse-epochs|dense-batch|certified \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (its own CMake package,
compiling ../src in Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload:

  --trace 0  prints every end-to-end metric by name and unit;
  --trace 1  prints every per-layer metric, a per-layer self-time table and
             the tracing overhead, and writes a Chrome trace.

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. A failed correctness check makes the exit
code 1; a build or harness failure exits nonzero without that line. The
full result, with provenance, is also written under <build>/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import report  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sparse-epochs", "dense-batch", "certified")


def build(build_dir):
    """Configures and builds incrementally; the compiler's output goes to
    stderr so stdout stays the benchmark's report."""
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sor_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources: the build's identity
    where no git metadata is available."""
    digest = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_metrics(title, metrics, units):
    print(title)
    for name, unit in units:
        print("  %-28s %18.6f %s" % (name, metrics[name], unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    results = os.path.join(build_dir, "results")
    try:
        binary = build(build_dir)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        print("error: cannot build the benchmark: %s" % err, file=sys.stderr)
        return 2
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    trace_path = os.path.join(results, stem + ".trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150 + 2 * args.seconds)
    except subprocess.TimeoutExpired:
        print("error: sor_perfbench timed out", file=sys.stderr)
        return 3
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print("error: sor_perfbench exited with %d" % done.returncode, file=sys.stderr)
        return 3
    raw = json.loads(done.stdout)

    provenance = dict(raw["provenance"], git_sha=git_sha(), source_sha256=source_digest())
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        units = report.PER_LAYER
        metrics = report.per_layer(raw)
        print_metrics("per-layer metrics (ms per call; counts per call):", metrics, units)
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        print("self time by span over the traced phase:")
        print(report.format_self_times(report.self_times(events)))
        print("tracing overhead: traced epoch p50 %.4f ms vs untraced %.4f ms (%+.2f%%)" % (
            report.percentile(raw["traced_epoch_ms"], 0.5),
            report.percentile(raw["epoch_ms"], 0.5),
            100.0 * metrics["trace.overhead_share"]))
        print("chrome trace: " + trace_path)
    else:
        units = report.END_TO_END
        metrics = report.end_to_end(raw)
        print_metrics("end-to-end metrics:", metrics, units)
        print("samples: %d timed epochs (%d demands each), %d set-ups, "
              "%d pool epochs for the quality means" % (
                  len(raw["epoch_ms"]), raw["demands_per_epoch"],
                  len(raw["setup_s"]), raw["pool_epochs"]))
    for failure in raw["failures"]:
        print("FAILED CHECK: " + failure)

    correct = raw["failed"] == 0
    line = report.result_line(correct, raw["attempted"], raw["failed"], metrics, units)
    with open(os.path.join(results, "%s-trace%d.json" % (stem, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "raw": raw, "result": json.loads(line)}, f)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

// Shared helpers for the experiment harnesses (bench_f1 ... bench_t8, m3).
//
// Each bench binary regenerates one row of the DESIGN.md experiment index:
// it prints a plain-text table whose *shape* (who wins, by what factor,
// where crossovers fall) mirrors the corresponding claim of the paper.
//
// Every harness that calls BenchArgs::parse also understands:
//   --quick       shrink instances/trials to a CI-smoke size
//   --json PATH   additionally write every table as machine-readable JSON
//                 rows (one array of row objects; see JsonSink) — this is
//                 what CI uploads as the BENCH_*.json trajectory artifact.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "util/stats.h"
#include "util/table.h"

namespace sor::bench {

/// Prints the experiment banner.
inline void banner(const char* id, const char* claim) {
  std::printf("==== %s ====\n%s\n\n", id, claim);
}

/// Common harness flags (unknown flags are ignored so harness-specific
/// parsing can coexist).
struct BenchArgs {
  bool quick = false;
  std::string json_path;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--quick")) {
        args.quick = true;
      } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
        args.json_path = argv[++i];
      }
    }
    return args;
  }
};

/// Accumulates (experiment id, Table) pairs and writes them as one JSON
/// array of row objects on flush(). A sink with an empty path is a no-op,
/// so harnesses can call add()/flush() unconditionally.
class JsonSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}

  void add(const std::string& experiment, const Table& table) {
    if (path_.empty() || table.num_rows() == 0) return;
    if (!rows_.empty()) rows_ += ",\n";
    rows_ += table.to_json_rows(experiment);
  }

  /// Writes the accumulated rows; returns false (with a warning printed)
  /// if the file cannot be opened.
  bool flush() const {
    if (path_.empty()) return true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write JSON to %s\n",
                   path_.c_str());
      return false;
    }
    out << "[\n" << rows_ << "\n]\n";
    std::printf("\nwrote JSON rows to %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::string rows_;
};

// ---- canonical stage-row schema ----------------------------------------
// One JsonSink field set across every throughput harness (m3/m4, t8), so
// the CI perf-regression gate (tools/bench_gate.py) parses every artifact
// uniformly:
//   phase        stage name ("route", "construct", "anytime_gap", ...)
//   instance     topology/backend/batch description
//   threads      pool width the row ran with (1 for single-thread stages)
//   ms_per_op    wall-clock per operation (a value row — see value_row —
//                carries its value here)
//   ops_per_sec  1000 / ms_per_op (0 when unmeasurable; "-" on a value row)
//   speedup      a seed-exact factor or a ratio against the row's IN-RUN
//                control (e.g. the 1-thread sweep point) — machine-
//                independent, this is what the gate bounds; "-" when the
//                row has none
//   identical    "yes"/"no": the row's check — output equality vs the
//                control, or the claim or contract its bench documents
//                ("-" when the row has none). The gate fails on any "no".

inline Table stage_table() {
  return Table({"phase", "instance", "threads", "ms_per_op", "ops_per_sec",
                "speedup", "identical"});
}

/// Appends one canonical stage row. `total_ms` over `ops` operations;
/// `speedup <= 0` and empty `identical` render as "-".
inline void stage_row(Table& table, const std::string& phase,
                      const std::string& instance, int threads,
                      double total_ms, int ops, double speedup,
                      const std::string& identical) {
  const double ms_per_op = total_ms / static_cast<double>(ops);
  const double ops_per_sec =
      total_ms > 0.0 ? 1000.0 * static_cast<double>(ops) / total_ms : 0.0;
  Table& r = table.row()
                 .cell(phase)
                 .cell(instance)
                 .cell(threads)
                 .cell(ms_per_op, 3)
                 .cell(ops_per_sec, 1);
  if (speedup > 0.0) {
    r.cell(speedup, 2);
  } else {
    r.cell("-");
  }
  r.cell(identical.empty() ? "-" : identical);
}

/// Appends one value row: `value` (a count or a size, not a time) goes in
/// ms_per_op, and ops_per_sec and speedup render as "-", because a value
/// has no throughput. The gate reads values with --mem-zero / --mem-flat.
inline void value_row(Table& table, const std::string& phase,
                      const std::string& instance, double value,
                      const std::string& identical) {
  table.row()
      .cell(phase)
      .cell(instance)
      .cell(1)
      .cell(value, 3)
      .cell("-")
      .cell("-")
      .cell(identical.empty() ? "-" : identical);
}

/// A named test topology plus a matching oblivious substrate, both owned by
/// a SorEngine built through the backend registry.
struct Instance {
  std::string name;
  SorEngine engine;

  const Graph& graph() const { return engine.graph(); }
  const ObliviousRouting& routing() const { return engine.backend(); }
};

inline Instance make_hypercube(int dim, std::uint64_t seed = 1) {
  return {"hypercube(d=" + std::to_string(dim) + ")",
          SorEngine::build(gen::hypercube(dim), "valiant", seed)};
}

inline Instance make_expander(int n, int degree, Rng& rng, int num_trees = 10) {
  Graph g = gen::random_regular(n, degree, rng);
  return {"expander(n=" + std::to_string(n) + ",d=" + std::to_string(degree) +
              ")",
          SorEngine::build(std::move(g),
                           "racke:num_trees=" + std::to_string(num_trees),
                           rng.next())};
}

inline Instance make_torus(int side, Rng& rng, int num_trees = 10) {
  return {"torus(" + std::to_string(side) + "x" + std::to_string(side) + ")",
          SorEngine::build(gen::grid(side, side, /*wrap=*/true),
                           "racke:num_trees=" + std::to_string(num_trees),
                           rng.next())};
}

/// Max and mean semi-oblivious competitive ratio of alpha-samples over an
/// ensemble of permutation demands, using the cheap distance lower bound
/// combined with the optimum's bound when affordable.
struct RatioSummary {
  double mean_ratio = 0.0;
  double max_ratio = 0.0;
};

/// Lower bound on opt: distance duality (cheap) optionally sharpened by the
/// optimum's certificate for small instances.
inline double opt_lower_bound(const Graph& g, const Demand& d,
                              bool run_optimum) {
  double lb = distance_lower_bound(g, d);
  lb = std::max(lb, d.size() / g.total_capacity());
  if (run_optimum) lb = std::max(lb, optimal_congestion(g, d).lower);
  return lb;
}

}  // namespace sor::bench

// Experiment M5 — flat free-path MWU throughput (the offline-optimum / LP
// oracle behind every competitive ratio and lower-bound experiment).
//
// Measures min_congestion_free — scratch-reusing Dijkstra best responses,
// incremental max_log/exp caching, sparse touched-set aggregation — against
// a VERBATIM copy of the pre-change implementation (shared run_mwu template
// + naive Dijkstra best response, per-round allocations) on the same
// inputs. Outputs must be BIT-IDENTICAL (congestion, dual bound, rounds
// used, every edge load); a row with identical=no is a bug, not a
// measurement.
//
//   bench_m5_free_path [--quick] [--json PATH]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/shortest_path.h"
#include "legacy_free_path_mwu.h"
#include "lp/min_congestion.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The verbatim pre-change reference lives in legacy_free_path_mwu.h (one
// canonical "before", shared with tests/test_free_path_flat.cpp).
namespace legacy = sor::legacy_free_path;

// ---------------------------------------------------------------------------

/// A sparse "tenant" demand as a commodity list: `pairs` random unit-ish
/// demands on [0, n) — the serving-loop shape where the flat solver's
/// footprint-proportional round cost beats the reference's full-m passes.
std::vector<Commodity> sparse_commodities(int n, int pairs, Rng& rng) {
  std::vector<Commodity> commodities;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    commodities.push_back({s, t, 1.0});
  }
  return commodities;
}

bool full_output_equal(const CongestionResult& a, const CongestionResult& b) {
  return a.congestion == b.congestion && a.lower_bound == b.lower_bound &&
         a.rounds_used == b.rounds_used && a.edge_load == b.edge_load;
}

void bench_instance(Table& table, const std::string& name, const Graph& g,
                    std::uint64_t seed, int num_demands, int reps) {
  Rng rng(seed);
  std::vector<std::vector<Commodity>> demands;
  demands.reserve(static_cast<std::size_t>(num_demands));
  for (int i = 0; i < num_demands; ++i) {
    demands.push_back(sparse_commodities(g.num_vertices(), /*pairs=*/16, rng));
  }
  MinCongestionOptions options;
  options.rounds = 300;
  options.min_rounds = 50;

  // ---- new flat solver ----------------------------------------------------
  std::vector<CongestionResult> flat_results;
  double flat_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const auto& commodities : demands) {
      const auto start = Clock::now();
      CongestionResult result = min_congestion_free(g, commodities, options);
      flat_ms += ms_since(start);
      if (r == 0) flat_results.push_back(std::move(result));
    }
  }

  // ---- verbatim pre-change solver, full output equality -------------------
  double legacy_ms = 0.0;
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const auto start = Clock::now();
      const CongestionResult result =
          legacy::min_congestion_free(g, demands[i], options);
      legacy_ms += ms_since(start);
      if (r == 0) identical = identical && full_output_equal(result,
                                                             flat_results[i]);
    }
  }

  const int ops = reps * num_demands;
  sor::bench::stage_row(table, "free_route", name, 1, flat_ms, ops,
                        flat_ms > 0.0 ? legacy_ms / flat_ms : 0.0,
                        identical ? "yes" : "no");
  sor::bench::stage_row(table, "free_route_legacy", name, 1, legacy_ms, ops,
                        1.0, identical ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M5 — flat free-path MWU",
         "min_congestion_free on the flat substrate: reuse-scratch Dijkstra "
         "best responses, incremental max_log/exp caching, sparse touched-set "
         "aggregation. Measured against a verbatim copy of the pre-change "
         "solver; outputs must be bit-identical.");

  Table table = stage_table();
  const int reps = args.quick ? 2 : 3;
  {
    const int dim = args.quick ? 8 : 10;
    bench_instance(table, "hypercube(d=" + std::to_string(dim) + ")",
                   gen::hypercube(dim), 11, /*num_demands=*/args.quick ? 3 : 6,
                   reps);
  }
  {
    const int side = args.quick ? 20 : 28;
    bench_instance(
        table, "torus(" + std::to_string(side) + "x" + std::to_string(side) +
                   ")",
        gen::grid(side, side, /*wrap=*/true), 13,
        /*num_demands=*/args.quick ? 3 : 6, reps);
  }

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m5_free_path", table);
  sink.flush();
  return 0;
}

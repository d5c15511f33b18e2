// Experiment M3 — parallel scaling of the shared-nothing concurrency layer.
//
// Three hot paths, each swept over 1/2/4/8 worker threads:
//   construct    Räcke tree-distribution build (each wave's all-pairs
//                table fanned out by rows, then its FRT trees built
//                concurrently from seed-split streams) on an expander
//   install      Stages 1-2 of a fresh engine per thread count: the
//                all-pairs alpha-sample over a Räcke build on a torus,
//                checked by the installed system's fingerprint
//   route_batch  many revealed permutation demands routed concurrently
//                over one frozen PathSystem (expander + hypercube)
//
// Besides wall-clock and speedup-vs-1-thread, every row re-checks the
// library's determinism contract: the parallel output must be
// BIT-IDENTICAL to the 1-thread output at the same seed (seed-split
// streams, never a shared generator). A row with identical=no is a bug,
// not a measurement.
//
//   bench_m3_parallel_scaling [--quick] [--json PATH]
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "oblivious/racke.h"
#include "util/thread_pool.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kThreadSweep[] = {1, 2, 4, 8};

/// Deterministic route fingerprint of a Räcke distribution: every tree's
/// route for a spread of pairs. Equal signatures <=> equal trees (for
/// these probes), which is the bit-identical construction check.
std::vector<Path> racke_signature(const RackeRouting& routing, int n) {
  std::vector<Path> signature;
  for (int tree = 0; tree < routing.num_trees(); ++tree) {
    for (int probe = 0; probe < 8; ++probe) {
      const int s = (probe * 37) % n;
      const int t = (probe * 53 + n / 2) % n;
      if (s == t) continue;
      signature.push_back(routing.tree_route(tree, s, t));
    }
  }
  return signature;
}

void sweep_racke_construction(Table& table, bool quick) {
  const int n = quick ? 64 : 200;
  const int degree = 4;
  const int num_trees = quick ? 8 : 16;
  Rng graph_rng(7);
  const Graph g = gen::random_regular(n, degree, graph_rng);
  const std::string instance =
      "expander(n=" + std::to_string(n) + ",trees=" + std::to_string(num_trees) +
      ")";

  std::vector<Path> serial_signature;
  double serial_ms = 0.0;
  for (int threads : kThreadSweep) {
    RackeOptions options;
    options.num_trees = num_trees;
    util::ThreadPool pool(threads);
    Rng rng(1234);  // same seed every sweep point: outputs must coincide
    const auto start = Clock::now();
    RackeRouting routing(g, options, rng, &pool);
    const double elapsed = ms_since(start);
    const std::vector<Path> signature = racke_signature(routing, n);
    if (threads == 1) {
      serial_signature = signature;
      serial_ms = elapsed;
    }
    sor::bench::stage_row(table, "construct", instance, threads, elapsed, 1,
                          elapsed > 0.0 ? serial_ms / elapsed : 0.0,
                          signature == serial_signature ? "yes" : "no");
  }
}

void sweep_install(Table& table, bool quick) {
  const int side = quick ? 8 : 12;
  const std::string instance = "torus(" + std::to_string(side) + "x" +
                               std::to_string(side) + "),racke,all_pairs";
  std::uint64_t serial_fingerprint = 0;
  double serial_ms = 0.0;
  for (int threads : kThreadSweep) {
    // A fresh engine per sweep point, same seed: the install draws from
    // the engine stream, so only equal builds can install equal systems.
    SorEngine engine =
        SorEngine::build(gen::grid(side, side, /*wrap=*/true),
                         "racke:num_trees=8", 1234, threads);
    const auto start = Clock::now();
    const std::uint64_t installed =
        fingerprint(engine.install_paths(SamplingSpec{}));
    const double elapsed = ms_since(start);
    if (threads == 1) {
      serial_fingerprint = installed;
      serial_ms = elapsed;
    }
    sor::bench::stage_row(table, "install", instance, threads, elapsed, 1,
                          elapsed > 0.0 ? serial_ms / elapsed : 0.0,
                          installed == serial_fingerprint ? "yes" : "no");
  }
}

void sweep_route_batch(Table& table, const std::string& instance_name,
                       SorEngine& engine, bool quick) {
  const int n = engine.graph().num_vertices();
  const int batch_size = quick ? 8 : 32;
  Rng demand_rng(99);
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(batch_size));
  for (int b = 0; b < batch_size; ++b) {
    demands.push_back(gen::random_permutation_demand(n, demand_rng));
  }
  engine.set_threads(1);
  engine.install_paths(SamplingSpec::for_demands(demands, 4));

  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;
  spec.mwu.target_gap = 1.0;  // fixed rounds -> stable per-demand cost

  // The determinism reference: a plain serial route() loop, which
  // route_batch must reproduce bit-for-bit at every thread count (the
  // fractional stage consumes no randomness, so the engine stream the
  // loop advances does not enter these solves).
  std::vector<double> loop_congestion;
  loop_congestion.reserve(demands.size());
  for (const Demand& d : demands) {
    loop_congestion.push_back(engine.route(d, spec).congestion);
  }

  double serial_ms = 0.0;
  for (int threads : kThreadSweep) {
    engine.set_threads(threads);
    const BatchReport batch = engine.route_batch(demands, spec);
    if (threads == 1) serial_ms = batch.wall_ms;
    bool identical = batch.reports.size() == loop_congestion.size();
    for (std::size_t i = 0; identical && i < loop_congestion.size(); ++i) {
      identical = batch.reports[i].congestion == loop_congestion[i];
    }
    sor::bench::stage_row(table, "route_batch",
                          instance_name + ",batch=" + std::to_string(batch_size),
                          threads, batch.wall_ms, batch_size,
                          batch.wall_ms > 0.0 ? serial_ms / batch.wall_ms : 0.0,
                          identical ? "yes" : "no");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M3 — parallel scaling",
         "ThreadPool fan-out of racke construction, install and route_batch: "
         "wall-clock falls with threads while outputs stay bit-identical "
         "to the 1-thread run (seed-split determinism).");

  Table table = stage_table();
  sweep_racke_construction(table, args.quick);
  sweep_install(table, args.quick);

  {
    const int n = args.quick ? 64 : 128;
    Rng rng(5);
    Instance expander = make_expander(n, 4, rng, args.quick ? 6 : 10);
    sweep_route_batch(table, expander.name, expander.engine, args.quick);
  }
  {
    const int dim = args.quick ? 6 : 8;
    Instance cube = make_hypercube(dim, 3);
    sweep_route_batch(table, cube.name, cube.engine, args.quick);
  }

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m3_parallel_scaling", table);
  sink.flush();
  return 0;
}

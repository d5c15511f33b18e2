// Experiment M4 — flat-memory hot path (PathStore substrate).
//
// Measures the staged pipeline's single-thread throughput on the m1
// substrates: build (backend construction), install (path sampling +
// interning), route (the restricted Frank–Wolfe solve over the frozen
// PathSystem) and route_batch. These wall times are informational. What
// the gate pins is the route's work, which is seed-exact:
//
//   route_work   one row per counter of the engine.route span — rounds,
//                exp_evals and lane_reads — summed over one route per
//                demand on a freshly built engine (instance
//                "<instance>/<counter>"; a value row, the count in
//                ms_per_op). The counts are taken on a fresh engine
//                because each timed install samples new paths, so counts
//                taken on the timing engine would depend on the rep
//                count; identical=yes iff two fresh engines agree.
//   route_batch  identical=yes iff every batch report's fractional
//                solution equals the serial route of the same demand.
//
//   bench_m4_hot_path [--quick] [--json PATH]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A sparse "tenant" demand: `pairs` random unit-demand pairs on [0, n).
/// This is the serving-loop shape the route stage is measured on — each
/// revealed demand touches a sliver of a large shared substrate, where
/// the restricted solve's round cost follows the demand's footprint, not
/// the graph.
Demand sparse_demand(int n, int pairs, Rng& rng) {
  Demand d;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    d.set(s, t, 1.0);
  }
  return d;
}

/// The engine.route span's work args, summed over routes.
struct RouteWork {
  std::uint64_t rounds = 0;
  std::uint64_t exp_evals = 0;
  std::uint64_t lane_reads = 0;

  bool operator==(const RouteWork&) const = default;
};

/// Builds a fresh engine, installs `sampling` once and routes each demand
/// once with the tracer armed; returns the route spans' summed work.
RouteWork count_route_work(const Graph& graph, const std::string& backend_spec,
                           std::uint64_t seed, const SamplingSpec& sampling,
                           const std::vector<Demand>& demands,
                           const RouteSpec& spec) {
  SorEngine engine = SorEngine::build(Graph(graph), backend_spec, seed);
  engine.install_paths(sampling);
  obs::tracer().enable();
  for (const Demand& d : demands) engine.route(d, spec);
  obs::tracer().disable();

  RouteWork work;
  for (const obs::TraceEvent& ev : obs::tracer().events()) {
    if (std::strcmp(ev.cat, "engine") != 0 ||
        std::strcmp(ev.name, "route") != 0) {
      continue;
    }
    for (const obs::TraceArg& arg : ev.args) {
      if (arg.name == nullptr) continue;
      if (!std::strcmp(arg.name, "rounds")) work.rounds += arg.value;
      if (!std::strcmp(arg.name, "exp_evals")) work.exp_evals += arg.value;
      if (!std::strcmp(arg.name, "lane_reads")) work.lane_reads += arg.value;
    }
  }
  return work;
}

bool same_fractional(const SemiObliviousSolution& a,
                     const SemiObliviousSolution& b) {
  return a.weights == b.weights && a.edge_load == b.edge_load &&
         a.congestion == b.congestion && a.lower_bound == b.lower_bound &&
         a.rounds_used == b.rounds_used && a.status == b.status;
}

void bench_instance(Table& table, const std::string& name, Graph graph,
                    const std::string& backend_spec, std::uint64_t seed,
                    int alpha, int batch_size, int reps) {
  // ---- build --------------------------------------------------------------
  const auto build_start = Clock::now();
  sor::bench::Instance inst{
      name, SorEngine::build(std::move(graph), backend_spec, seed)};
  const double build_ms = ms_since(build_start);
  sor::bench::stage_row(table, "build", name, 1, build_ms, 1, 0.0, "");

  SorEngine& engine = inst.engine;
  const int n = engine.graph().num_vertices();
  Rng demand_rng(seed ^ 0x9e37u);
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(batch_size));
  for (int b = 0; b < batch_size; ++b) {
    demands.push_back(sparse_demand(n, /*pairs=*/16, demand_rng));
  }
  const SamplingSpec sampling = SamplingSpec::for_demands(demands, alpha);

  // ---- install (sampling + interning) -------------------------------------
  double install_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    engine.install_paths(sampling);
    install_ms += ms_since(start);
  }
  sor::bench::stage_row(table, "install", name, 1, install_ms, reps, 0.0, "");

  // ---- route ----------------------------------------------------------------
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;

  std::vector<SemiObliviousSolution> serial;
  double route_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const Demand& d : demands) {
      const auto start = Clock::now();
      RouteReport report = engine.route(d, spec);
      route_ms += ms_since(start);
      if (r == 0) serial.push_back(std::move(report.solution));
    }
  }
  sor::bench::stage_row(table, "route", name, 1, route_ms, reps * batch_size,
                        0.0, "");

  // ---- route work (seed-exact, on two fresh engines) ----------------------
  const RouteWork work = count_route_work(engine.graph(), backend_spec, seed,
                                          sampling, demands, spec);
  const RouteWork again = count_route_work(engine.graph(), backend_spec, seed,
                                           sampling, demands, spec);
  const std::string same = work == again ? "yes" : "no";
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"rounds", work.rounds},
      {"exp_evals", work.exp_evals},
      {"lane_reads", work.lane_reads}};
  for (const auto& [counter, value] : counters) {
    sor::bench::value_row(table, "route_work", name + "/" + counter,
                          static_cast<double>(value), same);
  }

  // ---- route_batch (single-thread serving loop through the facade) --------
  double batch_ms = 0.0;
  bool batch_same = true;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const BatchReport batch = engine.route_batch(demands, spec);
    batch_ms += ms_since(start);
    batch_same = batch_same && batch.reports.size() == serial.size();
    for (std::size_t i = 0; batch_same && i < serial.size(); ++i) {
      batch_same = same_fractional(batch.reports[i].solution, serial[i]);
    }
  }
  sor::bench::stage_row(table, "route_batch",
                        name + ",batch=" + std::to_string(batch_size), 1,
                        batch_ms, reps * batch_size, 0.0,
                        batch_same ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M4 — flat-memory hot path",
         "PathStore substrate: interned vertex+edge-id spans through the "
         "whole pipeline. Stage wall times are informational; route_work "
         "rows carry the route's seed-exact work (Frank–Wolfe rounds, exp "
         "evaluations, lane-block reads) summed over one route per demand "
         "on a fresh engine, and route_batch must reproduce the serial "
         "routes' fractional solutions exactly.");

  Table table = stage_table();

  const int reps = args.quick ? 2 : 3;
  {
    const int dim = args.quick ? 8 : 10;
    bench_instance(table, "hypercube(d=" + std::to_string(dim) + ")+valiant",
                   sor::gen::hypercube(dim), "valiant", 2, /*alpha=*/8,
                   /*batch=*/args.quick ? 4 : 8, reps);
  }
  {
    const int side = args.quick ? 24 : 32;
    const int trees = args.quick ? 4 : 6;
    bench_instance(
        table,
        "torus(" + std::to_string(side) + "x" + std::to_string(side) +
            ")+racke",
        sor::gen::grid(side, side, /*wrap=*/true),
        "racke:num_trees=" + std::to_string(trees), 3, /*alpha=*/8,
        /*batch=*/args.quick ? 4 : 8, reps);
  }

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m4_hot_path", table);
  sink.flush();
  return 0;
}

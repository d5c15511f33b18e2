// Experiment M4 — flat-memory hot-path throughput (PathStore substrate).
//
// Measures the staged pipeline's single-thread throughput on the m1
// substrates: build (backend construction), install (path sampling +
// interning), route (rate selection over the frozen PathSystem), and
// route_batch. For the route stage — the per-demand serving loop — the
// harness ALSO runs a verbatim copy of an earlier solver on the same
// inputs: the pre-PathStore representation (vertex-sequence candidates,
// hash-based edge resolution per call, nested vector-of-vector edge ids,
// a serial total sum over all m edges) driving the multiplicative-weights
// loop the library ran before Frank–Wolfe, at its 800 rounds. The row
// reports new-vs-legacy speedup and checks bench_common.h's
// within_contract: cross-valid certificates, and the library's congestion
// no worse than 1.02 times the replica's. A row with identical=no is a
// bug, not a measurement.
//
//   bench_m4_hot_path [--quick] [--json PATH]
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Pre-change reference implementation (the PR 2 era representation and
// the multiplicative-weights solver of that era), kept verbatim as the
// "before" of the before/after measurement: candidates are vertex-sequence
// Paths, edge ids are re-resolved through the hash map on every solve, and
// the MWU inner loop iterates a nested vector<vector<vector<int>>>. Do not
// "optimize" this — its point is to be what the library used to do.
// ---------------------------------------------------------------------------
namespace legacy {

template <typename BestResponse>
CongestionResult run_mwu(const Graph& g,
                         const std::vector<Commodity>& commodities,
                         const MinCongestionOptions& options,
                         BestResponse&& best_response) {
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  CongestionResult result;
  result.edge_load.assign(m, 0.0);
  if (k == 0 || m == 0) {
    result.congestion = 0.0;
    result.lower_bound = 0.0;
    return result;
  }

  std::vector<double> log_x(m, 0.0);
  std::vector<double> x(m, 1.0 / static_cast<double>(m));
  std::vector<double> lengths(m, 0.0);
  std::vector<double> cumulative_load(m, 0.0);
  std::vector<double> round_load(m, 0.0);
  std::vector<std::vector<int>> chosen_edges(k);
  std::vector<double> chosen_len(k, 0.0);

  const double eta =
      std::sqrt(std::log(static_cast<double>(m) + 2.0) /
                static_cast<double>(std::max(options.rounds, 1)));

  double width_norm = 0.0;
  double best_lower = 0.0;
  int round = 0;
  for (round = 0; round < options.rounds; ++round) {
    double max_log = -std::numeric_limits<double>::infinity();
    for (double lx : log_x) max_log = std::max(max_log, lx);
    double total = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      x[e] = std::exp(log_x[e] - max_log);
      total += x[e];
    }
    for (std::size_t e = 0; e < m; ++e) {
      x[e] /= total;
      lengths[e] = x[e] / g.edge(static_cast<int>(e)).capacity;
    }

    best_response(lengths, chosen_edges, chosen_len);

    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      dual += commodities[j].amount * chosen_len[j];
    }
    best_lower = std::max(best_lower, dual);

    std::fill(round_load.begin(), round_load.end(), 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      for (int e : chosen_edges[j]) {
        round_load[static_cast<std::size_t>(e)] += commodities[j].amount;
      }
    }
    double width = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      cumulative_load[e] += round_load[e];
      width = std::max(width,
                       round_load[e] / g.edge(static_cast<int>(e)).capacity);
    }
    width_norm = std::max(width_norm, width);
    if (width_norm > 0.0) {
      for (std::size_t e = 0; e < m; ++e) {
        log_x[e] += eta * (round_load[e] /
                           g.edge(static_cast<int>(e)).capacity) /
                    width_norm;
      }
    }

    if (round + 1 >= options.min_rounds && best_lower > 0.0) {
      double ub = 0.0;
      for (std::size_t e = 0; e < m; ++e) {
        ub = std::max(ub, cumulative_load[e] /
                              (static_cast<double>(round + 1) *
                               g.edge(static_cast<int>(e)).capacity));
      }
      if (ub <= best_lower * options.target_gap) {
        ++round;
        break;
      }
    }
  }

  const double rounds_used = static_cast<double>(std::max(round, 1));
  double congestion = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    result.edge_load[e] = cumulative_load[e] / rounds_used;
    congestion = std::max(
        congestion, result.edge_load[e] / g.edge(static_cast<int>(e)).capacity);
  }
  result.congestion = congestion;
  result.lower_bound = best_lower;
  result.rounds_used = round;
  return result;
}

double congestion_of_weights(const Graph& g,
                             const std::vector<std::vector<Path>>& paths,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load) {
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t j = 0; j < paths.size(); ++j) {
    for (std::size_t i = 0; i < paths[j].size(); ++i) {
      if (weights[j][i] <= 0.0) continue;
      for (int e : path_edge_ids(g, paths[j][i])) {
        load[static_cast<std::size_t>(e)] += weights[j][i];
      }
    }
  }
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  if (edge_load) *edge_load = std::move(load);
  return congestion;
}

CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const std::vector<std::vector<Path>>& candidate_paths,
    const MinCongestionOptions& options) {
  const std::size_t k = commodities.size();

  // Per-call edge resolution: one hash lookup per hop per candidate.
  std::vector<std::vector<std::vector<int>>> edge_ids(k);
  for (std::size_t j = 0; j < k; ++j) {
    edge_ids[j].reserve(candidate_paths[j].size());
    for (const Path& p : candidate_paths[j]) {
      edge_ids[j].push_back(path_edge_ids(g, p));
    }
  }

  std::vector<std::vector<int>> counts(k);
  for (std::size_t j = 0; j < k; ++j) {
    counts[j].assign(candidate_paths[j].size(), 0);
  }

  auto best_response = [&](const std::vector<double>& lengths,
                           std::vector<std::vector<int>>& chosen_edges,
                           std::vector<double>& chosen_len) {
    for (std::size_t j = 0; j < k; ++j) {
      chosen_edges[j].clear();
      chosen_len[j] = 0.0;
      if (commodities[j].amount <= 0.0 || candidate_paths[j].empty()) continue;
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_i = 0;
      for (std::size_t i = 0; i < edge_ids[j].size(); ++i) {
        double len = 0.0;
        for (int e : edge_ids[j][i]) len += lengths[static_cast<std::size_t>(e)];
        if (len < best) {
          best = len;
          best_i = i;
        }
      }
      chosen_edges[j] = edge_ids[j][best_i];
      chosen_len[j] = best;
      ++counts[j][best_i];
    }
  };

  CongestionResult result = run_mwu(g, commodities, options, best_response);

  result.path_weights.assign(k, {});
  int total_rounds = std::max(result.rounds_used, 1);
  for (std::size_t j = 0; j < k; ++j) {
    result.path_weights[j].assign(candidate_paths[j].size(), 0.0);
    if (commodities[j].amount <= 0.0) continue;
    for (std::size_t i = 0; i < candidate_paths[j].size(); ++i) {
      result.path_weights[j][i] = commodities[j].amount *
                                  static_cast<double>(counts[j][i]) /
                                  static_cast<double>(total_rounds);
    }
  }
  result.congestion = congestion_of_weights(g, candidate_paths,
                                            result.path_weights,
                                            &result.edge_load);
  return result;
}

/// Pre-change route_fractional: gather vertex-sequence candidates, solve
/// over the nested representation.
CongestionResult route_fractional(const Graph& g, const PathSystem& ps,
                                  const Demand& d,
                                  const MinCongestionOptions& options) {
  const auto commodities = d.commodities();
  std::vector<std::vector<Path>> paths;
  paths.reserve(commodities.size());
  for (const Commodity& c : commodities) {
    paths.push_back(ps.paths(c.s, c.t));
  }
  // Qualified: ADL would otherwise also find (and prefer-tie with) the
  // library's overload on the same argument types.
  return legacy::min_congestion_over_paths(g, commodities, paths, options);
}

}  // namespace legacy

// ---------------------------------------------------------------------------

/// A sparse "tenant" demand: `pairs` random unit-demand pairs on [0, n).
/// This is the serving-loop shape the route stage is measured on — each
/// revealed demand touches a sliver of a large shared substrate, which is
/// exactly where the flat representation's demand-footprint-proportional
/// round cost beats the pre-change full-graph passes.
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

  // ---- route: new flat representation vs pre-change representation --------
  const PathSystem& ps = engine.paths();
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;

  std::vector<SemiObliviousSolution> new_solutions;
  double route_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const Demand& d : demands) {
      const auto start = Clock::now();
      RouteReport report = engine.route(d, spec);
      route_ms += ms_since(start);
      if (r == 0) new_solutions.push_back(std::move(report.solution));
    }
  }

  // Contract agreement with the 800-round legacy solver (within_contract):
  // certificates cross-valid, congestion no worse than 1.02x the replica's.
  MinCongestionOptions legacy_options = spec.mwu;
  legacy_options.rounds = 800;
  double legacy_ms = 0.0;
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const auto start = Clock::now();
      const CongestionResult result = legacy::route_fractional(
          engine.graph(), ps, demands[i], legacy_options);
      legacy_ms += ms_since(start);
      if (r == 0) {
        identical = identical &&
                    sor::bench::within_contract(new_solutions[i], result);
      }
    }
  }

  const int route_ops = reps * batch_size;
  sor::bench::stage_row(table, "route", name, 1, route_ms, route_ops,
                        route_ms > 0.0 ? legacy_ms / route_ms : 0.0,
                        identical ? "yes" : "no");
  sor::bench::stage_row(table, "route_legacy", name, 1, legacy_ms, route_ops,
                        1.0, identical ? "yes" : "no");

  // ---- route_batch (single-thread serving loop through the facade) --------
  double batch_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const BatchReport batch = engine.route_batch(demands, spec);
    batch_ms += ms_since(start);
    assert(batch.reports.size() == demands.size());
    (void)batch;
  }
  sor::bench::stage_row(table, "route_batch",
                        name + ",batch=" + std::to_string(batch_size), 1,
                        batch_ms, reps * batch_size, 0.0, "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M4 — flat-memory hot path",
         "PathStore substrate: interned vertex+edge-id spans through the "
         "whole pipeline. The route stage is measured against a verbatim "
         "copy of the pre-change representation and solver (hash-per-hop "
         "resolution, nested vectors, 800 multiplicative-weights rounds); "
         "certificates must cross-validate and the congestion must stay "
         "within 1.02x the replica's, speedup is the point.");

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

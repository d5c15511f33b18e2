#include "core/semi_oblivious.h"

#include <algorithm>
#include <cassert>

#include "graph/shortest_path.h"

namespace sor {
namespace {

SemiObliviousSolution assemble(const Graph& g,
                               std::vector<Commodity> commodities,
                               std::vector<std::vector<Path>> paths,
                               CongestionResult result) {
  SemiObliviousSolution solution;
  solution.commodities = std::move(commodities);
  solution.paths = std::move(paths);
  solution.weights = std::move(result.path_weights);
  solution.edge_load = std::move(result.edge_load);
  solution.congestion = result.congestion;
  solution.lower_bound = result.lower_bound;
  solution.status = result.status;
  solution.optimality_gap = result.optimality_gap;
  solution.rounds_used = result.rounds_used;
  solution.max_hops = 0;
  for (std::size_t j = 0; j < solution.paths.size(); ++j) {
    for (std::size_t i = 0; i < solution.paths[j].size(); ++i) {
      if (solution.weights[j][i] > 1e-12) {
        solution.max_hops =
            std::max(solution.max_hops, hop_count(solution.paths[j][i]));
      }
    }
  }
  (void)g;
  return solution;
}

std::vector<std::vector<Path>> gather_candidates(
    const PathSystem& ps, const std::vector<Commodity>& commodities) {
  std::vector<std::vector<Path>> paths;
  paths.reserve(commodities.size());
  for (const Commodity& c : commodities) {
    paths.push_back(ps.paths(c.s, c.t));
    assert((c.amount <= 0.0 || !paths.back().empty()) &&
           "path system does not cover the demand support");
  }
  return paths;
}

}  // namespace

void route_fractional_into(const Graph& g, const PathSystem& ps,
                           const Demand& d,
                           const MinCongestionOptions& options,
                           RouteScratch& scratch, SemiObliviousSolution& out,
                           const MwuHooks& hooks) {
  assert(ps.store().graph() == &g && "path system is bound to another graph");
  d.commodities_into(out.commodities);
  const std::size_t k = out.commodities.size();

  // Candidate vertex COPIES from the arena into the solution's reused
  // nested buffers: assign keeps capacity, and a shrink parks the dropped
  // rows in the scratch's spares for the next growth, so once warm this
  // refill allocates nothing.
  const PathStore& store = ps.store();
  resize_keeping_buffers(out.paths, k, scratch.spare_paths);
  for (std::size_t j = 0; j < k; ++j) {
    const Commodity& c = out.commodities[j];
    const auto refs = ps.refs(c.s, c.t);
    assert((c.amount <= 0.0 || !refs.empty()) &&
           "path system does not cover the demand support");
    resize_keeping_buffers(out.paths[j], refs.size(), scratch.spare_path);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const auto vertices = store.vertices(refs[i]);
      out.paths[j][i].assign(vertices.begin(), vertices.end());
    }
  }

  // The solve runs on the interned edge ids of the same refs, with zero
  // hashing.
  flat_candidates_into(ps, out.commodities, scratch.flat);
  min_congestion_over_paths_into(g, out.commodities, scratch.flat, options,
                                 hooks, scratch.mwu, scratch.result);

  const CongestionResult& result = scratch.result;
  resize_keeping_buffers(out.weights, k, scratch.spare_weights);
  for (std::size_t j = 0; j < k; ++j) {
    out.weights[j].assign(result.path_weights[j].begin(),
                          result.path_weights[j].end());
  }
  out.edge_load.assign(result.edge_load.begin(), result.edge_load.end());
  out.congestion = result.congestion;
  out.lower_bound = result.lower_bound;
  out.status = result.status;
  out.optimality_gap = result.optimality_gap;
  out.rounds_used = result.rounds_used;
  out.max_hops = 0;
  for (std::size_t j = 0; j < out.paths.size(); ++j) {
    for (std::size_t i = 0; i < out.paths[j].size(); ++i) {
      if (out.weights[j][i] > 1e-12) {
        out.max_hops = std::max(out.max_hops, hop_count(out.paths[j][i]));
      }
    }
  }
}

SemiObliviousSolution route_fractional(const Graph& g, const PathSystem& ps,
                                       const Demand& d,
                                       const MinCongestionOptions& options) {
  RouteScratch scratch;
  SemiObliviousSolution out;
  route_fractional_into(g, ps, d, options, scratch, out);
  return out;
}

SemiObliviousSolution route_fractional_exact(const Graph& g,
                                             const PathSystem& ps,
                                             const Demand& d) {
  auto commodities = d.commodities();
  auto paths = gather_candidates(ps, commodities);
  auto result = min_congestion_over_paths_exact(g, commodities, paths);
  return assemble(g, std::move(commodities), std::move(paths),
                  std::move(result));
}

OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options,
                                     OptimumScratch& scratch,
                                     const MwuHooks& hooks) {
  OptimalCongestion opt;
  if (d.empty()) return opt;
  d.commodities_into(scratch.commodities);
  min_congestion_free_into(g, scratch.commodities, options, hooks, scratch.mwu,
                           scratch.result);
  opt.upper = scratch.result.congestion;
  opt.lower = scratch.result.lower_bound;
  opt.status = scratch.result.status;
  // opt >= siz(d) / total capacity (Lemma 5.16 generalized to capacities):
  // every unit of demand crosses at least one edge.
  const double trivial = d.size() / g.total_capacity();
  opt.lower = std::max(opt.lower, trivial);
  opt.upper = std::max(opt.upper, opt.lower);
  return opt;
}

OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options) {
  OptimumScratch scratch;
  return optimal_congestion(g, d, options, scratch);
}

double competitive_ratio(const SemiObliviousSolution& solution,
                         const OptimalCongestion& opt) {
  assert(opt.value() > 0.0);
  return solution.congestion / opt.value();
}

double distance_lower_bound(const Graph& g, const Demand& d,
                            DistanceBoundScratch& scratch) {
  if (d.empty()) return 0.0;
  auto& lengths = scratch.lengths;
  lengths.resize(static_cast<std::size_t>(g.num_edges()));
  double denominator = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    lengths[static_cast<std::size_t>(e)] = 1.0 / g.edge(e).capacity;
    denominator += 1.0;  // cap_e * w_e with w_e = 1/cap_e
  }
  // One early-exit Dijkstra per distinct source in the support: entries()
  // is ordered by (s, t), so each source's targets are one distinct run of
  // entries. Lengths 1/cap_e are strictly positive, so every target's
  // distance equals a full sweep's (see dijkstra_into_targets); the
  // numerator is summed in entries() order.
  const FlatAdjacency& adj = scratch.adj.get(g);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  auto& dist = scratch.dist;
  auto& is_target = scratch.is_target;
  dist.assign(n, 0.0);
  is_target.assign(n, 0);
  double numerator = 0.0;
  const auto& entries = d.entries();
  for (auto first = entries.begin(); first != entries.end();) {
    const int source = first->first.first;
    auto last = first;
    int num_targets = 0;
    for (; last != entries.end() && last->first.first == source; ++last) {
      is_target[static_cast<std::size_t>(last->first.second)] = 1;
      ++num_targets;
    }
    dijkstra_into_targets(adj, source, lengths, dist, {}, scratch.dijkstra,
                          is_target, num_targets);
    for (; first != last; ++first) {
      const std::size_t t = static_cast<std::size_t>(first->first.second);
      numerator += first->second * dist[t];
      is_target[t] = 0;
    }
  }
  return numerator / denominator;
}

double distance_lower_bound(const Graph& g, const Demand& d) {
  DistanceBoundScratch scratch;
  return distance_lower_bound(g, d, scratch);
}

}  // namespace sor

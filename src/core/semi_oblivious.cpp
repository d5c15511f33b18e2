#include "core/semi_oblivious.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

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

namespace {

// One early-exit CSR Dijkstra per source run of the (s, t)-sorted
// `commodities` (Demand::commodities_into's order) under `lengths`, the
// loop the distance bound and the optimum's pricer share. Returns
// sum_j d_j * dist(s_j, t_j), summed in commodity order; after each run,
// visit(j) sees commodity j's distance in sc.dist and, when `parent_edge`
// is non-empty, the run's shortest-path tree. The early exit needs
// strictly positive lengths (see dijkstra_into_targets); a zero length
// (an underflowed softmax weight) falls back to full sweeps, whose target
// distances are the same.
template <class Visit>
double sum_source_runs(const Graph& g, std::span<const Commodity> commodities,
                       const std::vector<double>& lengths,
                       DistanceBoundScratch& sc, std::span<int> parent_edge,
                       Visit&& visit) {
  const FlatAdjacency& adj = sc.adj.get(g);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  auto& dist = sc.dist;
  auto& is_target = sc.is_target;
  dist.assign(n, 0.0);
  is_target.assign(n, 0);
  const bool positive = std::all_of(lengths.begin(), lengths.end(),
                                    [](double len) { return len > 0.0; });
  double numerator = 0.0;
  for (std::size_t first = 0; first < commodities.size();) {
    const int source = commodities[first].s;
    std::size_t last = first;
    int num_targets = 0;
    for (; last < commodities.size() && commodities[last].s == source;
         ++last) {
      is_target[static_cast<std::size_t>(commodities[last].t)] = 1;
      ++num_targets;
    }
    if (positive) {
      dijkstra_into_targets(adj, source, lengths, dist, parent_edge,
                            sc.dijkstra, is_target, num_targets);
    } else {
      dijkstra_into_targets(adj, source, lengths, dist, parent_edge,
                            sc.dijkstra);
    }
    for (; first != last; ++first) {
      const std::size_t t = static_cast<std::size_t>(commodities[first].t);
      numerator += commodities[first].amount * dist[t];
      is_target[t] = 0;
      visit(first);
    }
  }
  return numerator;
}

// The optimum's pricer: every commodity's shortest path over the whole
// graph, walked back from the shortest-path tree of its source's run.
class DijkstraPricer final : public ColumnPricer {
 public:
  DijkstraPricer(const Graph& g, OptimumScratch& sc) : g_(g), sc_(sc) {}

  double price(const std::vector<double>& lengths,
               FlatCandidates& paths) override {
    const auto& commodities = sc_.commodities;
    const std::size_t n = static_cast<std::size_t>(g_.num_vertices());
    sc_.parent_edge.resize(n);
    sc_.walk.reserve(n);  // a shortest path has fewer than n edges
    return sum_source_runs(
        g_, commodities, lengths, sc_.pricing, sc_.parent_edge,
        [&](std::size_t j) {
          const Commodity& c = commodities[j];
          if (sc_.pricing.dist[static_cast<std::size_t>(c.t)] ==
              std::numeric_limits<double>::infinity()) {
            std::ostringstream msg;
            msg << "optimal_congestion: pair (" << c.s << ", " << c.t
                << ") has demand " << c.amount << " but no path joins it";
            throw std::invalid_argument(msg.str());
          }
          auto& walk = sc_.walk;
          walk.clear();
          for (int v = c.t; v != c.s;) {
            const int e = sc_.parent_edge[static_cast<std::size_t>(v)];
            walk.push_back(e);
            v = g_.edge(e).other(v);
          }
          std::reverse(walk.begin(), walk.end());
          paths.add_path(walk);
          paths.end_commodity();
        });
  }

 private:
  const Graph& g_;
  OptimumScratch& sc_;
};

}  // namespace

OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options,
                                     OptimumScratch& scratch) {
  OptimalCongestion opt;
  if (d.empty()) return opt;
  d.commodities_into(scratch.commodities);
  DijkstraPricer pricer(g, scratch);
  min_congestion_by_columns_into(g, scratch.commodities, options, pricer,
                                 scratch.columns, scratch.result);
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
  d.commodities_into(scratch.commodities);
  return sum_source_runs(g, scratch.commodities, lengths, scratch, {},
                         [](std::size_t) {}) /
         denominator;
}

double distance_lower_bound(const Graph& g, const Demand& d) {
  DistanceBoundScratch scratch;
  return distance_lower_bound(g, d, scratch);
}

}  // namespace sor

#include "core/semi_oblivious.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "graph/shortest_path.h"

namespace sor {
namespace {

// Dilation of the routing's support: the most hops on a candidate that
// carries weight.
int support_max_hops(const FlatCandidates& candidates,
                     const std::vector<std::vector<double>>& weights) {
  int max_hops = 0;
  for (std::size_t j = 0; j < candidates.num_commodities(); ++j) {
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      if (weights[j][i] > 1e-12) {
        max_hops = std::max(max_hops,
                            static_cast<int>(candidates.edges(j, i).size()));
      }
    }
  }
  return max_hops;
}

SemiObliviousSolution assemble(std::vector<Commodity> commodities,
                               FlatCandidates candidates,
                               CongestionResult result) {
  SemiObliviousSolution solution;
  solution.commodities = std::move(commodities);
  solution.candidates = std::move(candidates);
  solution.weights = std::move(result.path_weights);
  solution.edge_load = std::move(result.edge_load);
  solution.congestion = result.congestion;
  solution.lower_bound = result.lower_bound;
  solution.status = result.status;
  solution.optimality_gap = result.optimality_gap;
  solution.rounds_used = result.rounds_used;
  solution.max_hops = support_max_hops(solution.candidates, solution.weights);
  return solution;
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

  // The solve runs on the interned edge ids of the installed candidates,
  // gathered straight into the solution with zero hashing; rounding and
  // simulation read them there.
  flat_candidates_into(ps, out.commodities, out.candidates);
  min_congestion_over_paths_into(g, out.commodities, out.candidates, options,
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
  out.max_hops = support_max_hops(out.candidates, out.weights);
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
  FlatCandidates candidates = flat_candidates(ps, commodities);
  auto result = min_congestion_over_paths_exact(g, commodities, candidates);
  return assemble(std::move(commodities), std::move(candidates),
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
                       SourceRunScratch& sc, std::span<int> parent_edge,
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

namespace {

// No pair has this key: s and t are non-negative ints.
constexpr std::uint64_t kNoPair = ~std::uint64_t{0};

std::uint64_t pair_key(const Commodity& c) {
  return static_cast<std::uint64_t>(c.s) << 32 |
         static_cast<std::uint32_t>(c.t);
}

// The slot linear probing starts from: a multiplicative hash of the key.
std::size_t home(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
         mask;
}

std::size_t place(std::vector<PairDistance>& slots, const PairDistance& entry) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home(entry.key, mask);
  while (slots[i].key != kNoPair) i = (i + 1) & mask;
  slots[i] = entry;
  return i;
}

const PairDistance* find(const DistanceBoundScratch& sc, std::uint64_t key) {
  if (sc.slots.empty()) return nullptr;
  const std::size_t mask = sc.slots.size() - 1;
  for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
    if (sc.slots[i].key == key) return &sc.slots[i];
    if (sc.slots[i].key == kNoPair) return nullptr;
  }
}

// Adds a pair the memo lacks; the table doubles before it passes 3/4 full,
// so once it has held as many pairs, adding them allocates nothing.
void remember(DistanceBoundScratch& sc, const PairDistance& entry) {
  if (4 * (sc.filled.size() + 1) > 3 * sc.slots.size()) {
    std::vector<PairDistance> grown(
        std::max<std::size_t>(64, 2 * sc.slots.size()),
        PairDistance{kNoPair, 0.0});
    for (std::size_t& i : sc.filled) i = place(grown, sc.slots[i]);
    sc.slots.swap(grown);
  }
  sc.filled.push_back(0);  // before placing: a throw leaves no stray slot
  sc.filled.back() = place(sc.slots, entry);
}

}  // namespace

double distance_lower_bound(const Graph& g, const Demand& d,
                            DistanceBoundScratch& scratch) {
  scratch.dijkstra_runs = 0;
  if (d.empty()) return 0.0;
  // The lengths are recomputed on every call; with the topology stamp they
  // key the memo, so any bitwise change since the last call empties it.
  auto& lengths = scratch.lengths;
  bool same_key = scratch.stamp == g.topology_stamp();
  lengths.resize(static_cast<std::size_t>(g.num_edges()));
  double denominator = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    const double length = 1.0 / g.edge(e).capacity;
    double& last = lengths[static_cast<std::size_t>(e)];
    same_key = same_key && std::bit_cast<std::uint64_t>(length) ==
                               std::bit_cast<std::uint64_t>(last);
    last = length;
    denominator += 1.0;  // cap_e * w_e with w_e = 1/cap_e
  }
  if (!same_key) {
    for (std::size_t i : scratch.filled) scratch.slots[i].key = kNoPair;
    scratch.filled.clear();
    scratch.stamp = g.topology_stamp();
  }

  // Look every pair up, summing in commodity order while all of them hit;
  // the pairs the memo lacks stay (s, t)-sorted like the commodities.
  d.commodities_into(scratch.commodities);
  scratch.misses.clear();
  double numerator = 0.0;
  for (const Commodity& c : scratch.commodities) {
    if (const PairDistance* hit = find(scratch, pair_key(c))) {
      numerator += c.amount * hit->dist;
    } else {
      if (scratch.misses.empty() || scratch.misses.back().s != c.s) {
        ++scratch.dijkstra_runs;
      }
      scratch.misses.push_back(c);
    }
  }
  if (scratch.misses.empty()) return numerator / denominator;

  // One early-exit Dijkstra per source with an unseen pair, flagging only
  // the unseen targets; then the sum again, every pair now remembered.
  sum_source_runs(g, scratch.misses, lengths, scratch.runs, {},
                  [&](std::size_t j) {
                    const Commodity& c = scratch.misses[j];
                    const std::size_t t = static_cast<std::size_t>(c.t);
                    remember(scratch, {pair_key(c), scratch.runs.dist[t]});
                  });
  numerator = 0.0;
  for (const Commodity& c : scratch.commodities) {
    numerator += c.amount * find(scratch, pair_key(c))->dist;
  }
  return numerator / denominator;
}

double distance_lower_bound(const Graph& g, const Demand& d) {
  DistanceBoundScratch scratch;
  return distance_lower_bound(g, d, scratch);
}

}  // namespace sor

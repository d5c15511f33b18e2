#include "core/weak_routing.h"

#include <algorithm>
#include <cassert>

namespace sor {

DeletionProcessResult run_deletion_process(const Graph& g,
                                           const PathSystem& ps,
                                           const Demand& d, double gamma) {
  assert(gamma > 0.0);
  assert(ps.store().graph() == &g && "path system is bound to another graph");
  DeletionProcessResult result;
  result.commodities = d.commodities();
  const std::size_t k = result.commodities.size();
  // Zero-hashing gather of the interned edge ids.
  result.flat = flat_candidates(ps, result.commodities);
  result.weights.resize(k);

  // Initial weights w0 (Section 5.3): spread d(s,t) uniformly over the
  // sampled candidates (with multiplicity).
  struct PathRef {
    std::size_t j;
    std::size_t i;
  };
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t count = result.flat.num_paths(j);
    assert(count > 0 && "path system must cover the demand");
    result.weights[j].assign(
        count, result.commodities[j].amount / static_cast<double>(count));
  }
  std::vector<std::vector<PathRef>> paths_on_edge(
      static_cast<std::size_t>(g.num_edges()));
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < result.flat.num_paths(j); ++i) {
      for (int e : result.flat.edges(j, i)) {
        paths_on_edge[static_cast<std::size_t>(e)].push_back(PathRef{j, i});
      }
    }
  }

  // Current load per edge under the live weights.
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t e = 0; e < load.size(); ++e) {
    for (const PathRef& ref : paths_on_edge[e]) {
      load[e] += result.weights[ref.j][ref.i];
    }
  }

  // Sweep edges in id order; congestion is measured relative to capacity so
  // the threshold gamma is a congestion (load/capacity) bound.
  for (int e = 0; e < g.num_edges(); ++e) {
    const double cap = g.edge(e).capacity;
    if (load[static_cast<std::size_t>(e)] / cap <= gamma) continue;
    ++result.edges_overloaded;
    for (const PathRef& ref : paths_on_edge[static_cast<std::size_t>(e)]) {
      const double w = result.weights[ref.j][ref.i];
      if (w <= 0.0) continue;
      result.weights[ref.j][ref.i] = 0.0;
      // Remove this path's weight from every edge it crosses.
      for (int e2 : result.flat.edges(ref.j, ref.i)) {
        load[static_cast<std::size_t>(e2)] -= w;
      }
    }
    assert(load[static_cast<std::size_t>(e)] <= 1e-9);
  }

  // Assemble d' and the result metrics.
  double routed_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    double served = 0.0;
    for (double w : result.weights[j]) served += w;
    if (served > 0.0) {
      result.routed.set(result.commodities[j].s, result.commodities[j].t,
                        served);
      routed_total += served;
    }
  }
  result.edge_load = load;
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  result.congestion = congestion;
  const double total = d.size();
  result.routed_fraction = total > 0.0 ? routed_total / total : 1.0;
  return result;
}

IterativeHalvingResult iterative_halving_route(const Graph& g,
                                               const PathSystem& ps,
                                               const Demand& d, double gamma,
                                               int max_rounds,
                                               double quarter_fraction) {
  IterativeHalvingResult result;
  result.edge_load.assign(static_cast<std::size_t>(g.num_edges()), 0.0);

  Demand remaining = d;
  for (int round = 0; round < max_rounds && !remaining.empty(); ++round) {
    const DeletionProcessResult pass =
        run_deletion_process(g, ps, remaining, gamma);

    // Pairs served at least quarter_fraction of their demand get routed in
    // full by scaling the surviving weights up (factor <= 1/quarter).
    Demand next = remaining;
    bool any = false;
    for (std::size_t j = 0; j < pass.commodities.size(); ++j) {
      const Commodity& c = pass.commodities[j];
      const double served = pass.routed.at(c.s, c.t);
      if (served < quarter_fraction * c.amount || served <= 0.0) continue;
      any = true;
      const double scale = c.amount / served;
      for (std::size_t i = 0; i < pass.flat.num_paths(j); ++i) {
        const double w = pass.weights[j][i] * scale;
        if (w <= 0.0) continue;
        for (int e : pass.flat.edges(j, i)) {
          result.edge_load[static_cast<std::size_t>(e)] += w;
        }
      }
      next.set(c.s, c.t, 0.0);
    }
    ++result.rounds;
    remaining = next;
    if (!any) break;  // the process cannot serve anything at this gamma
  }

  // Flush whatever is left on the first candidate of each pair.
  for (const auto& [pair, value] : remaining.entries()) {
    const auto refs = ps.refs(pair.first, pair.second);
    assert(!refs.empty());
    for (int e : ps.store().edge_ids(refs.front())) {
      result.edge_load[static_cast<std::size_t>(e)] += value;
    }
    result.flushed_size += value;
  }

  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion =
        std::max(congestion, result.edge_load[static_cast<std::size_t>(e)] /
                                 g.edge(e).capacity);
  }
  result.congestion = congestion;
  return result;
}

}  // namespace sor

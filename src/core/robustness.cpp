#include "core/robustness.h"

#include <algorithm>
#include <cassert>

namespace sor {

Graph remove_edges(const Graph& g, const std::vector<int>& failed_edges) {
  std::vector<char> failed(static_cast<std::size_t>(g.num_edges()), 0);
  for (int e : failed_edges) {
    assert(e >= 0 && e < g.num_edges());
    failed[static_cast<std::size_t>(e)] = 1;
  }
  Graph out(g.num_vertices());
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!failed[static_cast<std::size_t>(e)]) {
      out.add_edge(g.edge(e).u, g.edge(e).v, g.edge(e).capacity);
    }
  }
  return out;
}

PathSystem surviving_paths(const Graph& g, const PathSystem& ps,
                           const std::vector<int>& failed_edges) {
  assert(ps.store().graph() == &g && "path system is bound to another graph");
  std::vector<char> failed(static_cast<std::size_t>(g.num_edges()), 0);
  for (int e : failed_edges) failed[static_cast<std::size_t>(e)] = 1;
  const PathStore& store = ps.store();
  PathSystem out(g);
  for (const auto& [pair, refs] : ps.entries()) {
    for (PathRef ref : refs) {
      const auto edges = store.edge_ids(ref);
      const bool ok = std::none_of(edges.begin(), edges.end(), [&](int e) {
        return failed[static_cast<std::size_t>(e)] != 0;
      });
      if (ok) out.add_path(pair.first, pair.second, store.to_path(ref));
    }
  }
  return out;
}

FailureReport evaluate_under_failures(const Graph& g, const PathSystem& ps,
                                      const Demand& d,
                                      const std::vector<int>& failed_edges,
                                      const MinCongestionOptions& options) {
  FailureReport report;
  report.pairs_total = d.support_size();
  report.demand_total = d.size();

  const Graph failed_graph = remove_edges(g, failed_edges);
  const PathSystem survivors = surviving_paths(g, ps, failed_edges);

  Demand covered;
  for (const auto& [pair, value] : d.entries()) {
    if (survivors.has_pair(pair.first, pair.second)) {
      covered.set(pair.first, pair.second, value);
      ++report.pairs_covered;
      report.demand_covered += value;
    }
  }
  if (covered.empty()) return report;

  // Re-intern the survivors against the failed graph (vertex ids unchanged,
  // so every surviving path transfers) and re-optimize rates.
  PathSystem remapped(failed_graph);
  remapped.merge(survivors);
  const auto routed = route_fractional(failed_graph, remapped, covered, options);
  report.congestion = routed.congestion;
  return report;
}

std::vector<int> sample_failures(const Graph& g, int count, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(g.num_edges()));
  for (int e = 0; e < g.num_edges(); ++e) order[static_cast<std::size_t>(e)] = e;
  rng.shuffle(order);
  std::vector<int> failed;
  for (int e : order) {
    if (static_cast<int>(failed.size()) == count) break;
    auto attempt = failed;
    attempt.push_back(e);
    if (remove_edges(g, attempt).is_connected()) failed.push_back(e);
  }
  return failed;
}

PathSystem repair_path_system(const Graph& failed_graph,
                              const ObliviousRouting& routing,
                              const PathSystem& survivors, const Demand& d,
                              int alpha, Rng& rng) {
  PathSystem repaired(failed_graph);
  repaired.merge(survivors);
  for (const auto& [pair, value] : d.entries()) {
    if (survivors.has_pair(pair.first, pair.second)) continue;
    for (int i = 0; i < alpha; ++i) {
      repaired.add_path(pair.first, pair.second,
                        routing.sample_path(pair.first, pair.second, rng));
    }
  }
  return repaired;
}

}  // namespace sor

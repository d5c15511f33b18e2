#include "lp/hop_bounded.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sor {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Layered DP over hop counts. dist[k * n + v] = cheapest walk of <= k hops.
/// parent[k * n + v] = edge used to arrive at v with exactly the optimal
/// hop count k (or -1).
struct HopDp {
  int n = 0;
  int max_hops = 0;
  std::vector<double> dist;
  std::vector<int> parent;

  HopDp(const Graph& g, int source, int hops,
        const std::vector<double>& length)
      : n(g.num_vertices()), max_hops(hops) {
    assert(static_cast<int>(length.size()) == g.num_edges());
    dist.assign(static_cast<std::size_t>((hops + 1)) *
                    static_cast<std::size_t>(n),
                kInf);
    parent.assign(dist.size(), -1);
    at(0, source) = 0.0;
    for (int k = 1; k <= hops; ++k) {
      // Start from "<= k-1 hops" solution: staying put is free.
      for (int v = 0; v < n; ++v) {
        at(k, v) = at(k - 1, v);
        parent_at(k, v) = parent_at(k - 1, v);
      }
      for (int e = 0; e < g.num_edges(); ++e) {
        const Edge& edge = g.edge(e);
        const double w = length[static_cast<std::size_t>(e)];
        if (at(k - 1, edge.u) + w < at(k, edge.v)) {
          at(k, edge.v) = at(k - 1, edge.u) + w;
          parent_at(k, edge.v) = e;
        }
        if (at(k - 1, edge.v) + w < at(k, edge.u)) {
          at(k, edge.u) = at(k - 1, edge.v) + w;
          parent_at(k, edge.u) = e;
        }
      }
    }
  }

  double& at(int k, int v) {
    return dist[static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
  int& parent_at(int k, int v) {
    return parent[static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(v)];
  }
  double value(int k, int v) const {
    return dist[static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }

  /// Reconstructs a <= max_hops walk from source to t; the caller
  /// simplifies. Requires value(max_hops, t) < inf.
  Path extract(const Graph& g, int source, int t) {
    Path reversed = {t};
    int k = max_hops;
    int v = t;
    while (v != source || k > 0) {
      const int e = parent_at(k, v);
      if (e < 0) {
        // Arrived with fewer hops; drop a layer.
        --k;
        assert(k >= 0);
        continue;
      }
      // The parent layer is the largest k' < k with the same prefix cost;
      // stepping back one layer per edge is sound because parent_at(k, v)
      // was set when the edge relaxed layer k.
      v = g.edge(e).other(v);
      reversed.push_back(v);
      --k;
      assert(k >= 0);
    }
    std::reverse(reversed.begin(), reversed.end());
    return simplify_walk(reversed);
  }
};

}  // namespace

std::vector<double> hop_bounded_distances(const Graph& g, int source,
                                          int max_hops,
                                          const std::vector<double>& length) {
  HopDp dp(g, source, max_hops, length);
  std::vector<double> out(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    out[static_cast<std::size_t>(v)] = dp.value(max_hops, v);
  }
  return out;
}

Path hop_bounded_shortest_path(const Graph& g, int s, int t, int max_hops,
                               const std::vector<double>& length) {
  assert(max_hops >= 1);
  HopDp dp(g, s, max_hops, length);
  if (dp.value(max_hops, t) == kInf) return {};
  return dp.extract(g, s, t);
}

CongestionResult min_congestion_hop_bounded(
    const Graph& g, const std::vector<Commodity>& commodities, int max_hops,
    const MinCongestionOptions& options) {
  // Column generation over hop-bounded DP paths: maintain, per commodity,
  // the set of hop-bounded paths discovered so far, and alternate (a) a
  // best response against the current edge lengths via the DP, (b) a
  // restricted MWU solve over the collected columns
  // (min_congestion_over_paths, which runs the shared run_mwu round loop),
  // (c) a length refresh from that solve's loads. Few iterations suffice
  // because each DP adds the currently most violated column.
  const std::size_t k = commodities.size();
  std::vector<std::vector<Path>> columns(k);
  // Edge ids of every discovered column, resolved exactly once when the
  // column is added and reused by the dual certificate and every restricted
  // solve below (the solver re-resolved them per outer iteration before).
  std::vector<std::vector<std::vector<int>>> column_edges(k);
  std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
  for (int e = 0; e < g.num_edges(); ++e) {
    lengths[static_cast<std::size_t>(e)] = 1.0 / g.edge(e).capacity;
  }

  CongestionResult best;
  best.congestion = kInf;
  double best_dual = 0.0;
  const int outer_iterations = 6;
  for (int iter = 0; iter < outer_iterations; ++iter) {
    // (a) add the best-response column for every commodity, and evaluate
    // the h-hop duality certificate under the current lengths w:
    //   opt^(h) >= sum_j d_j * hopdist_w(s_j, t_j) / sum_e cap_e * w_e.
    double dual_numerator = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (commodities[j].amount <= 0.0) continue;
      Path p = hop_bounded_shortest_path(g, commodities[j].s,
                                         commodities[j].t, max_hops, lengths);
      if (p.empty()) {
        std::ostringstream msg;
        msg << "min_congestion_hop_bounded: pair (" << commodities[j].s
            << ", " << commodities[j].t << ") has demand "
            << commodities[j].amount << " but no path of at most "
            << max_hops << " hops joins it";
        throw std::invalid_argument(msg.str());
      }
      assert(hop_count(p) <= max_hops);
      std::vector<int> edges = path_edge_ids(g, p);
      double cost = 0.0;
      for (int e : edges) {
        cost += lengths[static_cast<std::size_t>(e)];
      }
      dual_numerator += commodities[j].amount * cost;
      bool duplicate = false;
      for (const Path& q : columns[j]) {
        if (q == p) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        columns[j].push_back(std::move(p));
        column_edges[j].push_back(std::move(edges));
      }
    }
    double dual_denominator = 0.0;
    for (int e = 0; e < g.num_edges(); ++e) {
      dual_denominator +=
          g.edge(e).capacity * lengths[static_cast<std::size_t>(e)];
    }
    if (dual_denominator > 0.0) {
      best_dual = std::max(best_dual, dual_numerator / dual_denominator);
    }
    // (b) optimize over the columns, on the flat representation.
    FlatCandidates usable;
    for (std::size_t j = 0; j < k; ++j) {
      for (const auto& edges : column_edges[j]) usable.add_path(edges);
      usable.end_commodity();
    }
    CongestionResult result =
        min_congestion_over_paths(g, commodities, usable, options);
    if (result.congestion < best.congestion) {
      best = result;
      best.path_weights.clear();  // column indices are internal
    }
    // (c) refresh lengths from the load profile so the next DP finds the
    // most violated alternative route.
    double max_rel = 0.0;
    for (int e = 0; e < g.num_edges(); ++e) {
      max_rel = std::max(max_rel, result.edge_load[static_cast<std::size_t>(e)] /
                                      g.edge(e).capacity);
    }
    for (int e = 0; e < g.num_edges(); ++e) {
      const double rel = max_rel > 0.0
                             ? result.edge_load[static_cast<std::size_t>(e)] /
                                   (g.edge(e).capacity * max_rel)
                             : 0.0;
      lengths[static_cast<std::size_t>(e)] =
          (1.0 + 9.0 * rel) / g.edge(e).capacity;
    }
  }
  best.lower_bound = best_dual;
  return best;
}

}  // namespace sor

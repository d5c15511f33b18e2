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

  /// Appends the edge ids of a cheapest <= max_hops walk from source to t
  /// onto `edges`, walked back from t. Requires value(max_hops, t) < inf.
  void walk_back(const Graph& g, int source, int t, std::vector<int>& edges) {
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
      edges.push_back(e);
      v = g.edge(e).other(v);
      --k;
      assert(k >= 0);
    }
  }

  /// Reconstructs a <= max_hops walk from source to t and simplifies it.
  /// Requires value(max_hops, t) < inf.
  Path extract(const Graph& g, int source, int t) {
    std::vector<int> edges;
    walk_back(g, source, t, edges);
    Path reversed = {t};
    for (int e : edges) reversed.push_back(g.edge(e).other(reversed.back()));
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

namespace {

// The h-hop pricer: per commodity, the layered DP's cheapest walk of at
// most max_hops edges (a simple path under strictly positive lengths), and
// the DP's distance for the h-hop duality bound
//   opt^(h) >= sum_j d_j * hopdist_w(s_j, t_j) / sum_e cap_e * w_e.
class HopPricer final : public ColumnPricer {
 public:
  HopPricer(const Graph& g, const std::vector<Commodity>& commodities,
            int max_hops)
      : g_(g), commodities_(commodities), max_hops_(max_hops) {}

  double price(const std::vector<double>& lengths,
               FlatCandidates& paths) override {
    double numerator = 0.0;
    for (const Commodity& c : commodities_) {
      if (c.amount > 0.0) {
        HopDp dp(g_, c.s, max_hops_, lengths);
        const double dist = dp.value(max_hops_, c.t);
        if (dist == kInf) {
          std::ostringstream msg;
          msg << "min_congestion_hop_bounded: pair (" << c.s << ", " << c.t
              << ") has demand " << c.amount << " but no path of at most "
              << max_hops_ << " hops joins it";
          throw std::invalid_argument(msg.str());
        }
        numerator += c.amount * dist;
        walk_.clear();
        dp.walk_back(g_, c.s, c.t, walk_);
        std::reverse(walk_.begin(), walk_.end());
        paths.add_path(walk_);
      }
      paths.end_commodity();
    }
    return numerator;
  }

 private:
  const Graph& g_;
  const std::vector<Commodity>& commodities_;
  int max_hops_;
  std::vector<int> walk_;
};

}  // namespace

CongestionResult min_congestion_hop_bounded(
    const Graph& g, const std::vector<Commodity>& commodities, int max_hops,
    const MinCongestionOptions& options) {
  HopPricer pricer(g, commodities, max_hops);
  ColumnGenerationScratch scratch;
  CongestionResult result;
  min_congestion_by_columns_into(g, commodities, options, pricer, scratch,
                                 result);
  result.path_weights.clear();  // they index the internal columns
  return result;
}

}  // namespace sor

// Hop-bounded shortest paths and the hop-constrained offline optimum
// opt^(h) (Section 7): the minimum congestion over routings with dilation
// at most h. This is the competitor completion-time semi-oblivious routing
// is measured against.
//
// The pricer is a layered Bellman-Ford DP: dist[k][v] = the cheapest walk
// from the source to v using <= k edges. Column generation over the
// restricted solve (min_congestion_by_columns_into) then optimizes
// congestion over the h-hop path polytope, as the offline optimum does
// over all paths with a Dijkstra pricer.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "lp/min_congestion.h"

namespace sor {

/// Cheapest s->t path with at most `max_hops` edges under `length`
/// (non-negative). Returns an empty path if unreachable within the bound.
Path hop_bounded_shortest_path(const Graph& g, int s, int t, int max_hops,
                               const std::vector<double>& length);

/// Lengths of the cheapest <= max_hops walks from `source` to every vertex
/// (infinity if unreachable within the bound).
std::vector<double> hop_bounded_distances(const Graph& g, int source,
                                          int max_hops,
                                          const std::vector<double>& length);

/// Fractional min-congestion over all routings with dilation <= max_hops —
/// the paper's opt^(h) (fractional relaxation), by column generation with
/// the hop DP as the pricer. Every commodity with positive demand must be
/// reachable within max_hops; otherwise throws std::invalid_argument
/// naming the pair. `congestion` and `edge_load` are the final restricted
/// solve's over the columns found (path_weights is empty: it would index
/// them); `lower_bound` is the best h-hop duality certificate of the
/// pricing rounds (valid against all h-hop routings).
CongestionResult min_congestion_hop_bounded(
    const Graph& g, const std::vector<Commodity>& commodities, int max_hops,
    const MinCongestionOptions& options = {});

}  // namespace sor

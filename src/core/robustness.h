// Link-failure robustness of semi-oblivious routings.
//
// The paper's Section 1 motivates semi-obliviousness partly by robustness:
// "the set of candidate paths can be chosen more diversely" [KYY+18], so
// when links fail the surviving candidates still carry the traffic after a
// cheap rate re-optimization (no new forwarding state needed). This module
// makes that measurable:
//   * fail a set of edges,
//   * drop every candidate path crossing a failed edge,
//   * report coverage (which pairs still have a path) and the re-optimized
//     congestion on the surviving candidates,
// and provides the repair operation (resampling fresh candidates for the
// disconnected pairs) that a deployment would run afterwards.
#pragma once

#include <vector>

#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "oblivious/routing.h"
#include "util/rng.h"

namespace sor {

/// The graph with `failed_edges` removed. Vertex ids are preserved; edge
/// ids are NOT (callers should treat the result as a fresh graph).
Graph remove_edges(const Graph& g, const std::vector<int>& failed_edges);

/// Removes every candidate path that crosses a failed edge.
PathSystem surviving_paths(const Graph& g, const PathSystem& ps,
                           const std::vector<int>& failed_edges);

struct FailureReport {
  std::size_t pairs_total = 0;
  std::size_t pairs_covered = 0;   ///< pairs retaining >= 1 candidate
  double demand_total = 0.0;
  double demand_covered = 0.0;     ///< demand mass on covered pairs
  double congestion = 0.0;         ///< re-optimized congestion (covered part)
  double coverage() const {
    return demand_total > 0.0 ? demand_covered / demand_total : 1.0;
  }
};

/// Fails `failed_edges`, restricts the path system, re-optimizes rates for
/// the covered part of the demand, and reports coverage + congestion.
/// Congestion is measured against the failed graph's capacities.
FailureReport evaluate_under_failures(const Graph& g, const PathSystem& ps,
                                      const Demand& d,
                                      const std::vector<int>& failed_edges,
                                      const MinCongestionOptions& options = {});

/// Samples `count` distinct edges to fail, never disconnecting the graph
/// (each candidate failure is checked for connectivity and skipped if it
/// would disconnect). May return fewer than `count` if the graph runs out
/// of removable edges.
std::vector<int> sample_failures(const Graph& g, int count, Rng& rng);

/// Repair: resample `alpha` fresh candidates (from `routing`, which must
/// be defined on the failed graph) for every demand pair the failures left
/// uncovered. Returns the repaired path system (survivors + new paths),
/// bound to `failed_graph`.
PathSystem repair_path_system(const Graph& failed_graph,
                              const ObliviousRouting& routing,
                              const PathSystem& survivors, const Demand& d,
                              int alpha, Rng& rng);

}  // namespace sor

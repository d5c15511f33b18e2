// The proof machinery of Theorem 5.3, executable.
//
//  * `run_deletion_process` is the randomized dynamic process at the heart
//    of the Main Lemma (Lemma 5.6 / Section 5.3): put every pair's demand
//    on all its candidate paths at once, sweep the edges in a fixed order,
//    and delete (zero out) every path crossing an edge whose current load
//    exceeds the threshold gamma. What survives is a sub-demand d' routed
//    with congestion <= gamma; the lemma proves siz(d') >= siz(d)/2 w.h.p.
//    for special demands.
//
//  * `iterative_halving_route` is the weak-to-strong reduction (Lemma 5.8):
//    repeatedly route the pairs that the deletion process served at least a
//    quarter of, drop them from the demand, and recurse on the rest;
//    O(log m) rounds route everything with an O(log m) * gamma congestion.
#pragma once

#include "core/demand.h"
#include "core/path_system.h"
#include "graph/graph.h"

namespace sor {

struct DeletionProcessResult {
  /// Per-candidate edge ids, gathered once per call straight from the path
  /// system's interned PathStore spans: flat.edges(j, i) is commodity j's
  /// candidate i, weighted by weights[j][i]. Downstream consumers (the
  /// iterative-halving reduction, benches) iterate these spans instead of
  /// re-resolving edges per use.
  FlatCandidates flat;
  /// d' — the fractional sub-demand actually routed (d'(s,t) <= d(s,t)).
  Demand routed;
  /// Exact congestion of the surviving weights (<= gamma by construction).
  double congestion = 0.0;
  /// siz(d') / siz(d); the Main Lemma says >= 1/2 w.h.p. for special
  /// demands with gamma at the theorem's value.
  double routed_fraction = 0.0;
  /// Number of edges whose paths were deleted (the "bad pattern" support).
  int edges_overloaded = 0;
  /// Final per-edge load.
  std::vector<double> edge_load;
  /// Surviving weight per commodity per candidate path (initial weight of a
  /// candidate is d(s,t)/|P(s,t)| times its multiplicity).
  std::vector<std::vector<double>> weights;
  std::vector<Commodity> commodities;
};

/// One pass of the Lemma 5.6 deletion process at threshold `gamma` (edges
/// processed in id order, matching the paper's fixed arbitrary order).
DeletionProcessResult run_deletion_process(const Graph& g,
                                           const PathSystem& ps,
                                           const Demand& d, double gamma);

struct IterativeHalvingResult {
  /// Total congestion of the combined routing of all of `d`.
  double congestion = 0.0;
  /// Number of weak-routing rounds used (excluding the final flush).
  int rounds = 0;
  /// siz of demand never served by the process and flushed arbitrarily onto
  /// first candidates (0 in the common case).
  double flushed_size = 0.0;
  std::vector<double> edge_load;
};

/// Lemma 5.8 reduction: route `d` fully by repeated deletion-process passes
/// at threshold `gamma`; pairs that get >= quarter_fraction of their demand
/// served are routed in full (congestion multiplies by <= 4) and removed.
/// Stops after `max_rounds` and flushes any leftovers on one candidate.
IterativeHalvingResult iterative_halving_route(const Graph& g,
                                               const PathSystem& ps,
                                               const Demand& d, double gamma,
                                               int max_rounds = 64,
                                               double quarter_fraction = 0.25);

}  // namespace sor

// Adversarial demand search.
//
// A C-competitive semi-oblivious routing must survive ALL demands
// (Stage 3 is adversarial). Random demand ensembles under-estimate the
// true competitive ratio, so the experiments also hill-climb over
// permutation demands: starting from a random permutation, repeatedly try
// local moves (rewiring two pairs) and keep the move if the routed-over-
// optimal ratio grows. The result is a certified lower bound on the
// path system's competitive ratio (the ratio of an explicit demand).
//
// This is the empirical counterpart of the Section 8 adversary, usable on
// any graph rather than just the gadget family.
#pragma once

#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "util/rng.h"

namespace sor {

struct AdversarySearchOptions {
  int iterations = 60;       ///< local moves attempted
  int pool = 4;              ///< random restarts
  MinCongestionOptions routing_options{.rounds = 250, .target_gap = 1.03};
};

struct AdversarySearchResult {
  Demand demand;       ///< worst demand found
  double ratio = 0.0;  ///< cong_R(P, demand) / opt_lower(demand)
  int improving_moves = 0;
};

/// Hill-climbs permutation demands on `vertices` (the candidate endpoints;
/// every pair that the search may use must be covered by `ps`). The ratio
/// uses the distance-duality lower bound for the optimum, so the reported
/// value never overstates the true competitive ratio.
AdversarySearchResult find_bad_permutation(const Graph& g,
                                           const PathSystem& ps,
                                           const std::vector<int>& vertices,
                                           Rng& rng,
                                           const AdversarySearchOptions&
                                               options = {});

}  // namespace sor

// Cross-epoch warm-start state (docs/warm-start.md is the contract page).
//
// WarmStartState is the engine-owned capture of one route's solver
// endpoint: the restricted solve's weights per captured commodity (its
// flow), the routed demand's support, the integral choices per captured
// commodity, and the bookkeeping that decides how the NEXT warm route may
// reuse it — full replay when the instance is bit-identical, a per-pair
// flow seed otherwise, or nothing after rebuild_backend().
//
// Like runtime::EngineScratch it is engine-owned storage that never
// influences a cold route: with RouteSpec::warm_start off (the default) no
// field here is read or written and routing is bit-identical to a build
// without this subsystem.
#pragma once

#include <span>
#include <vector>

#include "core/demand.h"
#include "lp/min_congestion.h"

namespace sor::warm {

/// Everything the previous epoch's solve left behind for the next one.
struct WarmStartState {
  /// False until the first warm-enabled route captures, and again after
  /// SorEngine::rebuild_backend() (a new substrate invalidates everything).
  bool valid = false;
  /// rounds_used of the most recent UNSEEDED (cold-equivalent) solve in
  /// this serving sequence — the reference a warm solve's rounds_saved is
  /// measured against.
  int cold_rounds = 0;
  /// The captured demand's support, (s, t)-sorted (Demand::entries_into).
  std::vector<DemandEntry> demand;
  /// Per captured commodity, aligned with `demand`: the restricted
  /// solve's weights over that pair's installed candidates (the route's
  /// SemiObliviousSolution::weights row). The next warm route seeds each
  /// pair it shares with them, scaled to the pair's new amount. The
  /// offline optimum always solves cold, so nothing of it is captured.
  std::vector<std::vector<double>> weights;
  /// Per captured commodity, aligned with `demand`: the integral rounding's
  /// per-unit candidate indices into that pair's PathSystem::refs (an empty
  /// list when the capturing route did not round).
  /// Both per-pair captures are sized to the commodity count on every
  /// capture; install_paths clears them, because a reinstall resamples
  /// every pair and the indices no longer name the same paths.
  std::vector<std::vector<int>> choices;

  void invalidate() {
    valid = false;
    weights.clear();
    demand.clear();
    choices.clear();
    cold_rounds = 0;
  }
};

/// Per-route warm hooks the engine threads into route_one_into: the
/// restricted solve's seed and the rounding seed.
/// All-null == cold route (bit-identical to a build without warm starts).
struct RouteWarmHooks {
  MwuHooks restricted;
  /// Previous epoch's integral choices per CURRENT commodity (see
  /// round_randomized's seed_choices parameter).
  const std::vector<std::vector<int>>* rounding_seed = nullptr;
};

/// True iff `prev` captures exactly `cur`'s support (same pairs, bitwise
/// equal values) — the replay precondition.
bool demand_matches(std::span<const DemandEntry> prev, const Demand& cur);

}  // namespace sor::warm

// Cross-epoch warm-start state (docs/warm-start.md is the contract page).
//
// WarmStartState is the engine-owned capture of one route's solver
// endpoint: the restricted MWU adversary log-weights, the routed demand's
// support, the integral choices per captured commodity, and the
// bookkeeping that decides how the NEXT warm route may reuse it — full
// replay when the instance is bit-identical, a damped log-weight seed
// otherwise, or nothing after rebuild_backend().
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
  /// Final adversary log-weights of the restricted solve (one per edge;
  /// empty until the first capture). The offline optimum always solves
  /// cold, so nothing of it is captured.
  std::vector<double> restricted_log_x;
  /// The captured demand's support, (s, t)-sorted (Demand::entries_into).
  std::vector<DemandEntry> demand;
  /// Per captured commodity, aligned with `demand`: the integral rounding's
  /// per-unit candidate indices into that pair's PathSystem::refs (an empty
  /// list when the capturing route did not round). Sized to the commodity
  /// count on every capture; install_paths clears it, because a reinstall
  /// resamples every pair and the indices no longer name the same paths.
  std::vector<std::vector<int>> choices;

  void invalidate() {
    valid = false;
    restricted_log_x.clear();
    demand.clear();
    choices.clear();
    cold_rounds = 0;
  }
};

/// Per-route warm hooks the engine threads into route_one_into: the
/// restricted solve's seed and capture target, and the rounding seed.
/// All-null == cold route (bit-identical to a build without warm starts).
struct RouteWarmHooks {
  MwuHooks restricted;
  /// Previous epoch's integral choices per CURRENT commodity (see
  /// round_randomized's seed_choices parameter).
  const std::vector<std::vector<int>>* rounding_seed = nullptr;
};

/// The damping factor lambda applied to a seeded log-weight vector after a
/// demand delta: the volume overlap
///   sum_{(s,t)} min(prev(s,t), cur(s,t)) / max(total(prev), total(cur))
/// in [0, 1]. 1 when the demands are identical, 0 when the supports are
/// disjoint (the seed degenerates to a cold start — the documented
/// rounds_saved ~ 0 regime under large support churn). `prev` must be
/// (s, t)-sorted (the Demand::entries_into order).
double support_overlap_scale(std::span<const DemandEntry> prev,
                             const Demand& cur);

/// True iff `prev` captures exactly `cur`'s support (same pairs, bitwise
/// equal values) — the replay precondition.
bool demand_matches(std::span<const DemandEntry> prev, const Demand& cur);

}  // namespace sor::warm

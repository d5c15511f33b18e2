// Cross-epoch warm-start state (docs/warm-start.md is the contract page).
//
// WarmStartState is the engine-owned capture of one route's solver
// endpoint: the restricted and free MWU adversary log-weights, the routed
// demand's support, the column pool (candidate paths + integral choices
// per pair), and the bookkeeping that decides how the NEXT warm route may
// reuse it — full replay when the instance is bit-identical, a damped
// log-weight seed otherwise, or nothing after rebuild_backend().
//
// Like runtime::EngineScratch it is engine-owned storage that never
// influences a cold route: with RouteSpec::warm_start off (the default) no
// field here is read or written and routing is bit-identical to a build
// without this subsystem.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/demand.h"
#include "lp/min_congestion.h"
#include "warm/column_pool.h"

namespace sor::warm {

/// Everything the previous epoch's solve left behind for the next one.
struct WarmStartState {
  /// False until the first warm-enabled route captures, and again after
  /// SorEngine::rebuild_backend() (a new substrate invalidates everything).
  bool valid = false;
  /// Engine counters at capture time: replay (returning the stored report
  /// verbatim) additionally requires both to still match, i.e. no capacity
  /// edit and no reinstall since the capture. The log-weight seed is
  /// version-insensitive — capacity edits rescale it in place and path
  /// reinstalls don't touch edge-level state.
  std::uint64_t graph_version = 0;
  std::uint64_t paths_version = 0;
  /// rounds_used of the most recent UNSEEDED (cold-equivalent) solve in
  /// this serving sequence — the reference a warm solve's rounds_saved is
  /// measured against.
  int cold_rounds = 0;
  /// Final adversary log-weights of the restricted solve (one per edge;
  /// empty until the first capture) and of the free-path optimum oracle
  /// (empty when compute_optimum was off).
  std::vector<double> restricted_log_x;
  std::vector<double> free_log_x;
  /// The captured demand's support, (s, t)-sorted (Demand::entries_into).
  std::vector<DemandEntry> demand;
  /// Per-pair candidate columns + integral choices of the captured route.
  ColumnPool columns;

  void invalidate() {
    valid = false;
    restricted_log_x.clear();
    free_log_x.clear();
    demand.clear();
    columns.clear();
    cold_rounds = 0;
  }
};

/// Per-route warm hooks the engine threads into route_one_into: each
/// solver's seed and capture target, and the rounding seed. All-null ==
/// cold route (bit-identical to a build without warm starts).
struct RouteWarmHooks {
  MwuHooks restricted;
  MwuHooks free_path;
  /// Previous epoch's integral choices mapped to CURRENT candidate indices
  /// (see round_randomized's seed_choices parameter).
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

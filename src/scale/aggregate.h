// Deterministic pre-solve demand aggregation.
//
// BatchAggregator groups a stream of demands by their EXACT entry content
// (pairs and values, compared bitwise): demands with identical entry lists
// coalesce into one group carrying a multiplicity. Grouping is keyed on
// the whole content — never on the support alone — because the restricted solver
// is not scale-equivariant in the demand value, so coalescing different
// values into a summed commodity would change results. With exact-content
// groups, solving the representative ONCE reproduces every member's
// report bit for bit (the solve is a deterministic function of the
// demand when no Rng is drawn), and the batch's merged edge loads are
//
//   global_edge_load[e] = sum over groups g (first-seen order) of
//                         multiplicity_g * load_g[e]
//
// — a canonical serial fold whose order and arithmetic do not depend on
// whether aggregation is on or how many threads solve. That fold is the
// aggregated-vs-raw / thread-count bit-identity argument of route_batch's
// scale-out mode (see api/sor_engine.h).
//
// The index is a flat open-addressing table over plain vectors (no
// node-based containers), so a reused aggregator reaches a steady state
// with no per-demand allocation once its capacity is warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/demand.h"

namespace sor::scale {

/// One group of content-identical demands.
struct DemandGroup {
  std::size_t offset = 0;         ///< first entry in the aggregator arena
  std::uint32_t len = 0;          ///< entry count
  std::int64_t multiplicity = 0;  ///< how many stream demands coalesced
};

class BatchAggregator {
 public:
  /// Forgets every group while retaining capacity.
  void reset();

  /// Registers one pulled demand (entries per the DemandSource contract)
  /// and returns its group id — a new group in first-seen order, or an
  /// existing one whose multiplicity is bumped.
  int add(std::span<const DemandEntry> entries);

  std::span<const DemandGroup> groups() const { return groups_; }
  std::span<const DemandEntry> group_entries(int g) const {
    const DemandGroup& group = groups_[static_cast<std::size_t>(g)];
    return std::span<const DemandEntry>(arena_).subspan(group.offset,
                                                        group.len);
  }

 private:
  void grow_table();

  std::vector<DemandEntry> arena_;       ///< all groups' entries, contiguous
  std::vector<DemandGroup> groups_;      ///< first-seen order
  std::vector<std::uint64_t> hashes_;    ///< per group (grow without rehash)
  std::vector<std::int32_t> table_;      ///< open addressing; -1 = empty
  std::size_t mask_ = 0;
};

}  // namespace sor::scale

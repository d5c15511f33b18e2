// Cross-epoch column pool: the per-pair candidate columns (interned
// PathRefs) of the previous epoch and the per-unit integral choice among
// them when rounding ran, kept alive ACROSS epochs so the next route's
// rounding can start from the previous integral solution (remapped onto
// the current candidate indexing).
//
// Lifetime under the reinstall cycle. Pool entries hold PathRefs into the
// engine's PathStore arena, so they must follow the arena through
// begin_reinstall()/compact_store(): the engine forwards each compaction's
// PathRemap into apply_remap(), which rewrites surviving refs in place and
// RETIRES entries whose slabs were dropped (PathRemap::try_remap returns
// nullopt for them — a reinstall appends fresh slabs past the old arena end
// before compacting, so a dead ref can never alias a survivor). After a
// full reinstall every old ref is dead and the pool legitimately empties;
// the edge-level MWU warm state (WarmStartState) survives independently.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/path_store.h"

namespace sor::warm {

/// Per-pair columns of one captured epoch: the candidate paths, and the
/// integral rounding's per-unit candidate index into `columns` (empty when
/// the capturing route did not round).
struct PairColumns {
  std::vector<PathRef> columns;
  std::vector<int> choices;
};

class ColumnPool {
 public:
  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  std::size_t num_pairs() const { return entries_.size(); }

  /// Records pair (s, t)'s column set, replacing any previous entry.
  /// `refs` is in PathSystem::refs order, which `choices` indexes;
  /// `choices` may be empty.
  void record(int s, int t, std::span<const PathRef> refs,
              std::span<const int> choices);

  /// The recorded columns for (s, t), or nullptr.
  const PairColumns* find(int s, int t) const;

  /// Rewrites every recorded ref through a compaction's remap. An entry
  /// with ANY dropped ref is retired wholesale — its choices index a
  /// candidate list that no longer exists.
  void apply_remap(const PathRemap& remap);

 private:
  static std::int64_t pair_key(int s, int t) {
    return (static_cast<std::int64_t>(s) << 32) |
           static_cast<std::uint32_t>(t);
  }
  // Ordered map: deterministic iteration, matching the PathSystem idiom.
  std::map<std::int64_t, PairColumns> entries_;
};

}  // namespace sor::warm

#include "warm/column_pool.h"

#include "obs/trace.h"

namespace sor::warm {

void ColumnPool::record(int s, int t, std::span<const PathRef> refs,
                        std::span<const int> choices) {
  PairColumns& entry = entries_[pair_key(s, t)];
  entry.columns.assign(refs.begin(), refs.end());
  entry.choices.assign(choices.begin(), choices.end());
}

const PairColumns* ColumnPool::find(int s, int t) const {
  const auto it = entries_.find(pair_key(s, t));
  return it == entries_.end() ? nullptr : &it->second;
}

void ColumnPool::apply_remap(const PathRemap& remap) {
  std::uint64_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool alive = true;
    for (PathRef& ref : it->second.columns) {
      if (const auto remapped = remap.try_remap(ref)) {
        ref = *remapped;
      } else {
        alive = false;
        break;
      }
    }
    if (!alive) ++evicted;
    it = alive ? std::next(it) : entries_.erase(it);
  }
  if (evicted > 0) {
    // One instant per remap that lost pairs: warm-start quality decays
    // exactly where these land in the timeline.
    obs::tracer().record_instant("columns_evicted", "warm", "pairs", evicted);
  }
}

}  // namespace sor::warm

#include "scale/aggregate.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"

namespace sor::scale {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_entries(std::span<const DemandEntry> entries) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ entries.size();
  for (const DemandEntry& e : entries) {
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.s)) << 32) |
        static_cast<std::uint32_t>(e.t);
    h = mix64(h ^ pair);
    h = mix64(h ^ std::bit_cast<std::uint64_t>(e.value));
  }
  return h;
}

}  // namespace

void BatchAggregator::reset() {
  arena_.clear();
  groups_.clear();
  hashes_.clear();
  // Keep the table's capacity; just empty every slot.
  if (!table_.empty()) table_.assign(table_.size(), -1);
}

void BatchAggregator::grow_table() {
  const std::size_t capacity =
      table_.empty() ? 64 : table_.size() * 2;
  // Rehashes are the aggregator's only steady-state allocation source;
  // marking each one makes ingest-time growth visible in a trace.
  obs::tracer().record_instant("agg_table_grow", "scale", "capacity",
                               static_cast<std::uint64_t>(capacity));
  table_.assign(capacity, -1);
  mask_ = capacity - 1;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::size_t slot = hashes_[g] & mask_;
    while (table_[slot] >= 0) slot = (slot + 1) & mask_;
    table_[slot] = static_cast<std::int32_t>(g);
  }
}

int BatchAggregator::add(std::span<const DemandEntry> entries) {
  // Load factor <= 1/2 so linear probing stays short.
  if ((groups_.size() + 1) * 2 > table_.size()) grow_table();
  const std::uint64_t h = hash_entries(entries);
  std::size_t slot = h & mask_;
  for (;;) {
    const std::int32_t g = table_[slot];
    if (g < 0) {
      const std::int32_t fresh = static_cast<std::int32_t>(groups_.size());
      DemandGroup group;
      group.offset = arena_.size();
      group.len = static_cast<std::uint32_t>(entries.size());
      group.multiplicity = 1;
      arena_.insert(arena_.end(), entries.begin(), entries.end());
      groups_.push_back(group);
      hashes_.push_back(h);
      table_[slot] = fresh;
      return fresh;
    }
    if (hashes_[static_cast<std::size_t>(g)] == h) {
      const std::span<const DemandEntry> mine = group_entries(g);
      if (mine.size() == entries.size() &&
          std::equal(mine.begin(), mine.end(), entries.begin())) {
        ++groups_[static_cast<std::size_t>(g)].multiplicity;
        return g;
      }
    }
    slot = (slot + 1) & mask_;
  }
}

}  // namespace sor::scale

// Pull-based demand streaming: the scale-out ingestion surface.
//
// A DemandSource yields one demand per next() as a flat, (s, t)-sorted
// span of DemandEntry — no materialized std::vector<Demand> anywhere
// between the producer and the engine. SorEngine::route_batch consumes a
// source in ONE forward pass (the whole stream is ingested and validated
// before anything is solved), so a source backed by a file or a socket
// never needs rewinding, and in aggregate-only mode the engine's memory
// is a function of the number of DISTINCT demands, not the stream length.
//
// Contract for implementors:
//   * entries are strictly increasing by (s, t) with s != t and
//     value > 0 — exactly the invariant of Demand::entries(); the engine
//     re-validates and throws std::invalid_argument on violation;
//   * the returned span stays valid until the next next() call (or
//     destruction) — buffer reuse is the point: adapters overwrite one
//     internal buffer per pull;
//   * the ORDER of pulled demands is semantic: demand i is matched with
//     the i-th Rng stream seed-split from the engine stream (see
//     api/sor_engine.h), so two sources producing the same sequence are
//     fully interchangeable, bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/demand.h"

namespace sor::scale {

class DemandSource {
 public:
  virtual ~DemandSource() = default;

  /// Pulls the next demand into `out`. Returns false at end of stream
  /// (`out` is then unspecified). May throw to reject malformed input —
  /// route_batch ingests the whole stream before solving, so a throw
  /// always precedes any routing work.
  virtual bool next(std::span<const DemandEntry>& out) = 0;
};

/// Adapter over already-materialized demands (a vector binds implicitly):
/// streams each Demand's entries through one reused buffer. This is what
/// the route_batch(std::span<const Demand>) overload wraps, so span/vector
/// callers and streaming callers hit the identical pipeline.
class SpanDemandSource final : public DemandSource {
 public:
  explicit SpanDemandSource(std::span<const Demand> demands)
      : demands_(demands) {}

  bool next(std::span<const DemandEntry>& out) override {
    if (index_ >= demands_.size()) return false;
    demands_[index_++].entries_into(buffer_);
    out = buffer_;
    return true;
  }

 private:
  std::span<const Demand> demands_;
  std::size_t index_ = 0;
  std::vector<DemandEntry> buffer_;
};

/// Adapter over a flat (s, t, value) event list: each entry becomes one
/// single-pair demand — the natural shape of a raw ingestion feed, and the
/// shape whose duplicates BatchSpec::aggregate_duplicates coalesces.
class EntrySpanDemandSource final : public DemandSource {
 public:
  explicit EntrySpanDemandSource(std::span<const DemandEntry> entries)
      : entries_(entries) {}

  bool next(std::span<const DemandEntry>& out) override {
    if (index_ >= entries_.size()) return false;
    out = entries_.subspan(index_++, 1);
    return true;
  }

 private:
  std::span<const DemandEntry> entries_;
  std::size_t index_ = 0;
};

/// Drains `source` and returns its sorted, deduplicated (s, t) support —
/// the SamplingSpec::pairs to install before routing the same stream
/// again. This is the first pass of the two-pass pattern for sources that
/// can be re-opened (files): collect support, install_paths, re-open,
/// route_batch.
inline std::vector<std::pair<int, int>> collect_support_pairs(
    DemandSource& source) {
  std::vector<std::pair<int, int>> pairs;
  std::span<const DemandEntry> entries;
  while (source.next(entries)) {
    for (const DemandEntry& e : entries) pairs.emplace_back(e.s, e.t);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace sor::scale

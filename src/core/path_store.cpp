#include "core/path_store.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace sor {

PathRef PathStore::intern(const Path& path) {
  assert(!path.empty());
  const int hops = hop_count(path);
  PathRef ref;
  ref.offset = static_cast<std::int64_t>(data_.size());
  ref.hops = hops;
  // No reserve: exact-size reserve before every append would defeat the
  // vector's geometric growth and make interning quadratic.
  data_.insert(data_.end(), path.begin(), path.end());
  for (int i = 0; i < hops; ++i) {
    const int e = g_->edge_between(path[static_cast<std::size_t>(i)],
                                   path[static_cast<std::size_t>(i) + 1]);
    if (e < 0) {
      // Checked in release builds too: a -1 stored as an edge id would be
      // indexed as load[(size_t)-1] by the flat consumers — fail loudly at
      // insertion (e.g. merging a system built on a different graph)
      // instead of corrupting memory at route time.
      data_.resize(static_cast<std::size_t>(ref.offset));
      std::ostringstream msg;
      msg << "PathStore::intern: path vertices " << path[static_cast<std::size_t>(i)]
          << " and " << path[static_cast<std::size_t>(i) + 1]
          << " are not adjacent in the bound graph";
      throw std::invalid_argument(msg.str());
    }
    data_.push_back(e);
  }
  ++num_paths_;
  return ref;
}

PathRef PathStore::adopt(const PathStore& other, PathRef ref) {
  assert(g_ == other.g_ && "adopt requires both stores bound to the same graph");
  PathRef rebased;
  rebased.offset = static_cast<std::int64_t>(data_.size());
  rebased.hops = ref.hops;
  const int* slab = other.data_.data() + ref.offset;
  data_.insert(data_.end(), slab, slab + 2 * ref.hops + 1);
  ++num_paths_;
  return rebased;
}

FlatCandidates flatten_candidates(
    const Graph& g, const std::vector<std::vector<Path>>& paths) {
  FlatCandidates flat;
  std::size_t total_paths = 0;
  std::size_t total_edges = 0;
  for (const auto& list : paths) {
    total_paths += list.size();
    for (const Path& p : list) {
      total_edges += static_cast<std::size_t>(hop_count(p));
    }
  }
  flat.reserve(total_paths, total_edges);
  std::vector<int> scratch;
  for (const auto& list : paths) {
    for (const Path& p : list) {
      scratch.clear();
      const int hops = hop_count(p);
      scratch.reserve(static_cast<std::size_t>(hops));
      for (int i = 0; i < hops; ++i) {
        const int e = g.edge_between(p[static_cast<std::size_t>(i)],
                                     p[static_cast<std::size_t>(i) + 1]);
        assert(e >= 0 && "consecutive path vertices must be adjacent");
        scratch.push_back(e);
      }
      flat.add_path(scratch);
    }
    flat.end_commodity();
  }
  return flat;
}

}  // namespace sor

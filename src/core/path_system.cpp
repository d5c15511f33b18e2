#include "core/path_system.h"

#include <algorithm>
#include <cassert>

#include "graph/maxflow.h"

namespace sor {

void PathSystem::add_path(int s, int t, const Path& path) {
  assert(s != t);
  assert(!path.empty() && path.front() == s && path.back() == t);
#ifndef NDEBUG
  const int n = store_.graph()->num_vertices();
  for (int v : path) assert(v >= 0 && v < n && "path vertex out of range");
#endif
  // Intern first: a throwing intern must not leave an empty pair behind.
  const PathRef ref = store_.intern(path);
  auto& list = index_[{s, t}];
  list.push_back(ref);
  ++total_paths_;
  sparsity_ = std::max(sparsity_, list.size());
}

std::vector<Path> PathSystem::paths(int s, int t) const {
  const std::span<const PathRef> list = refs(s, t);
  std::vector<Path> out;
  out.reserve(list.size());
  for (PathRef ref : list) out.push_back(store_.to_path(ref));
  return out;
}

std::span<const PathRef> PathSystem::refs(int s, int t) const {
  auto it = index_.find({s, t});
  if (it == index_.end()) return {};
  return it->second;
}

bool PathSystem::has_pair(int s, int t) const {
  return index_.find({s, t}) != index_.end();
}

void PathSystem::clear() {
  index_.clear();
  store_.clear();
  sparsity_ = 0;
  total_paths_ = 0;
}

void PathSystem::merge(const PathSystem& other) {
  const bool adopt = store_.graph() == other.store_.graph();
  std::vector<PathRef> staged;
  for (const auto& [pair, refs] : other.index_) {
    // Stage the pair's refs before touching the index: intern may throw
    // (untransferable path), and a caller that catches keeps a consistent
    // system with every fully-processed pair merged and the failing pair
    // untouched.
    staged.clear();
    for (PathRef ref : refs) {
      staged.push_back(adopt ? store_.adopt(other.store_, ref)
                             : store_.intern(other.store_.to_path(ref)));
    }
    auto& mine = index_[pair];
    mine.insert(mine.end(), staged.begin(), staged.end());
    total_paths_ += staged.size();
    sparsity_ = std::max(sparsity_, mine.size());
  }
}

void flat_candidates_into(const PathSystem& ps,
                          const std::vector<Commodity>& commodities,
                          FlatCandidates& out) {
  const PathStore& store = ps.store();
  out.clear();
  std::size_t total_paths = 0;
  std::size_t total_edges = 0;
  for (const Commodity& c : commodities) {
    for (PathRef ref : ps.refs(c.s, c.t)) {
      ++total_paths;
      total_edges += static_cast<std::size_t>(ref.hops);
    }
  }
  out.reserve(total_paths, total_edges, commodities.size());
  for (const Commodity& c : commodities) {
    for (PathRef ref : ps.refs(c.s, c.t)) {
      out.add_path(store.edge_ids(ref));
    }
    out.end_commodity();
  }
}

FlatCandidates flat_candidates(const PathSystem& ps,
                               const std::vector<Commodity>& commodities) {
  FlatCandidates flat;
  flat_candidates_into(ps, commodities, flat);
  return flat;
}

namespace {

/// Shared fan-out skeleton of the two samplers: `draws(i)` paths for pair
/// i, each pair on its own seed-split stream, results appended to `ps` in
/// pair order. Pair-independent streams make the output thread-count
/// invariant, and appending into a caller-owned system lets a service
/// reinstall into the same arena it has been serving from.
template <typename DrawCount>
void sample_pairs_into(const ObliviousRouting& routing,
                       const std::vector<std::pair<int, int>>& pairs,
                       Rng& rng, util::ThreadPool* pool,
                       const DrawCount& draws, PathSystem& ps) {
  assert(ps.store().graph() == &routing.graph() &&
         "sample_pairs_into requires a system bound to the routing's graph");
  std::vector<Rng> streams = rng.split(pairs.size());
  std::vector<std::vector<Path>> sampled(pairs.size());
  auto sample_one = [&](std::size_t i) {
    const auto [s, t] = pairs[i];
    if (s == t) return;
    const int count = draws(i);
    sampled[i].reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      sampled[i].push_back(routing.sample_path(s, t, streams[i]));
    }
  };
  if (pool) {
    pool->parallel_for(pairs.size(), sample_one);
  } else {
    for (std::size_t i = 0; i < pairs.size(); ++i) sample_one(i);
  }
  // One arena allocation at the sampled total: the install never holds a
  // grown arena's old and new buffers on top of every sampled path. The
  // draws are freed together, after the last intern. Freeing each pair's
  // draws as soon as they were interned saved no peak memory on perfbench's
  // dense-batch and slowed its epochs by about 5%: the pair index's nodes
  // then fill the holes between the remaining draws, and serving allocates
  // into the scattered holes they leave.
  std::size_t arena_ints = 0;
  for (const std::vector<Path>& draws_of_pair : sampled) {
    for (const Path& path : draws_of_pair) arena_ints += 2 * path.size() - 1;
  }
  ps.reserve_arena(arena_ints);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (const Path& path : sampled[i]) {
      ps.add_path(pairs[i].first, pairs[i].second, path);
    }
  }
}

}  // namespace

void sample_path_system_into(const ObliviousRouting& routing, int alpha,
                             const std::vector<std::pair<int, int>>& pairs,
                             Rng& rng, util::ThreadPool* pool,
                             PathSystem& ps) {
  assert(alpha >= 1);
  sample_pairs_into(routing, pairs, rng, pool,
                    [alpha](std::size_t) { return alpha; }, ps);
}

PathSystem sample_path_system(const ObliviousRouting& routing, int alpha,
                              const std::vector<std::pair<int, int>>& pairs,
                              Rng& rng, util::ThreadPool* pool) {
  PathSystem ps(routing.graph());
  sample_path_system_into(routing, alpha, pairs, rng, pool, ps);
  return ps;
}

std::uint64_t fingerprint(const PathSystem& ps) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const PathStore& store = ps.store();
  for (const auto& [pair, refs] : ps.entries()) {
    mix(pair.first);
    mix(pair.second);
    for (PathRef ref : refs) {
      mix(ref.offset);
      for (int v : store.vertices(ref)) mix(v);
      for (int e : store.edge_ids(ref)) mix(e);
    }
  }
  return hash;
}

std::vector<std::pair<int, int>> all_ordered_pairs(int n) {
  std::vector<std::pair<int, int>> pairs;
  if (n > 1) {
    pairs.reserve(static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(n - 1));
  }
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

PathSystem sample_path_system_all_pairs(const ObliviousRouting& routing,
                                        int alpha, Rng& rng,
                                        util::ThreadPool* pool) {
  return sample_path_system(routing, alpha,
                            all_ordered_pairs(routing.graph().num_vertices()),
                            rng, pool);
}

void sample_path_system_with_cut_into(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool, PathSystem& ps) {
  assert(alpha >= 1);
  const Graph& g = routing.graph();
  // The Dinic cut runs inside the fan-out too: it is deterministic, so it
  // only affects the per-pair draw count, never the stream assignment.
  sample_pairs_into(
      routing, pairs, rng, pool,
      [&](std::size_t i) {
        return alpha + cut_value(g, pairs[i].first, pairs[i].second);
      },
      ps);
}

PathSystem sample_path_system_with_cut(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool) {
  PathSystem ps(routing.graph());
  sample_path_system_with_cut_into(routing, alpha, pairs, rng, pool, ps);
  return ps;
}

std::vector<std::pair<int, int>> support_pairs(const Demand& d) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(d.support_size());
  for (const auto& [pair, value] : d.entries()) pairs.push_back(pair);
  return pairs;
}

Demand special_demand(const Graph& g, int alpha,
                      const std::vector<std::pair<int, int>>& pairs) {
  Demand d;
  for (const auto& [s, t] : pairs) {
    if (s == t) continue;
    d.set(s, t, static_cast<double>(alpha + cut_value(g, s, t)));
  }
  return d;
}

}  // namespace sor

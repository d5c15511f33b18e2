// Flat-memory path substrate: an arena that interns each candidate path
// once — contiguous vertex ids AND precomputed canonical edge ids — so that
// every hot loop downstream (the restricted solve, congestion accounting,
// rounding, packet simulation) iterates `span<const int>` with zero hashing.
// Edge resolution through Graph::edge_between happens exactly once, at
// insertion: from there on the interned ids are the path, also after a
// capacity edit changes which parallel edge edge_between would pick.
//
// Memory layout. One `std::vector<int>` arena; a path with h hops occupies
// a single slab of 2h + 1 ints:
//
//   [ v_0 v_1 ... v_h | e_0 e_1 ... e_{h-1} ]
//     ^offset            ^offset + h + 1
//
// A PathRef is the trivially-copyable handle {offset, hops}. Refs are
// stable under further interning (the arena only appends; spans are
// re-derived from the ref on every access, so vector growth never
// invalidates a ref, only an outstanding span).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace sor {

/// Trivially-copyable handle into a PathStore arena.
struct PathRef {
  std::int64_t offset = 0;  ///< arena index of the first vertex
  std::int32_t hops = 0;    ///< edges on the path (vertices = hops + 1)
};

/// Append-only interning arena for simple paths of one fixed graph.
class PathStore {
 public:
  /// Binds the store to `g` (not owned; must outlive the store's use).
  explicit PathStore(const Graph& g) : g_(&g) {}

  /// The bound graph.
  const Graph* graph() const { return g_; }

  /// Interns `path`, resolving each hop to its canonical edge id exactly
  /// once. Throws std::invalid_argument (in every build type) if
  /// consecutive vertices are not adjacent in the bound graph — e.g. when
  /// merging a path system built on a structurally different graph.
  PathRef intern(const Path& path);

  /// Copies the slab behind `ref` from `other` (bound to the same graph)
  /// without re-resolving edges; returns the re-based ref.
  PathRef adopt(const PathStore& other, PathRef ref);

  /// Makes room for `ints` more arena ints in at most one allocation (a
  /// path of h hops takes 2h + 1); no-op when the capacity already holds
  /// them.
  void reserve(std::size_t ints) { data_.reserve(data_.size() + ints); }

  /// Drops every path but keeps the arena's capacity, so a reinstall that
  /// interns no more than the last one reallocates nothing. Every ref into
  /// the store is dead afterwards.
  void clear() {
    data_.clear();
    num_paths_ = 0;
  }

  std::span<const int> vertices(PathRef ref) const {
    return {data_.data() + ref.offset, static_cast<std::size_t>(ref.hops) + 1};
  }
  std::span<const int> edge_ids(PathRef ref) const {
    return {data_.data() + ref.offset + ref.hops + 1,
            static_cast<std::size_t>(ref.hops)};
  }

  /// Materializes the vertex sequence (the boundary `Path` type).
  Path to_path(PathRef ref) const {
    const auto verts = vertices(ref);
    return Path(verts.begin(), verts.end());
  }

  std::size_t num_paths() const { return num_paths_; }
  std::size_t arena_size() const { return data_.size(); }
  std::size_t arena_capacity() const { return data_.capacity(); }

 private:
  const Graph* g_ = nullptr;
  std::vector<int> data_;
  std::size_t num_paths_ = 0;
};

/// Flat, path-major arena of candidate edge ids for a commodity list:
/// commodity j's candidate i occupies one contiguous span. This is the
/// representation the restricted solve, rounding, local search, congestion
/// accounting and packet simulation iterate — built once per solve, with
/// zero hashing when the source is a PathSystem (flat_candidates gathers
/// its interned spans) and one hash per hop when it is a list of vertex
/// paths (flatten_candidates).
class FlatCandidates {
 public:
  /// Pre-sizes all three internal vectors. `commodities == 0` (the common
  /// call sites don't know the commodity count up front) falls back to
  /// `paths` — an over-reserve, never an under-reserve.
  void reserve(std::size_t paths, std::size_t edges,
               std::size_t commodities = 0) {
    path_first_.reserve(paths + 1);
    arena_.reserve(edges);
    commodity_first_.reserve((commodities == 0 ? paths : commodities) + 1);
  }

  /// Resets to the empty prefix state, retaining every vector's capacity —
  /// the rebuild-per-solve path this enables is allocation-free once warm.
  void clear() {
    arena_.clear();
    path_first_.clear();
    path_first_.push_back(0);
    commodity_first_.clear();
    commodity_first_.push_back(0);
  }

  /// Appends one candidate path for the CURRENT commodity.
  void add_path(std::span<const int> edge_ids) {
    arena_.insert(arena_.end(), edge_ids.begin(), edge_ids.end());
    path_first_.push_back(static_cast<std::int64_t>(arena_.size()));
  }

  /// Closes the current commodity. Call exactly once per commodity, in
  /// commodity order, after its add_path calls.
  void end_commodity() {
    commodity_first_.push_back(
        static_cast<std::int64_t>(path_first_.size()) - 1);
  }

  std::size_t num_commodities() const { return commodity_first_.size() - 1; }
  std::size_t num_paths(std::size_t j) const {
    return static_cast<std::size_t>(commodity_first_[j + 1] -
                                    commodity_first_[j]);
  }
  std::size_t total_paths() const { return path_first_.size() - 1; }
  std::size_t total_edges() const { return arena_.size(); }

  std::span<const int> edges(std::size_t j, std::size_t i) const {
    const std::size_t p =
        static_cast<std::size_t>(commodity_first_[j]) + i;
    return {arena_.data() + path_first_[p],
            static_cast<std::size_t>(path_first_[p + 1] - path_first_[p])};
  }

  /// Same commodities with the same candidates' edge ids, in order.
  friend bool operator==(const FlatCandidates&,
                         const FlatCandidates&) = default;

 private:
  std::vector<int> arena_;
  std::vector<std::int64_t> path_first_{0};       // prefix over paths
  std::vector<std::int64_t> commodity_first_{0};  // prefix over path indices
};

/// Hash bridge for the vertex-path entry points — the vertex overloads of
/// min_congestion_over_paths and congestion_of_weights, and
/// exact_integral_congestion: resolves vertex-sequence candidates through
/// Graph::edge_between (one hash lookup per hop) into a flat arena. A
/// PathSystem's candidates never take this route, so neither do the
/// engine's route, rounding and simulation: flat_candidates (path_system.h)
/// gathers their interned edge ids with zero hashing.
FlatCandidates flatten_candidates(const Graph& g,
                                  const std::vector<std::vector<Path>>& paths);

}  // namespace sor

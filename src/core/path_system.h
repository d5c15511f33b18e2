// Path systems (Definition 2.1) and the paper's sampling constructions
// (Definition 5.2): alpha-samples and (alpha + cut_G)-samples of an
// oblivious routing.
//
// A path system is THE semi-oblivious routing object: the candidate paths
// are fixed obliviously (Stage 2); route weights are chosen adaptively per
// demand by core/semi_oblivious.h (Stage 4).
//
// Storage is one interning arena. A PathSystem is bound to its graph at
// construction and interns every path into a flat PathStore, vertices and
// precomputed edge ids together; an ordered (s, t) -> [PathRef] index
// names each pair's candidates in insertion order. The hot consumers read
// the interned edge ids with zero hashing: route_fractional's round loop and
// the deletion process gather them per solve (flat_candidates), and
// rounding, local search and the engine's packet simulation read that
// gather from the solution. paths(s, t) materializes vertex sequences for
// boundary callers (io, robustness, the lower-bound adversary, tests).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/demand.h"
#include "core/path_store.h"
#include "graph/graph.h"
#include "oblivious/routing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sor {

/// A collection P(s, t) of candidate simple (s, t)-paths per vertex pair.
/// Multiplicities are kept (sampling is with replacement, Definition 5.2);
/// `sparsity()` counts paths with multiplicity, matching |P(s, t)| <= alpha.
class PathSystem {
 public:
  /// Binds the system to `g` (not owned; must outlive every add_path and
  /// merge). The interned edge ids index g's edges, so routes over this
  /// system take `g` as their graph.
  explicit PathSystem(const Graph& g) : store_(g) {}

  /// Appends a candidate (s, t)-path, interning it into the arena. The path
  /// must run from s to t over edges of the bound graph; a non-adjacent hop
  /// throws std::invalid_argument and leaves the system unchanged.
  void add_path(int s, int t, const Path& path);

  /// Candidate paths for a pair, materialized from the arena in insertion
  /// order (empty for a miss). Boundary callers only: hot loops read
  /// refs(s, t) through store().
  std::vector<Path> paths(int s, int t) const;

  bool has_pair(int s, int t) const;

  /// max_{(s,t)} |P(s, t)| (with multiplicity). O(1): maintained on insert.
  std::size_t sparsity() const { return sparsity_; }

  /// Total number of stored paths. O(1): maintained on insert.
  std::size_t total_paths() const { return total_paths_; }

  /// Number of pairs with at least one path.
  std::size_t num_pairs() const { return index_.size(); }

  /// Deterministic iteration over (pair -> interned refs).
  const std::map<std::pair<int, int>, std::vector<PathRef>>& entries() const {
    return index_;
  }

  /// Merges another path system into this one (pairwise union of path
  /// lists; used by the multi-scale completion-time construction, Lemma 2.8).
  /// Slabs are adopted arena-to-arena when both systems are bound to the
  /// same graph; otherwise other's paths are re-interned against OUR graph,
  /// and a path that does not transfer — consecutive vertices not adjacent
  /// here — throws std::invalid_argument rather than storing a poisoned
  /// edge id.
  void merge(const PathSystem& other);

  /// The interning arena every ref below points into.
  const PathStore& store() const { return store_; }

  /// Makes room for `ints` more arena ints at once (see PathStore::reserve):
  /// the samplers reserve their whole draw before interning it.
  void reserve_arena(std::size_t ints) { store_.reserve(ints); }

  /// Interned refs for a pair, in insertion order. Empty for a miss.
  std::span<const PathRef> refs(int s, int t) const;

  /// Empties the system for a reinstall: drops the pair index and the
  /// arena's paths in place, keeping the arena's capacity, so sampling the
  /// next install into it writes the same bytes at the same offsets as
  /// sampling into a fresh system.
  void clear();

 private:
  PathStore store_;
  std::map<std::pair<int, int>, std::vector<PathRef>> index_;
  std::size_t sparsity_ = 0;
  std::size_t total_paths_ = 0;
};

/// Zero-hashing gather: the flat candidate view of `commodities` over a
/// path system (edge-id spans copied straight from the interning arena).
/// The edge ids are those of the graph `ps` is bound to.
FlatCandidates flat_candidates(const PathSystem& ps,
                               const std::vector<Commodity>& commodities);

/// Scratch-reusing variant: clears `out` (capacity retained) and refills
/// it with the identical gather — the steady-state form route_fractional's
/// scratch path uses to rebuild candidates with zero allocation once warm.
void flat_candidates_into(const PathSystem& ps,
                          const std::vector<Commodity>& commodities,
                          FlatCandidates& out);

/// FNV-1a hash of everything a system has installed: per pair, in pair
/// order, s and t, then each candidate's arena offset, vertex ids and edge
/// ids. Equal fingerprints mean the same paths in the same arena slabs, the
/// identity the samplers promise across thread counts and seeds replayed.
std::uint64_t fingerprint(const PathSystem& ps);

/// All n*(n-1) ordered vertex pairs, lexicographic.
std::vector<std::pair<int, int>> all_ordered_pairs(int n);

/// alpha-sample of an oblivious routing R over the given pairs: for each
/// pair, `alpha` independent draws from R(s, t) (with replacement).
///
/// Each pair draws from its own Rng stream, seed-split from `rng` in pair
/// order, so the sampled system is a pure function of (pairs, seed): pass
/// a `pool` and the pairs are sampled concurrently with bit-identical
/// output for every thread count (including none).
PathSystem sample_path_system(const ObliviousRouting& routing, int alpha,
                              const std::vector<std::pair<int, int>>& pairs,
                              Rng& rng, util::ThreadPool* pool = nullptr);

/// Appending variant for a long-lived system: samples into `ps` (which must
/// be bound to routing.graph(); typically just clear()'ed) instead
/// of constructing a fresh one, so the interning arena's capacity survives
/// reinstall cycles. Identical draws and insertion order to
/// sample_path_system on an empty system.
void sample_path_system_into(const ObliviousRouting& routing, int alpha,
                             const std::vector<std::pair<int, int>>& pairs,
                             Rng& rng, util::ThreadPool* pool, PathSystem& ps);

/// alpha-sample over ALL ordered vertex pairs (quadratic; small graphs).
PathSystem sample_path_system_all_pairs(const ObliviousRouting& routing,
                                        int alpha, Rng& rng,
                                        util::ThreadPool* pool = nullptr);

/// (alpha + cut_G)-sample (Definition 5.2): alpha + cut_G(s, t) draws per
/// pair. Min cuts are computed with Dinic on the host graph. Same
/// seed-split determinism contract as sample_path_system.
PathSystem sample_path_system_with_cut(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool = nullptr);

/// Appending variant of sample_path_system_with_cut (see
/// sample_path_system_into for the contract).
void sample_path_system_with_cut_into(
    const ObliviousRouting& routing, int alpha,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng,
    util::ThreadPool* pool, PathSystem& ps);

/// The support pairs of a demand (convenience for the samplers above).
std::vector<std::pair<int, int>> support_pairs(const Demand& d);

/// An alpha-special demand (Definition 5.5) supported on `pairs`:
/// d(s, t) = alpha + cut_G(s, t) on every listed pair.
Demand special_demand(const Graph& g, int alpha,
                      const std::vector<std::pair<int, int>>& pairs);

}  // namespace sor

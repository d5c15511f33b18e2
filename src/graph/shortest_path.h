// Shortest-path primitives: BFS (hop metric), Dijkstra (arbitrary positive
// edge lengths), all-pairs hop distances, and uniformly random shortest
// paths (the diversity primitive the oblivious routers build on).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace sor {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Hop distances from `source` to every vertex (kUnreachable if none).
std::vector<int> bfs_distances(const Graph& g, int source);

/// Hop distances between all vertex pairs; result[u][v]. O(n * m).
std::vector<std::vector<int>> all_pairs_hop_distances(const Graph& g);

/// Dijkstra from `source` with per-edge lengths (length[e] >= 0).
/// Returns distances; `parent_edge`, if non-null, receives for each vertex
/// the edge id used to reach it (-1 for source/unreachable). A plain
/// binary-heap run over the incidence lists, kept as the reference the
/// CSR kernel below is tested against; library code runs the kernel.
std::vector<double> dijkstra(const Graph& g, int source,
                             const std::vector<double>& length,
                             std::vector<int>* parent_edge = nullptr);

/// Reusable scratch for `dijkstra_into_targets`: the backing storage of its
/// 4-ary heap, kept hot across calls so a repeated sweep (one Dijkstra per
/// source per pricing round, per demand, or per FRT row) allocates nothing
/// after the first call.
struct DijkstraScratch {
  std::vector<std::pair<double, int>> heap;
};

/// Flat CSR snapshot of a graph's incidence structure: per-vertex arc
/// ranges of packed {neighbor, edge id} pairs, in exactly
/// Graph::incident / Edge::other order. Built once (O(n + m)) and reused
/// by every Dijkstra sweep of the library (the distance bound and the
/// optimum's pricer, FRT's all-pairs rows): the relaxation scan
/// walks one contiguous 8-byte-per-arc array instead of chasing
/// vector-of-vector incident lists and 24-byte Edge structs. Identical
/// iteration order, hence bit-identical outputs.
class FlatAdjacency {
 public:
  struct Arc {
    int to;    ///< the neighbor Edge::other(v) would return
    int edge;  ///< the edge id
  };

  explicit FlatAdjacency(const Graph& g);

  int num_vertices() const { return static_cast<int>(first_.size()) - 1; }
  std::span<const Arc> arcs(int v) const {
    return {arcs_.data() + first_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(first_[static_cast<std::size_t>(v) + 1] -
                                     first_[static_cast<std::size_t>(v)])};
  }

 private:
  std::vector<std::int64_t> first_;  // n + 1 prefix over arcs_
  std::vector<Arc> arcs_;            // 2m packed arcs
};

/// Caches one FlatAdjacency across calls: `get(g)` rebuilds the snapshot
/// only when g's topology stamp differs from the one it was built from, so
/// capacity updates keep it and any other graph, even one constructed at
/// the same address with the same shape, replaces it. Scratch structs that
/// run Dijkstra sweeps over a served graph hold one of these.
class FlatAdjacencyCache {
 public:
  const FlatAdjacency& get(const Graph& g);

 private:
  std::optional<FlatAdjacency> adj_;
  std::uint64_t stamp_ = 0;  // 0 is never a topology stamp
};

/// Dijkstra over a FlatAdjacency snapshot: the library's Dijkstra kernel,
/// with two modes.
///
/// Full sweep (`is_target` empty, `num_targets` 0): every length must be
/// >= 0, and the run settles every reachable vertex. `dist` and
/// `parent_edge` then equal `dijkstra()`'s for every vertex, bit for bit
/// (unreachable: infinity / -1).
///
/// Early exit (`is_target` of size num_vertices with exactly `num_targets`
/// distinct flags): stops as soon as every flagged vertex has been settled.
/// Requires every length to be STRICTLY positive. Then, for every settled
/// vertex — in particular every target and every vertex on a shortest path
/// to one (strictly positive lengths put those at strictly smaller dist,
/// hence settled strictly earlier, with parent pointers that can never be
/// overwritten once settled) — `dist` and `parent_edge` equal a full
/// sweep's; entries of unsettled vertices are unspecified (infinity/-1 or
/// a tentative value).
///
/// Either way the scratch vector runs as a 4-ary min-heap: every heap item
/// (dist, vertex) is distinct (a vertex re-enters only with a strictly
/// smaller dist) and the comparator is a total order, so the pop sequence —
/// and with it every settled dist and parent pointer — is the same for ANY
/// correct heap, the reference's binary heap included. `parent_edge` may be
/// empty to skip parent tracking.
void dijkstra_into_targets(const FlatAdjacency& adj, int source,
                           const std::vector<double>& length,
                           std::span<double> dist, std::span<int> parent_edge,
                           DijkstraScratch& scratch,
                           std::span<const char> is_target = {},
                           int num_targets = 0);

/// One shortest s-t path under `length` (deterministic tie-breaking by edge
/// id). Returns empty path if t is unreachable.
Path shortest_path(const Graph& g, int s, int t,
                   const std::vector<double>& length);

/// Shortest s-t path under the hop metric (deterministic).
Path shortest_path_hops(const Graph& g, int s, int t);

/// Precomputed all-sources BFS structure supporting uniformly random
/// shortest-path sampling: sample(s, t, rng) returns a path chosen uniformly
/// at random among edges-to-predecessor choices (each step picks uniformly
/// among tight predecessors), giving a diverse shortest-path distribution.
class ShortestPathSampler {
 public:
  explicit ShortestPathSampler(const Graph& g);

  int hop_distance(int s, int t) const {
    return dist_[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)];
  }

  /// Random shortest path from s to t. Requires reachability.
  Path sample(int s, int t, Rng& rng) const;

  /// Deterministic shortest path (always the lexicographically-first
  /// predecessor choice). Used for 1-sparse deterministic baselines.
  Path deterministic(int s, int t) const;

  const Graph& graph() const { return *g_; }

 private:
  Path walk_back(int s, int t, Rng* rng) const;

  const Graph* g_;
  std::vector<std::vector<int>> dist_;
};

}  // namespace sor

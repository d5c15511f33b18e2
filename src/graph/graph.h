// Undirected capacitated multigraph plus the `Path` vocabulary type used
// throughout the library.
//
// The paper (Section 4) works with undirected connected graphs where parallel
// edges stand in for capacities. We carry an explicit `capacity` per edge
// (equivalent and far more convenient for traffic-engineering topologies);
// the default capacity 1.0 recovers the paper's unit-capacity setting, and
// parallel edges are still permitted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sor {

/// An undirected edge. `u < v` is NOT required; endpoints are stored as given.
struct Edge {
  int u = 0;
  int v = 0;
  double capacity = 1.0;

  /// Returns the endpoint that is not `w`. Requires `w` to be an endpoint.
  int other(int w) const { return w == u ? v : u; }
};

/// A simple path represented as its vertex sequence (s = front, t = back).
/// A single-vertex sequence is the empty path from a vertex to itself.
using Path = std::vector<int>;

/// Undirected multigraph with non-negative edge capacities.
///
/// Vertices are dense integers [0, num_vertices()). Edges are dense integers
/// [0, num_edges()) referring into `edges()`. The incidence lists make
/// traversal O(degree); `edge_between` resolves a vertex pair to a canonical
/// (maximum-capacity) edge id, which is how vertex-sequence paths are charged
/// to edges. It reads one flat open-addressing table (linear probing, load
/// at most 1/2), not a node-based hash map: an install resolves every hop
/// of every sampled path through it. `topology_stamp` names the incidence
/// structure in O(1), the key under which derived structures (CSR
/// snapshots) are cached.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_vertices);

  /// Appends an edge and returns its id. Requires valid distinct endpoints
  /// and capacity > 0.
  int add_edge(int u, int v, double capacity = 1.0);

  /// Overwrites edge `e`'s capacity (must stay > 0) in place — the live
  /// link-event hook of the scenario engine (failure = scale toward 0,
  /// recovery = restore). Topology, edge ids, and incidence are untouched,
  /// so paths stored as edge ids stay valid; the canonical edge of the
  /// endpoint pair is re-resolved among parallel edges so edge_between's
  /// max-capacity/smallest-id invariant survives the update.
  void set_capacity(int e, double capacity);

  int num_vertices() const { return n_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Process-unique id of this graph's incidence structure: drawn anew at
  /// construction and by every add_edge, left alone by set_capacity, and
  /// shared by copies (which share the structure). Equal stamps therefore
  /// mean equal vertex count, edge endpoints and incidence order, whatever
  /// the address. Never 0.
  std::uint64_t topology_stamp() const { return topology_stamp_; }

  const Edge& edge(int e) const { return edges_[static_cast<std::size_t>(e)]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge ids incident to `v`.
  const std::vector<int>& incident(int v) const {
    return incident_[static_cast<std::size_t>(v)];
  }

  int degree(int v) const {
    return static_cast<int>(incident_[static_cast<std::size_t>(v)].size());
  }

  /// Canonical edge id between u and v: among parallel (u,v) edges, the one
  /// with the largest capacity (ties: smallest id). Returns -1 if none.
  int edge_between(int u, int v) const;

  /// True iff the graph is connected (the empty graph counts as connected).
  bool is_connected() const;

  /// Sum of all edge capacities.
  double total_capacity() const;

  /// Capacity of the boundary of a vertex set: sum of capacities of edges
  /// with exactly one endpoint flagged in `in_set` (size num_vertices()).
  double boundary_capacity(const std::vector<char>& in_set) const;

 private:
  /// One slot of the canonical-edge table: an endpoint pair (u < v) and
  /// its canonical edge id. u == -1 marks an empty slot.
  struct PairSlot {
    int u = -1;
    int v = -1;
    int edge = -1;
  };

  static std::uint64_t next_topology_stamp();
  /// Index of pair (u, v)'s slot (u < v), or of the empty slot that ends
  /// its probe sequence. Requires a non-empty table.
  std::size_t find_pair_slot(int u, int v) const;

  int n_ = 0;
  std::uint64_t topology_stamp_ = next_topology_stamp();
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> incident_;
  std::vector<PairSlot> pair_slots_;  ///< power-of-two size, or empty
  std::size_t num_pairs_ = 0;         ///< occupied slots
};

/// True iff `path` is a well-formed simple path in `g` from `s` to `t`:
/// consecutive vertices adjacent, no repeated vertex.
bool is_valid_path(const Graph& g, const Path& path, int s, int t);

/// Number of edges (hops) of a path. The trivial single-vertex path has 0.
inline int hop_count(const Path& path) {
  return path.empty() ? 0 : static_cast<int>(path.size()) - 1;
}

/// Maps a vertex-sequence path to edge ids via Graph::edge_between.
/// Requires consecutive vertices to be adjacent.
std::vector<int> path_edge_ids(const Graph& g, const Path& path);

/// Removes cycles from a vertex walk, producing a simple path with the same
/// endpoints: whenever a vertex repeats, the loop between its occurrences is
/// cut out. The input need not be simple but consecutive vertices must be
/// adjacent; the output is then a valid simple path.
Path simplify_walk(const Path& walk);

/// simplify_walk fed one vertex at a time, so a walk can be simplified
/// while it is generated instead of materialized first: step(v) appends v,
/// or cuts the path back to v when v is already on it. The vertex-position
/// array survives clear(), so a reused simplifier allocates nothing once it
/// has seen the largest vertex id and the longest path.
class WalkSimplifier {
 public:
  /// Forgets the path in O(its length), keeping every capacity.
  void clear();
  /// Requires v >= 0.
  void step(int v);
  /// The simple path so far; its last vertex is the last one stepped.
  const Path& path() const { return path_; }

 private:
  Path path_;
  std::vector<int> position_;  ///< vertex -> index in path_, or -1
};

}  // namespace sor

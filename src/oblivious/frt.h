// Fakcharoenphol–Rao–Talwar (FRT) hierarchical tree embedding.
//
// Given positive edge lengths, builds a random hierarchically-well-separated
// tree whose leaves are the graph vertices and whose expected path-length
// stretch is O(log n). Each tree edge (cluster -> parent cluster) is
// embedded back into the graph as a shortest path between the cluster
// centers, so tree routes translate into graph walks.
//
// This is the building block of the Räcke-style oblivious routing
// (racke.h): Räcke's O(log n)-competitive scheme is a distribution over
// decomposition trees; we realize it as iteratively reweighted FRT trees,
// the construction deployed by SMORE [KYY+18] (see DESIGN.md substitutions).
//
// A tree is drawn in two steps. The all-pairs shortest-path table w.r.t.
// the edge lengths (FrtTable: n full Dijkstras, the bulk of the work)
// depends only on the lengths; the random permutation and radius scale
// that partition and embed by it are the tree's own. Trees drawn from one
// length vector — the trees of one Räcke wave — therefore share one table.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace sor {

namespace util {
class ThreadPool;
}  // namespace util

/// All-pairs shortest distances and parent edges w.r.t. one edge-length
/// vector, in flat n*n row-major buffers: row u is one full Dijkstra sweep
/// from u.
class FrtTable {
 public:
  /// Runs the n sweeps, fanned out over `pool` when given (each row is
  /// written by exactly one sweep, so the table is the same for every
  /// thread count). Throws std::invalid_argument, in every build type, on
  /// a NaN or negative length, and unless every distance between distinct
  /// vertices is positive and at most DBL_MAX / 2: on a disconnected graph,
  /// or under zero or overflowing lengths, FRT's halving radii would never
  /// separate the vertices and the tree build would not terminate.
  FrtTable(const Graph& g, const std::vector<double>& edge_length,
           util::ThreadPool* pool = nullptr);

  int num_vertices() const { return static_cast<int>(n_); }
  double dist(int u, int v) const {
    return dist_[static_cast<std::size_t>(u) * n_ +
                 static_cast<std::size_t>(v)];
  }
  /// Parent edge ids of the sweep from `source` (-1 at the source).
  std::span<const int> parent_row(int source) const {
    return {parent_.data() + static_cast<std::size_t>(source) * n_, n_};
  }
  /// Largest distance; 1 on a single vertex.
  double diameter() const { return diameter_; }

 private:
  std::size_t n_;
  std::vector<double> dist_;
  std::vector<int> parent_;
  double diameter_ = 1.0;
};

/// One node of the FRT cluster tree.
struct FrtNode {
  int parent = -1;        ///< node id of parent (-1 for root)
  int center = 0;         ///< graph vertex acting as cluster center
  int depth = 0;          ///< root has depth 0
  /// Embedded graph path from this node's center to the parent's center
  /// (empty for the root or when centers coincide).
  Path path_to_parent;
};

/// An FRT tree plus its embedding into the host graph.
class FrtTree {
 public:
  /// Draws a random FRT tree over `table`'s metric: partitions by a
  /// random permutation and radius scale from `rng`, and embeds every tree
  /// edge as the table's shortest path between the two centers.
  FrtTree(const Graph& g, const FrtTable& table, Rng& rng);
  /// Builds the table for `edge_length` and draws one tree over it.
  FrtTree(const Graph& g, const std::vector<double>& edge_length, Rng& rng)
      : FrtTree(g, FrtTable(g, edge_length), rng) {}

  const std::vector<FrtNode>& nodes() const { return nodes_; }
  int leaf_of(int vertex) const {
    return leaf_[static_cast<std::size_t>(vertex)];
  }

  /// The graph walk obtained by routing s -> t through the tree (climb to
  /// the lowest common ancestor, descend), concatenating the embedded
  /// per-tree-edge paths, then removing loops — simplify_walk's result on
  /// that walk, with the loops cut while climbing (a per-thread
  /// WalkSimplifier) instead of on a materialized walk. Always a simple
  /// s-t path.
  Path route(int s, int t) const;

  /// For every tree edge (node -> parent): the boundary capacity of the
  /// node's vertex cluster (sum of capacities leaving the cluster). This is
  /// the Räcke load the tree places on its embedded paths.
  const std::vector<double>& cluster_boundary() const {
    return cluster_boundary_;
  }

  /// Adds this tree's Räcke embedding load onto `load` (size num_edges):
  /// for every tree edge, its cluster boundary capacity is charged to every
  /// graph edge of its embedded path.
  void accumulate_embedding_load(const Graph& g,
                                 std::vector<double>& load) const;

 private:
  std::vector<FrtNode> nodes_;
  std::vector<int> leaf_;              ///< vertex -> leaf node id
  std::vector<double> cluster_boundary_;
};

}  // namespace sor

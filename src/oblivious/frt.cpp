#include "oblivious/frt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>

#include "graph/shortest_path.h"

namespace sor {
namespace {

/// Reconstructs the shortest path from `src` to `dst` given the
/// `parent_edge` row of a full Dijkstra sweep from `src`.
Path reconstruct(const Graph& g, int src, int dst,
                 std::span<const int> parent_edge) {
  Path reversed = {dst};
  int v = dst;
  while (v != src) {
    const int e = parent_edge[static_cast<std::size_t>(v)];
    assert(e >= 0);
    v = g.edge(e).other(v);
    reversed.push_back(v);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace

FrtTree::FrtTree(const Graph& g, const std::vector<double>& edge_length,
                 Rng& rng)
    : g_(&g) {
  const int n = g.num_vertices();
  assert(n >= 1);
  assert(static_cast<int>(edge_length.size()) == g.num_edges());
  const std::size_t sn = static_cast<std::size_t>(n);

  // All-pairs shortest distances + parent pointers w.r.t. edge_length, in
  // flat n*n row-major buffers (one contiguous slab instead of n separate
  // heap rows): dist[u*n + v]. The per-tree constructor dominates racke
  // build time, so every row is one full sweep of the CSR kernel over a
  // snapshot built once per tree, written straight into the row.
  std::vector<double> dist(sn * sn);
  std::vector<int> parent(sn * sn);
  const FlatAdjacency adj(g);
  DijkstraScratch scratch;
  double diameter = 0.0;
  double min_positive = std::numeric_limits<double>::infinity();
  for (int v = 0; v < n; ++v) {
    const std::size_t row = static_cast<std::size_t>(v) * sn;
    dijkstra_into_targets(adj, v, edge_length,
                          std::span<double>(dist.data() + row, sn),
                          std::span<int>(parent.data() + row, sn), scratch);
    for (int w = 0; w < n; ++w) {
      const double d = dist[row + static_cast<std::size_t>(w)];
      assert(d != std::numeric_limits<double>::infinity() &&
             "FRT requires a connected graph");
      diameter = std::max(diameter, d);
      if (d > 0.0) min_positive = std::min(min_positive, d);
    }
  }
  if (diameter <= 0.0) diameter = 1.0;
  if (!std::isfinite(min_positive)) min_positive = 1.0;
  auto dist_at = [&](int u, int v) {
    return dist[static_cast<std::size_t>(u) * sn + static_cast<std::size_t>(v)];
  };

  // Random permutation and scale parameter beta in [1, 2).
  const std::vector<int> pi = rng.permutation(n);
  const double beta = rng.uniform_double(1.0, 2.0);

  // Root cluster = V, centered at pi[0].
  nodes_.push_back(FrtNode{-1, pi[0], 0, {}});
  leaf_.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> members = {std::vector<int>()};
  members[0].resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) members[0][static_cast<std::size_t>(v)] = v;

  // Peel levels with geometrically decreasing radii until all clusters are
  // singletons.
  std::vector<int> frontier = {0};  // node ids whose clusters may split
  std::vector<int> next_frontier;
  std::vector<char> assigned;       // partition scratch, reused across levels
  double radius = beta * diameter;
  int depth = 0;
  while (!frontier.empty()) {
    radius /= 2.0;
    ++depth;
    next_frontier.clear();
    for (int node_id : frontier) {
      auto cluster = std::move(members[static_cast<std::size_t>(node_id)]);
      members[static_cast<std::size_t>(node_id)].clear();
      if (cluster.size() == 1) {
        leaf_[static_cast<std::size_t>(cluster[0])] = node_id;
        continue;
      }
      // Partition by first permutation vertex within `radius`.
      assigned.assign(cluster.size(), 0);
      std::size_t remaining = cluster.size();
      for (int u : pi) {
        if (remaining == 0) break;
        // Loop-local on purpose: the buffer is moved into `members` for
        // every non-empty child, so there is no capacity to reuse.
        std::vector<int> child_members;
        for (std::size_t i = 0; i < cluster.size(); ++i) {
          if (assigned[i]) continue;
          const int v = cluster[i];
          if (dist_at(u, v) <= radius) {
            assigned[i] = 1;
            --remaining;
            child_members.push_back(v);
          }
        }
        if (child_members.empty()) continue;
        const int child_id = static_cast<int>(nodes_.size());
        FrtNode child;
        child.parent = node_id;
        // A singleton cluster is centered on its own vertex so that the leaf
        // of v starts/ends tree walks exactly at v.
        child.center = child_members.size() == 1 ? child_members[0] : u;
        child.depth = depth;
        const int parent_center =
            nodes_[static_cast<std::size_t>(node_id)].center;
        const int u_center = child.center;
        if (u_center != parent_center) {
          child.path_to_parent = reconstruct(
              g, parent_center, u_center,
              std::span<const int>(
                  parent.data() +
                      static_cast<std::size_t>(parent_center) * sn,
                  sn));
          std::reverse(child.path_to_parent.begin(),
                       child.path_to_parent.end());
        }
        nodes_.push_back(std::move(child));
        members.push_back(std::move(child_members));
        next_frontier.push_back(child_id);
      }
      assert(remaining == 0 && "every vertex is within radius of itself");
    }
    frontier.swap(next_frontier);
    // Safety: radii below the minimum positive distance force singletons,
    // so the loop terminates in O(log(diameter / min_positive)) levels.
    assert(depth < 200);
  }

  for (int v = 0; v < n; ++v) {
    assert(leaf_[static_cast<std::size_t>(v)] >= 0);
  }

  // Boundary capacities per tree node's cluster. Recompute membership from
  // leaves (cluster of a node = leaves under it).
  std::vector<std::vector<int>> leaves_under(nodes_.size());
  for (int v = 0; v < n; ++v) {
    int node = leaf_[static_cast<std::size_t>(v)];
    while (node >= 0) {
      leaves_under[static_cast<std::size_t>(node)].push_back(v);
      node = nodes_[static_cast<std::size_t>(node)].parent;
    }
  }
  cluster_boundary_.assign(nodes_.size(), 0.0);
  std::vector<char> in_set(static_cast<std::size_t>(n), 0);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].parent < 0) continue;  // root has no parent edge
    for (int v : leaves_under[id]) in_set[static_cast<std::size_t>(v)] = 1;
    // Only edges incident to cluster members can cross the boundary, so the
    // total cost over all nodes is O(depth * m) rather than O(#nodes * m).
    double boundary = 0.0;
    for (int v : leaves_under[id]) {
      for (int e : g.incident(v)) {
        if (!in_set[static_cast<std::size_t>(g.edge(e).other(v))]) {
          boundary += g.edge(e).capacity;
        }
      }
    }
    cluster_boundary_[id] = boundary;
    for (int v : leaves_under[id]) in_set[static_cast<std::size_t>(v)] = 0;
  }
}

Path FrtTree::route(int s, int t) const {
  assert(s != t);
  int a = leaf_of(s);
  int b = leaf_of(t);
  // Climb to equal depth, then in lockstep to the LCA, collecting the
  // embedded paths: up-walk from s (paths in child->parent direction) and
  // up-walk from t (to be reversed).
  Path up_from_s = {s};
  Path up_from_t = {t};
  auto climb = [&](int& node, Path& walk) {
    const FrtNode& nd = nodes_[static_cast<std::size_t>(node)];
    assert(nd.parent >= 0);
    if (!nd.path_to_parent.empty()) {
      assert(nd.path_to_parent.front() == walk.back());
      walk.insert(walk.end(), nd.path_to_parent.begin() + 1,
                  nd.path_to_parent.end());
    }
    node = nd.parent;
  };
  while (nodes_[static_cast<std::size_t>(a)].depth >
         nodes_[static_cast<std::size_t>(b)].depth) {
    climb(a, up_from_s);
  }
  while (nodes_[static_cast<std::size_t>(b)].depth >
         nodes_[static_cast<std::size_t>(a)].depth) {
    climb(b, up_from_t);
  }
  while (a != b) {
    climb(a, up_from_s);
    climb(b, up_from_t);
  }
  std::reverse(up_from_t.begin(), up_from_t.end());
  // up_from_s ends at the LCA center; up_from_t starts there.
  assert(up_from_s.back() == up_from_t.front());
  Path walk = concatenate_walks(up_from_s, up_from_t);
  Path simple = simplify_walk(walk);
  assert(simple.front() == s && simple.back() == t);
  return simple;
}

void FrtTree::accumulate_embedding_load(const Graph& g,
                                        std::vector<double>& load) const {
  assert(static_cast<int>(load.size()) == g.num_edges());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const FrtNode& nd = nodes_[id];
    if (nd.parent < 0 || nd.path_to_parent.empty()) continue;
    for (int e : path_edge_ids(g, nd.path_to_parent)) {
      load[static_cast<std::size_t>(e)] += cluster_boundary_[id];
    }
  }
}

}  // namespace sor

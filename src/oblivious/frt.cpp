#include "oblivious/frt.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/shortest_path.h"
#include "util/thread_pool.h"

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

/// Per-thread scratch of FrtTree::route: the walk's loop cutter and the
/// tree nodes the t side climbed through.
struct RouteScratch {
  WalkSimplifier walk;
  std::vector<int> climbed;
};

}  // namespace

FrtTable::FrtTable(const Graph& g, const std::vector<double>& edge_length,
                   util::ThreadPool* pool)
    : n_(static_cast<std::size_t>(g.num_vertices())),
      dist_(n_ * n_),
      parent_(n_ * n_) {
  assert(static_cast<int>(edge_length.size()) == g.num_edges());
  if (n_ == 0) throw std::invalid_argument("FRT needs at least one vertex");
  // The Dijkstra kernel's precondition; infinite lengths are allowed (such
  // an edge is never used) as long as every distance below stays finite.
  for (double length : edge_length) {
    if (!(length >= 0.0)) {
      throw std::invalid_argument("FRT: an edge length is NaN or negative");
    }
  }
  // Every row is one full sweep of the CSR kernel, written straight into
  // the row. Rows go out in contiguous blocks, one heap scratch per block.
  const FlatAdjacency adj(g);
  const std::size_t blocks =
      pool ? std::min(n_, static_cast<std::size_t>(4 * pool->num_threads()))
           : 1;
  const auto sweep_block = [&](std::size_t b) {
    DijkstraScratch scratch;
    for (std::size_t v = b * n_ / blocks; v < (b + 1) * n_ / blocks; ++v) {
      dijkstra_into_targets(adj, static_cast<int>(v), edge_length,
                            std::span<double>(dist_.data() + v * n_, n_),
                            std::span<int>(parent_.data() + v * n_, n_),
                            scratch);
    }
  };
  if (pool) {
    pool->parallel_for(blocks, sweep_block);
  } else {
    sweep_block(0);
  }

  constexpr double kMaxDistance = std::numeric_limits<double>::max() / 2;
  double diameter = 0.0;
  for (std::size_t u = 0; u < n_; ++u) {
    for (std::size_t v = 0; v < n_; ++v) {
      const double d = dist_[u * n_ + v];
      if (!(d <= kMaxDistance) || (u != v && !(d > 0.0))) {
        std::ostringstream msg;
        msg << "FRT: vertices " << u << " and " << v << " are at distance "
            << d << "; the tree needs a connected graph whose distances "
            << "are positive and finite (edge lengths > 0, no overflow)";
        throw std::invalid_argument(msg.str());
      }
      diameter = std::max(diameter, d);
    }
  }
  if (diameter > 0.0) diameter_ = diameter;
}

FrtTree::FrtTree(const Graph& g, const FrtTable& table, Rng& rng) {
  const int n = table.num_vertices();
  assert(n == g.num_vertices());
  const double diameter = table.diameter();

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
          if (table.dist(u, v) <= radius) {
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
          child.path_to_parent = reconstruct(g, parent_center, u_center,
                                             table.parent_row(parent_center));
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
    // A radius below the smallest distance between distinct vertices
    // forces singletons. The table keeps every such distance in
    // (0, DBL_MAX / 2], so that takes at most ~2100 halvings.
    assert(depth <= 2100);
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
  thread_local RouteScratch scratch;
  WalkSimplifier& walk = scratch.walk;
  walk.clear();

  // Climb to equal depth, then in lockstep to the LCA. The s side's
  // embedded paths (child -> parent) are walked as they are climbed; the
  // t side's are walked parent -> child afterwards, LCA first.
  int a = leaf_of(s);
  int b = leaf_of(t);
  std::vector<int>& climbed = scratch.climbed;
  climbed.clear();
  walk.step(s);
  const auto climb_s = [&] {
    const FrtNode& nd = nodes_[static_cast<std::size_t>(a)];
    assert(nd.parent >= 0);
    assert(nd.path_to_parent.empty() ||
           nd.path_to_parent.front() == walk.path().back());
    for (std::size_t i = 1; i < nd.path_to_parent.size(); ++i) {
      walk.step(nd.path_to_parent[i]);
    }
    a = nd.parent;
  };
  const auto climb_t = [&] {
    climbed.push_back(b);
    b = nodes_[static_cast<std::size_t>(b)].parent;
  };
  const auto depth = [&](int node) {
    return nodes_[static_cast<std::size_t>(node)].depth;
  };
  while (depth(a) > depth(b)) climb_s();
  while (depth(b) > depth(a)) climb_t();
  while (a != b) {
    climb_s();
    climb_t();
  }
  for (auto it = climbed.rbegin(); it != climbed.rend(); ++it) {
    const Path& p = nodes_[static_cast<std::size_t>(*it)].path_to_parent;
    assert(p.empty() || p.back() == walk.path().back());
    for (std::size_t i = p.size(); i > 1; --i) walk.step(p[i - 2]);
  }
  assert(walk.path().front() == s && walk.path().back() == t);
  return walk.path();
}

void FrtTree::accumulate_embedding_load(const Graph& g,
                                        std::vector<double>& load) const {
  assert(static_cast<int>(load.size()) == g.num_edges());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const FrtNode& nd = nodes_[id];
    const Path& p = nd.path_to_parent;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      load[static_cast<std::size_t>(g.edge_between(p[i], p[i + 1]))] +=
          cluster_boundary_[id];
    }
  }
}

}  // namespace sor

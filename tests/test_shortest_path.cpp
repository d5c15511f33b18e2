#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <map>

#include "graph/generators.h"

namespace sor {
namespace {

TEST(ShortestPath, BfsOnPathGraph) {
  Graph g(5);
  for (int v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  const auto dist = bfs_distances(g, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
}

TEST(ShortestPath, BfsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(ShortestPath, AllPairsSymmetric) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi_connected(25, 0.15, rng);
  const auto dist = all_pairs_hop_distances(g);
  for (int u = 0; u < 25; ++u) {
    for (int v = 0; v < 25; ++v) {
      EXPECT_EQ(dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)],
                dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]);
    }
    EXPECT_EQ(dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(u)], 0);
  }
}

TEST(ShortestPath, DijkstraMatchesBfsOnUnitLengths) {
  const Graph g = gen::hypercube(4);
  const std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto dd = dijkstra(g, 3, unit);
  const auto bd = bfs_distances(g, 3);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(dd[static_cast<std::size_t>(v)],
                     static_cast<double>(bd[static_cast<std::size_t>(v)]));
  }
}

TEST(ShortestPath, DijkstraPrefersLightDetour) {
  // 0-1 heavy direct edge vs 0-2-1 light detour.
  Graph g(3);
  const int direct = g.add_edge(0, 1);
  const int leg1 = g.add_edge(0, 2);
  const int leg2 = g.add_edge(2, 1);
  std::vector<double> len(3, 0.0);
  len[static_cast<std::size_t>(direct)] = 10.0;
  len[static_cast<std::size_t>(leg1)] = 1.0;
  len[static_cast<std::size_t>(leg2)] = 2.0;
  const auto dist = dijkstra(g, 0, len);
  EXPECT_DOUBLE_EQ(dist[1], 3.0);
  EXPECT_EQ(shortest_path(g, 0, 1, len), (Path{0, 2, 1}));
}

TEST(ShortestPath, ShortestPathHopsIsValidAndTight) {
  const Graph g = gen::grid(4, 4);
  const Path p = shortest_path_hops(g, 0, 15);
  EXPECT_TRUE(is_valid_path(g, p, 0, 15));
  EXPECT_EQ(hop_count(p), 6);  // Manhattan distance in the grid
}

TEST(ShortestPath, DijkstraIntoTargetsMatchesFullRun) {
  // The CSR kernel must agree bit-for-bit with the reference dijkstra():
  // in full-sweep mode on every vertex, zero-length edges included; in
  // early-exit mode on everything its contract covers — each target's dist
  // and its whole parent chain back to the source (strictly positive
  // lengths make the settled prefix final), for one or several targets.
  // Odd trials are multigraphs with parallel edges and two isolated
  // vertices, so some targets are unreachable (infinity / -1).
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g(30);
    if (trial % 2 == 0) {
      g = gen::erdos_renyi_connected(30, 0.15, rng);
    } else {
      for (int i = 0; i < 60; ++i) {
        const int u = rng.uniform_int(0, 27);
        int v = rng.uniform_int(0, 27);
        if (v == u) v = (u + 1) % 28;
        g.add_edge(u, v);
      }
    }
    const int n = g.num_vertices();
    const std::size_t sn = static_cast<std::size_t>(n);
    std::vector<double> length(static_cast<std::size_t>(g.num_edges()));
    for (double& l : length) l = 0.05 + rng.uniform_double();
    std::vector<double> with_zeros = length;
    for (double& l : with_zeros) {
      if (rng.uniform_double() < 0.3) l = 0.0;
    }
    const FlatAdjacency adj(g);
    ASSERT_EQ(adj.num_vertices(), n);
    std::vector<double> dist(sn);
    std::vector<int> full_parent, parent(sn);
    DijkstraScratch scratch;
    for (int probe = 0; probe < 5; ++probe) {
      const int s = rng.uniform_int(0, n - 1);
      for (const std::vector<double>* len : {&length, &with_zeros}) {
        const auto full_dist = dijkstra(g, s, *len, &full_parent);
        dijkstra_into_targets(adj, s, *len, dist, parent, scratch);
        EXPECT_EQ(dist, full_dist);
        EXPECT_EQ(parent, full_parent);
      }
      const auto full_dist = dijkstra(g, s, length, &full_parent);
      for (int num_targets : {1, 3, 8}) {
        std::vector<char> is_target(sn, 0);
        std::vector<int> targets;
        while (static_cast<int>(targets.size()) < num_targets) {
          const int t = rng.uniform_int(0, n - 1);
          if (is_target[static_cast<std::size_t>(t)]) continue;
          is_target[static_cast<std::size_t>(t)] = 1;
          targets.push_back(t);
        }
        dijkstra_into_targets(adj, s, length, dist, parent, scratch,
                              is_target, num_targets);
        for (int t : targets) {
          int v = t;
          EXPECT_EQ(dist[static_cast<std::size_t>(v)],
                    full_dist[static_cast<std::size_t>(v)]);
          EXPECT_EQ(parent[static_cast<std::size_t>(v)],
                    full_parent[static_cast<std::size_t>(v)]);
          while (v != s && parent[static_cast<std::size_t>(v)] >= 0) {
            ASSERT_EQ(parent[static_cast<std::size_t>(v)],
                      full_parent[static_cast<std::size_t>(v)]);
            v = g.edge(parent[static_cast<std::size_t>(v)]).other(v);
            EXPECT_EQ(dist[static_cast<std::size_t>(v)],
                      full_dist[static_cast<std::size_t>(v)]);
          }
        }
      }
    }
  }
}

TEST(ShortestPath, FlatAdjacencyMirrorsIncidenceLists) {
  Rng rng(31);
  const Graph g = gen::erdos_renyi_connected(20, 0.2, rng);
  const FlatAdjacency adj(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = adj.arcs(v);
    ASSERT_EQ(static_cast<int>(arcs.size()), g.degree(v));
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const int e = g.incident(v)[i];
      EXPECT_EQ(arcs[i].edge, e);
      EXPECT_EQ(arcs[i].to, g.edge(e).other(v));
    }
  }
}

TEST(ShortestPathSampler, SamplesAreShortestPaths) {
  const Graph g = gen::hypercube(4);
  ShortestPathSampler sampler(g);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int s = rng.uniform_int(0, 15);
    int t = rng.uniform_int(0, 15);
    if (s == t) t = s ^ 1;
    const Path p = sampler.sample(s, t, rng);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
    EXPECT_EQ(hop_count(p), sampler.hop_distance(s, t));
  }
}

TEST(ShortestPathSampler, DeterministicIsStable) {
  const Graph g = gen::grid(3, 3);
  ShortestPathSampler sampler(g);
  const Path a = sampler.deterministic(0, 8);
  const Path b = sampler.deterministic(0, 8);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(is_valid_path(g, a, 0, 8));
}

TEST(ShortestPathSampler, UniformOverGadgetMiddles) {
  // On C(n, k), a random shortest leaf-to-leaf path picks the middle vertex
  // uniformly; check rough uniformity.
  const int n = 8;
  const int k = 4;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  ShortestPathSampler sampler(g);
  Rng rng(6);
  std::map<int, int> middle_count;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    const Path p =
        sampler.sample(layout.left_leaf(0), layout.right_leaf(0), rng);
    ASSERT_EQ(hop_count(p), 4);
    ++middle_count[p[2]];  // s, v1, middle, v2, t
  }
  ASSERT_EQ(static_cast<int>(middle_count.size()), k);
  for (const auto& [mid, count] : middle_count) {
    EXPECT_NEAR(static_cast<double>(count) / draws, 1.0 / k, 0.05);
  }
}

}  // namespace
}  // namespace sor

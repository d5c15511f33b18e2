#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/rng.h"

namespace sor {
namespace {

TEST(Graph, AddEdgeAndAccessors) {
  Graph g(4);
  const int e0 = g.add_edge(0, 1, 2.0);
  const int e1 = g.add_edge(1, 2);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(e0).capacity, 2.0);
  EXPECT_EQ(g.edge(e0).other(0), 1);
  EXPECT_EQ(g.edge(e0).other(1), 0);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_EQ(g.edge_between(1, 2), e1);
  EXPECT_EQ(g.edge_between(2, 1), e1);
  EXPECT_EQ(g.edge_between(0, 3), -1);
}

TEST(Graph, TopologyStampTracksIncidenceOnly) {
  Graph g(3);
  const std::uint64_t built = g.topology_stamp();
  EXPECT_NE(built, 0u);
  EXPECT_NE(Graph(3).topology_stamp(), built);  // process-unique
  g.add_edge(0, 1);
  const std::uint64_t one_edge = g.topology_stamp();
  EXPECT_NE(one_edge, built);
  g.set_capacity(0, 5.0);  // capacities are not topology
  EXPECT_EQ(g.topology_stamp(), one_edge);
  Graph copy = g;  // a copy shares the structure, hence the stamp
  EXPECT_EQ(copy.topology_stamp(), one_edge);
  copy.add_edge(1, 2);
  EXPECT_NE(copy.topology_stamp(), one_edge);
  EXPECT_EQ(g.topology_stamp(), one_edge);
}

TEST(Graph, ParallelEdgesCanonicalIsMaxCapacity) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const int big = g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.edge_between(0, 1), big);
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_FALSE(Graph(2).is_connected());
}

TEST(Graph, TotalAndBoundaryCapacity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 4.0);
  g.add_edge(3, 0, 8.0);
  EXPECT_DOUBLE_EQ(g.total_capacity(), 15.0);
  // Cut {0, 1} vs {2, 3}: edges (1,2) and (3,0).
  EXPECT_DOUBLE_EQ(g.boundary_capacity({1, 1, 0, 0}), 10.0);
  EXPECT_DOUBLE_EQ(g.boundary_capacity({1, 1, 1, 1}), 0.0);
}

TEST(Graph, ValidPathChecks) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  EXPECT_TRUE(is_valid_path(g, {0, 1, 2, 3}, 0, 3));
  EXPECT_TRUE(is_valid_path(g, {0, 1, 3}, 0, 3));
  EXPECT_TRUE(is_valid_path(g, {0}, 0, 0));
  EXPECT_FALSE(is_valid_path(g, {0, 2}, 0, 2));          // not adjacent
  EXPECT_FALSE(is_valid_path(g, {0, 1, 2, 1}, 0, 1));    // repeats vertex
  EXPECT_FALSE(is_valid_path(g, {0, 1}, 0, 2));          // wrong endpoint
  EXPECT_FALSE(is_valid_path(g, {}, 0, 0));              // empty
  EXPECT_FALSE(is_valid_path(g, {0, 4}, 0, 4));          // no edge
}

TEST(Graph, PathEdgeIds) {
  Graph g(4);
  const int a = g.add_edge(0, 1);
  const int b = g.add_edge(1, 2);
  const int c = g.add_edge(2, 3);
  EXPECT_EQ(path_edge_ids(g, {0, 1, 2, 3}), (std::vector<int>{a, b, c}));
  EXPECT_TRUE(path_edge_ids(g, {2}).empty());
  EXPECT_TRUE(path_edge_ids(g, {}).empty());
}

TEST(Graph, HopCount) {
  EXPECT_EQ(hop_count({}), 0);
  EXPECT_EQ(hop_count({7}), 0);
  EXPECT_EQ(hop_count({1, 2, 3}), 2);
}

TEST(Graph, SimplifyWalkNoLoop) {
  EXPECT_EQ(simplify_walk({0, 1, 2}), (Path{0, 1, 2}));
  EXPECT_EQ(simplify_walk({5}), (Path{5}));
}

TEST(Graph, SimplifyWalkCutsSingleLoop) {
  // 0-1-2-1-3 revisits 1; loop removed.
  EXPECT_EQ(simplify_walk({0, 1, 2, 1, 3}), (Path{0, 1, 3}));
}

TEST(Graph, SimplifyWalkFullCollapse) {
  // Out and back: collapses to the single start vertex.
  EXPECT_EQ(simplify_walk({4, 5, 6, 5, 4}), (Path{4}));
}

TEST(Graph, SimplifyWalkNestedLoops) {
  // 0 1 2 3 1 4 2 5: visiting 1 again cuts (2,3); then 4; 2 again cuts 4.
  const Path result = simplify_walk({0, 1, 2, 3, 1, 4, 2, 5});
  // Result must be simple, start at 0, end at 5.
  EXPECT_EQ(result.front(), 0);
  EXPECT_EQ(result.back(), 5);
  std::set<int> unique(result.begin(), result.end());
  EXPECT_EQ(unique.size(), result.size());
}

TEST(Graph, SimplifyWalkReusableAfterCut) {
  // After cutting a loop, a vertex dropped from the output may reappear.
  const Path result = simplify_walk({0, 1, 2, 1, 2, 3});
  EXPECT_EQ(result.front(), 0);
  EXPECT_EQ(result.back(), 3);
  std::set<int> unique(result.begin(), result.end());
  EXPECT_EQ(unique.size(), result.size());
}

/// edge_between by brute force: among the edges joining u and v, the one
/// of largest capacity, ties to the smallest id; -1 when there is none.
int reference_edge_between(const Graph& g, int u, int v) {
  int best = -1;
  for (int e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const bool joins = (edge.u == u && edge.v == v) ||
                       (edge.u == v && edge.v == u);
    if (joins && (best < 0 || edge.capacity > g.edge(best).capacity)) {
      best = e;
    }
  }
  return best;
}

void expect_canonical_edges(const Graph& g) {
  for (int u = -1; u <= g.num_vertices(); ++u) {
    for (int v = -1; v <= g.num_vertices(); ++v) {
      ASSERT_EQ(g.edge_between(u, v), reference_edge_between(g, u, v))
          << "pair (" << u << ", " << v << ")";
    }
  }
}

TEST(Graph, CanonicalEdgeMatchesReference) {
  // Random multigraphs dense in parallel edges and capacity ties, checked
  // on every pair (out-of-range ids included) as edges arrive, after
  // capacity edits, and on copies edited apart from their original.
  Rng rng(29);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const int n = rng.uniform_int(2, 40);
    const int m = rng.uniform_int(1, 4 * n);
    const auto capacity = [&rng] {
      return static_cast<double>(rng.uniform_int(1, 4));
    };
    Graph g(n);
    for (int i = 0; i < m; ++i) {
      const int u = rng.uniform_int(0, n - 1);
      int v = rng.uniform_int(0, n - 2);
      if (v >= u) ++v;
      g.add_edge(u, v, capacity());
      if (i % 7 == 0) expect_canonical_edges(g);
    }
    expect_canonical_edges(g);
    Graph copy = g;
    for (int i = 0; i < m; ++i) {
      g.set_capacity(rng.uniform_int(0, m - 1), capacity());
    }
    expect_canonical_edges(g);
    expect_canonical_edges(copy);
    copy.add_edge(0, n - 1, 9.0);
    expect_canonical_edges(copy);
    expect_canonical_edges(g);
  }
}

}  // namespace
}  // namespace sor

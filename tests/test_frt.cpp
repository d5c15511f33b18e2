#include "oblivious/frt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace sor {
namespace {

std::vector<double> unit_lengths(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_edges()), 1.0);
}

TEST(Frt, EveryVertexHasALeaf) {
  Rng rng(1);
  const Graph g = gen::grid(4, 4);
  const FrtTree tree(g, unit_lengths(g), rng);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int leaf = tree.leaf_of(v);
    ASSERT_GE(leaf, 0);
    EXPECT_EQ(tree.nodes()[static_cast<std::size_t>(leaf)].center, v);
  }
}

TEST(Frt, TreeIsWellFormed) {
  Rng rng(2);
  const Graph g = gen::hypercube(4);
  const FrtTree tree(g, unit_lengths(g), rng);
  int roots = 0;
  for (const FrtNode& node : tree.nodes()) {
    if (node.parent < 0) {
      ++roots;
      EXPECT_EQ(node.depth, 0);
    } else {
      const FrtNode& parent = tree.nodes()[static_cast<std::size_t>(node.parent)];
      EXPECT_EQ(node.depth, parent.depth + 1);
      if (!node.path_to_parent.empty()) {
        EXPECT_EQ(node.path_to_parent.front(), node.center);
        EXPECT_EQ(node.path_to_parent.back(), parent.center);
      } else {
        EXPECT_EQ(node.center, parent.center);
      }
    }
  }
  EXPECT_EQ(roots, 1);
}

class FrtRouteSweep : public ::testing::TestWithParam<int> {};

TEST_P(FrtRouteSweep, RoutesAreValidSimplePaths) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  const Graph g = gen::erdos_renyi_connected(15, 0.25, rng);
  const FrtTree tree(g, unit_lengths(g), rng);
  for (int s = 0; s < g.num_vertices(); ++s) {
    for (int t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      const Path p = tree.route(s, t);
      ASSERT_TRUE(is_valid_path(g, p, s, t))
          << "bad route " << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrtRouteSweep, ::testing::Range(0, 8));

TEST(Frt, AverageStretchIsLogarithmic) {
  // FRT guarantees expected stretch O(log n); empirically verify the
  // average route length over pairs stays within a generous factor.
  Rng rng(3);
  const Graph g = gen::grid(5, 5);
  ShortestPathSampler sampler(g);
  double total_stretch = 0.0;
  int count = 0;
  const int kTrees = 8;
  for (int i = 0; i < kTrees; ++i) {
    const FrtTree tree(g, unit_lengths(g), rng);
    for (int s = 0; s < g.num_vertices(); ++s) {
      for (int t = s + 1; t < g.num_vertices(); ++t) {
        total_stretch += static_cast<double>(hop_count(tree.route(s, t))) /
                         static_cast<double>(sampler.hop_distance(s, t));
        ++count;
      }
    }
  }
  const double avg_stretch = total_stretch / count;
  EXPECT_LT(avg_stretch, 6.0);  // ~log2(25) with slack
  EXPECT_GE(avg_stretch, 1.0);
}

TEST(Frt, ClusterBoundariesArePositiveOffRoot) {
  Rng rng(4);
  const Graph g = gen::grid(3, 3);
  const FrtTree tree(g, unit_lengths(g), rng);
  const auto& boundary = tree.cluster_boundary();
  for (std::size_t id = 0; id < tree.nodes().size(); ++id) {
    if (tree.nodes()[id].parent < 0) {
      EXPECT_DOUBLE_EQ(boundary[id], 0.0);  // the root cluster is V
    } else {
      EXPECT_GT(boundary[id], 0.0);  // proper subset of a connected graph
    }
  }
}

TEST(Frt, EmbeddingLoadAccumulates) {
  Rng rng(5);
  const Graph g = gen::grid(3, 3);
  const FrtTree tree(g, unit_lengths(g), rng);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  tree.accumulate_embedding_load(g, load);
  double total = 0.0;
  for (double l : load) {
    EXPECT_GE(l, 0.0);
    total += l;
  }
  EXPECT_GT(total, 0.0);
}

TEST(Frt, RespectsEdgeLengths) {
  // With one enormous-length edge, FRT shortest-path embeddings should
  // avoid it whenever an alternative exists: its load stays zero.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const int heavy = g.add_edge(3, 0);
  std::vector<double> lengths(4, 1.0);
  lengths[static_cast<std::size_t>(heavy)] = 1000.0;
  Rng rng(6);
  for (int i = 0; i < 5; ++i) {
    const FrtTree tree(g, lengths, rng);
    std::vector<double> load(4, 0.0);
    tree.accumulate_embedding_load(g, load);
    EXPECT_DOUBLE_EQ(load[static_cast<std::size_t>(heavy)], 0.0);
  }
}

TEST(Frt, EmbeddedPathsMatchReferenceDijkstra) {
  // Every tree edge embeds the shortest path between the two centers that
  // the reference dijkstra() row of the parent center rebuilds — under unit
  // lengths (many ties, so tie-breaking must match too) and random ones.
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gen::erdos_renyi_connected(24, 0.2, rng);
    std::vector<double> lengths = unit_lengths(g);
    if (trial % 2 == 1) {
      for (double& l : lengths) l = 0.1 + rng.uniform_double();
    }
    const FrtTree tree(g, lengths, rng);
    for (const FrtNode& node : tree.nodes()) {
      if (node.parent < 0) continue;
      const int parent_center =
          tree.nodes()[static_cast<std::size_t>(node.parent)].center;
      if (node.center == parent_center) {
        EXPECT_TRUE(node.path_to_parent.empty());
        continue;
      }
      Path expected = shortest_path(g, parent_center, node.center, lengths);
      std::reverse(expected.begin(), expected.end());
      EXPECT_EQ(node.path_to_parent, expected);
    }
  }
}

/// The walk FrtTree::route cuts the loops of, as a textbook builds it:
/// climb both leaves to the LCA collecting each side's embedded paths, then
/// concatenate the s side with the reversed t side.
Path reference_walk(const FrtTree& tree, int s, int t) {
  const auto node = [&](int id) -> const FrtNode& {
    return tree.nodes()[static_cast<std::size_t>(id)];
  };
  Path up_from_s = {s};
  Path up_from_t = {t};
  const auto climb = [&](int& id, Path& walk) {
    const Path& p = node(id).path_to_parent;
    if (!p.empty()) walk.insert(walk.end(), p.begin() + 1, p.end());
    id = node(id).parent;
  };
  int a = tree.leaf_of(s);
  int b = tree.leaf_of(t);
  while (node(a).depth > node(b).depth) climb(a, up_from_s);
  while (node(b).depth > node(a).depth) climb(b, up_from_t);
  while (a != b) {
    climb(a, up_from_s);
    climb(b, up_from_t);
  }
  Path walk = up_from_s;
  walk.insert(walk.end(), up_from_t.rbegin() + 1, up_from_t.rend());
  return walk;
}

TEST(Frt, RouteMatchesWalkReference) {
  // Every ordered pair of several seeded trees — some sharing one table —
  // under unit and random lengths, on a torus, a random graph and a
  // multigraph; random lengths make the concatenated walks loop often.
  Rng rng(29);
  Graph multigraph = gen::grid(5, 5);
  multigraph.add_edge(0, 1, 3.0);
  multigraph.add_edge(12, 13, 0.5);
  const Graph graphs[] = {gen::grid(6, 6, /*wrap=*/true),
                          gen::erdos_renyi_connected(30, 0.15, rng),
                          multigraph};
  int looping = 0;
  for (const Graph& g : graphs) {
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<double> lengths = unit_lengths(g);
      if (trial == 1) {
        for (double& l : lengths) l = 0.1 + rng.uniform_double();
      }
      const FrtTable table(g, lengths);
      for (int draw = 0; draw < 3; ++draw) {
        const FrtTree tree(g, table, rng);
        for (int s = 0; s < g.num_vertices(); ++s) {
          for (int t = 0; t < g.num_vertices(); ++t) {
            if (s == t) continue;
            const Path walk = reference_walk(tree, s, t);
            const Path expected = simplify_walk(walk);
            ASSERT_EQ(tree.route(s, t), expected) << s << " -> " << t;
            looping += walk.size() != expected.size();
          }
        }
      }
    }
  }
  EXPECT_GT(looping, 1000);
}

TEST(Frt, TableRejectsUnseparableMetrics) {
  // FRT's radii halve until every cluster is a singleton; a distance that
  // is infinite, NaN, zero between distinct vertices or too large to scale
  // would stop that. The table refuses all of them in every build type.
  Rng rng(8);
  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  EXPECT_THROW(FrtTree(split, unit_lengths(split), rng),
               std::invalid_argument);
  const Graph g = gen::grid(3, 3);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 0.0,
                     std::numeric_limits<double>::max()}) {
    std::vector<double> lengths = unit_lengths(g);
    for (double& l : lengths) l = bad;
    EXPECT_THROW(FrtTable(g, lengths), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(FrtTable(Graph(1), {}));
}

}  // namespace
}  // namespace sor

#include "core/path_system.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"
#include "oblivious/valiant.h"

namespace sor {
namespace {

/// A graph on `n` vertices holding exactly `edges`.
Graph graph_with(int n, std::initializer_list<std::pair<int, int>> edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

TEST(PathSystem, AddAndQuery) {
  const Graph g = graph_with(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {1, 2}});
  PathSystem ps(g);
  EXPECT_FALSE(ps.has_pair(0, 3));
  ps.add_path(0, 3, {0, 1, 3});
  ps.add_path(0, 3, {0, 2, 3});
  ps.add_path(1, 2, {1, 2});
  EXPECT_TRUE(ps.has_pair(0, 3));
  EXPECT_EQ(ps.paths(0, 3).size(), 2u);
  EXPECT_EQ(ps.paths(3, 0).size(), 0u);  // directed pairs
  EXPECT_EQ(ps.sparsity(), 2u);
  EXPECT_EQ(ps.total_paths(), 3u);
  EXPECT_EQ(ps.num_pairs(), 2u);
}

TEST(PathSystem, MergeUnionsPaths) {
  const Graph g = graph_with(3, {{0, 1}, {1, 2}, {0, 2}});
  PathSystem a(g);
  a.add_path(0, 2, {0, 1, 2});
  PathSystem b(g);
  b.add_path(0, 2, {0, 2});
  b.add_path(1, 0, {1, 0});
  a.merge(b);
  EXPECT_EQ(a.paths(0, 2), (std::vector<Path>{{0, 1, 2}, {0, 2}}));
  EXPECT_EQ(a.paths(1, 0), (std::vector<Path>{{1, 0}}));
}

TEST(PathSystem, AlphaSampleSparsityAndValidity) {
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(1);
  const std::vector<std::pair<int, int>> pairs = {{0, 15}, {3, 12}, {5, 10}};
  const int alpha = 5;
  const PathSystem ps = sample_path_system(routing, alpha, pairs, rng);
  EXPECT_EQ(ps.num_pairs(), pairs.size());
  EXPECT_EQ(ps.sparsity(), static_cast<std::size_t>(alpha));
  for (const auto& [s, t] : pairs) {
    ASSERT_EQ(ps.paths(s, t).size(), static_cast<std::size_t>(alpha));
    for (const Path& p : ps.paths(s, t)) {
      EXPECT_TRUE(is_valid_path(g, p, s, t));
    }
  }
}

TEST(PathSystem, AllPairsSampleCoversEverything) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(2);
  const PathSystem ps = sample_path_system_all_pairs(routing, 2, rng);
  EXPECT_EQ(ps.num_pairs(), static_cast<std::size_t>(9 * 8));
  EXPECT_EQ(ps.sparsity(), 2u);
}

TEST(PathSystem, CutSampleSizesFollowMinCuts) {
  // On the gadget: leaf-to-leaf cut is 1, center-to-center cut is k.
  const int n = 8;
  const int k = 3;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  RandomShortestPathRouting routing(g);
  Rng rng(3);
  const int alpha = 2;
  const std::vector<std::pair<int, int>> pairs = {
      {layout.left_leaf(0), layout.right_leaf(0)},
      {layout.left_center(), layout.right_center()}};
  const PathSystem ps =
      sample_path_system_with_cut(routing, alpha, pairs, rng);
  EXPECT_EQ(ps.paths(pairs[0].first, pairs[0].second).size(),
            static_cast<std::size_t>(alpha + 1));
  EXPECT_EQ(ps.paths(pairs[1].first, pairs[1].second).size(),
            static_cast<std::size_t>(alpha + k));
}

TEST(PathSystem, SupportPairsOfDemand) {
  Demand d;
  d.set(4, 2, 1.0);
  d.set(1, 3, 2.0);
  const auto pairs = support_pairs(d);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair{1, 3}));
  EXPECT_EQ(pairs[1], (std::pair{4, 2}));
}

TEST(PathSystem, MissReturnsSharedImmutableEmptyList) {
  const Graph g = graph_with(4, {{0, 1}, {1, 3}, {1, 2}});
  PathSystem a(g);
  a.add_path(0, 3, {0, 1, 3});

  // A miss reads as an empty list, through both accessors.
  EXPECT_TRUE(a.paths(1, 2).empty());
  EXPECT_TRUE(a.paths(3, 0).empty());
  EXPECT_TRUE(a.refs(1, 2).empty());

  // Const lookups never materialize entries.
  EXPECT_EQ(a.num_pairs(), 1u);
  EXPECT_FALSE(a.has_pair(1, 2));
  EXPECT_FALSE(a.has_pair(3, 0));

  a.add_path(1, 2, {1, 2});
  EXPECT_EQ(a.paths(1, 2).size(), 1u);
  EXPECT_EQ(a.num_pairs(), 2u);
}

TEST(PathSystem, SpecialDemandValues) {
  // Definition 5.5: d(s,t) = alpha + cut_G(s,t) on the support.
  const int n = 6;
  const int k = 2;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  const int alpha = 3;
  const Demand d = special_demand(
      g, alpha,
      {{layout.left_leaf(0), layout.right_leaf(1)},
       {layout.left_center(), layout.right_center()}});
  EXPECT_DOUBLE_EQ(d.at(layout.left_leaf(0), layout.right_leaf(1)),
                   static_cast<double>(alpha + 1));
  EXPECT_DOUBLE_EQ(d.at(layout.left_center(), layout.right_center()),
                   static_cast<double>(alpha + k));
}

}  // namespace
}  // namespace sor

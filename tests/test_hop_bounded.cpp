#include "lp/hop_bounded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {
namespace {

std::vector<double> unit_lengths(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_edges()), 1.0);
}

TEST(HopBounded, MatchesDijkstraWhenBoundIsLoose) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi_connected(15, 0.25, rng);
  std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
  for (auto& l : lengths) l = 0.5 + rng.uniform_double();
  const auto exact = dijkstra(g, 0, lengths);
  const auto bounded = hop_bounded_distances(g, 0, g.num_vertices(), lengths);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(bounded[static_cast<std::size_t>(v)],
                exact[static_cast<std::size_t>(v)], 1e-9);
  }
}

TEST(HopBounded, TightBoundForcesExpensiveDirectRoute) {
  // Cheap long way (3 hops, cost 3) vs expensive direct edge (cost 10):
  // with max_hops = 1 only the direct edge is allowed.
  Graph g(4);
  const int direct = g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<double> lengths(4, 1.0);
  lengths[static_cast<std::size_t>(direct)] = 10.0;
  const auto d1 = hop_bounded_distances(g, 0, 1, lengths);
  EXPECT_DOUBLE_EQ(d1[3], 10.0);
  const auto d3 = hop_bounded_distances(g, 0, 3, lengths);
  EXPECT_DOUBLE_EQ(d3[3], 3.0);
}

TEST(HopBounded, UnreachableWithinBound) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = hop_bounded_distances(g, 0, 2, unit_lengths(g));
  EXPECT_TRUE(std::isinf(d[3]));
  EXPECT_TRUE(hop_bounded_shortest_path(g, 0, 3, 2, unit_lengths(g)).empty());
}

TEST(HopBoundedCongestion, RejectsPairBeyondTheHopBound) {
  // 0-1-2-3 has no path of at most 2 hops from 0 to 3, so the solve must
  // reject that pair by name; with 3 hops it routes.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {0, 3, 2.0}};
  try {
    (void)min_congestion_hop_bounded(g, demand, 2);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("(0, 3)"), std::string::npos)
        << error.what();
  }
  EXPECT_GT(min_congestion_hop_bounded(g, demand, 3).congestion, 0.0);
}

TEST(HopBounded, ExtractedPathRespectsBoundAndCost) {
  Rng rng(2);
  const Graph g = gen::grid(4, 4);
  std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
  for (auto& l : lengths) l = 0.1 + rng.uniform_double();
  for (int h : {6, 8, 12}) {
    const Path p = hop_bounded_shortest_path(g, 0, 15, h, lengths);
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(is_valid_path(g, p, 0, 15));
    EXPECT_LE(hop_count(p), h);
    const auto dist = hop_bounded_distances(g, 0, h, lengths);
    double cost = 0.0;
    for (int e : path_edge_ids(g, p)) cost += lengths[static_cast<std::size_t>(e)];
    EXPECT_LE(cost, dist[15] + 1e-9);
  }
}

class HopBoundedSweep : public ::testing::TestWithParam<int> {};

TEST_P(HopBoundedSweep, MonotoneInBound) {
  // Distances can only shrink as the hop budget grows.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
  for (auto& l : lengths) l = 0.1 + rng.uniform_double();
  auto prev = hop_bounded_distances(g, 3, 1, lengths);
  for (int h = 2; h <= 8; ++h) {
    const auto cur = hop_bounded_distances(g, 3, h, lengths);
    for (int v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(cur[static_cast<std::size_t>(v)],
                prev[static_cast<std::size_t>(v)] + 1e-12);
    }
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopBoundedSweep, ::testing::Range(0, 6));

TEST(HopBoundedCongestion, SinglePairOnTrap) {
  // Trap: direct edge (cap 1) + 2 detours of length 4 (cap 2 each).
  // Demand 5 from s to t: with max_hops = 1 only direct -> congestion 5.
  // With max_hops = 4 the optimum spreads: 1 on direct, 4 over the detours
  // (cap 4 total) -> congestion 1.
  const Graph g = gen::dilation_trap(4, 2, 2.0);
  const std::vector<Commodity> demand = {{0, 1, 5.0}};
  const auto tight = min_congestion_hop_bounded(g, demand, 1);
  EXPECT_NEAR(tight.congestion, 5.0, 1e-6);
  MinCongestionOptions options;
  options.rounds = 1200;
  const auto loose = min_congestion_hop_bounded(g, demand, 4, options);
  EXPECT_LT(loose.congestion, 1.35);
  EXPECT_GE(loose.congestion, 1.0 - 1e-9);
  // The h-hop duality certificate is a valid lower bound.
  EXPECT_LE(loose.lower_bound, loose.congestion + 1e-9);
}

TEST(HopBoundedCongestion, ApproachesUnboundedOptimum) {
  Rng rng(3);
  const Graph g = gen::grid(4, 4);
  std::vector<Commodity> demand = {{0, 15, 2.0}, {3, 12, 2.0}};
  MinCongestionOptions options;
  options.rounds = 800;
  const auto bounded =
      min_congestion_hop_bounded(g, demand, g.num_vertices(), options);
  const double unbounded = min_congestion_free_exact(g, demand);
  EXPECT_GE(bounded.congestion, unbounded - 1e-6);
  EXPECT_LE(bounded.congestion, unbounded * 1.2 + 0.05);
}

}  // namespace
}  // namespace sor

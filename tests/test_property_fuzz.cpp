// Randomized cross-module property tests ("fuzz" sweeps): each test draws
// many random instances and checks an invariant that must hold exactly,
// regardless of the draw.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/shortest_path.h"
#include "io/serialization.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ull + 1};
};

TEST_P(FuzzSweep, SimplifyWalkInvariants) {
  // Any walk over any alphabet: output is simple, keeps endpoints, and
  // every consecutive output pair was consecutive somewhere in a valid
  // traversal sense (subsequence of collapses). We check the first three.
  for (int trial = 0; trial < 200; ++trial) {
    const int len = rng_.uniform_int(1, 20);
    Path walk;
    walk.push_back(rng_.uniform_int(0, 5));
    for (int i = 1; i < len; ++i) {
      walk.push_back(rng_.uniform_int(0, 5));
    }
    const Path simple = simplify_walk(walk);
    ASSERT_FALSE(simple.empty());
    EXPECT_EQ(simple.front(), walk.front());
    EXPECT_EQ(simple.back(), walk.back());
    std::set<int> seen(simple.begin(), simple.end());
    EXPECT_EQ(seen.size(), simple.size());
    // All output vertices appeared in the input.
    for (int v : simple) {
      EXPECT_NE(std::find(walk.begin(), walk.end(), v), walk.end());
    }
  }
}

TEST_P(FuzzSweep, MaxFlowDualityAndSymmetry) {
  const Graph g = gen::erdos_renyi_connected(10, 0.35, rng_);
  for (int trial = 0; trial < 5; ++trial) {
    const int s = rng_.uniform_int(0, 9);
    int t = rng_.uniform_int(0, 9);
    if (s == t) continue;
    std::vector<char> side;
    const double flow = min_cut(g, s, t, &side);
    // Flow equals the capacity of the returned cut (strong duality).
    EXPECT_NEAR(g.boundary_capacity(side), flow, 1e-7);
    // Undirected max flow is symmetric.
    EXPECT_NEAR(max_flow(g, t, s), flow, 1e-7);
    // Flow is bounded by both endpoint degrees (capacity 1 edges).
    EXPECT_LE(flow, std::min(g.degree(s), g.degree(t)) + 1e-9);
  }
}

TEST_P(FuzzSweep, RoutingConservesDemand) {
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng_);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(12, 5, rng_, 1.5);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng_);
  const auto solution = route_fractional(g, ps, d);
  // Per-commodity conservation and global load accounting:
  // sum_e load_e == sum_j amount_j * hops(weighted avg path).
  double expected_load = 0.0;
  for (std::size_t j = 0; j < solution.commodities.size(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < solution.weights[j].size(); ++i) {
      sum += solution.weights[j][i];
      expected_load += solution.weights[j][i] *
                       static_cast<double>(solution.candidates.edges(j, i).size());
    }
    EXPECT_NEAR(sum, solution.commodities[j].amount, 1e-7);
  }
  double total_load = 0.0;
  for (double l : solution.edge_load) total_load += l;
  EXPECT_NEAR(total_load, expected_load, 1e-6);
}

TEST_P(FuzzSweep, OptimalCongestionCertificatesOrdered) {
  const Graph g = gen::erdos_renyi_connected(10, 0.4, rng_);
  const Demand d = gen::random_pairs_demand(10, 4, rng_);
  if (d.empty()) return;
  MinCongestionOptions options;
  options.rounds = 300;
  const auto opt = optimal_congestion(g, d, options);
  EXPECT_LE(opt.lower, opt.upper + 1e-9);
  EXPECT_GE(opt.lower, 0.0);
  // The distance bound is also below the feasible upper bound.
  EXPECT_LE(distance_lower_bound(g, d), opt.upper + 1e-9);
}

TEST_P(FuzzSweep, GraphIoRoundTrip) {
  const Graph g = gen::erdos_renyi_connected(8, 0.4, rng_);
  std::stringstream buffer;
  io::write_graph(buffer, g);
  const auto loaded = io::read_graph(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).u, g.edge(e).u);
    EXPECT_EQ(loaded->edge(e).v, g.edge(e).v);
  }
}

TEST_P(FuzzSweep, PathSystemIoRoundTrip) {
  const Graph g = gen::erdos_renyi_connected(9, 0.4, rng_);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(9, 4, rng_);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 2, support_pairs(d), rng_);
  std::stringstream buffer;
  io::write_path_system(buffer, ps);
  const auto loaded = io::read_path_system(buffer, g);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_paths(), ps.total_paths());
  EXPECT_EQ(loaded->sparsity(), ps.sparsity());
}

TEST_P(FuzzSweep, ShortestPathSamplerAlwaysTight) {
  const Graph g = gen::random_regular(14, 4, rng_);
  ShortestPathSampler sampler(g);
  for (int trial = 0; trial < 20; ++trial) {
    const int s = rng_.uniform_int(0, 13);
    int t = rng_.uniform_int(0, 13);
    if (s == t) continue;
    const Path p = sampler.sample(s, t, rng_);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
    EXPECT_EQ(hop_count(p), sampler.hop_distance(s, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace sor

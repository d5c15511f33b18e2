#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {
namespace {

TEST(MinCongestion, CongestionOfWeightsComputesLoads) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<Commodity> demand = {{0, 2, 3.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1, 2}}};
  const std::vector<std::vector<double>> weights = {{3.0}};
  std::vector<double> load;
  const double cong = congestion_of_weights(g, demand, paths, weights, &load);
  EXPECT_DOUBLE_EQ(load[0], 3.0);
  EXPECT_DOUBLE_EQ(load[1], 3.0);
  EXPECT_DOUBLE_EQ(cong, 3.0);  // edge (1,2) capacity 1
}

TEST(MinCongestion, SingleCommoditySinglePath) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const std::vector<Commodity> demand = {{0, 1, 2.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1}}};
  const auto result = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(result.congestion, 2.0, 1e-9);
  EXPECT_NEAR(result.path_weights[0][0], 2.0, 1e-9);
}

TEST(MinCongestion, SplitsAcrossParallelPaths) {
  // Diamond: 0-1-3 and 0-2-3, unit capacities, demand 2 from 0 to 3:
  // optimal split gives congestion 1.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 3, 2.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1, 3}, {0, 2, 3}}};
  const auto result = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(result.congestion, 1.0, 0.05);
  EXPECT_NEAR(result.path_weights[0][0], 1.0, 0.1);
  EXPECT_NEAR(result.path_weights[0][1], 1.0, 0.1);
  // Dual certificate is valid: lower <= true optimum (1.0).
  EXPECT_LE(result.lower_bound, 1.0 + 1e-9);
}

TEST(MinCongestion, RespectsCapacities) {
  // Two paths, one with capacity 3 and one with capacity 1; optimal load
  // ratio is 3:1 giving congestion demand/4.
  Graph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<Commodity> demand = {{0, 3, 4.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1, 3}, {0, 2, 3}}};
  const auto exact =
      min_congestion_over_paths_exact(g, demand, flatten_candidates(g, paths));
  EXPECT_NEAR(exact.congestion, 1.0, 1e-6);
  const auto mwu = min_congestion_over_paths(g, demand, paths);
  EXPECT_NEAR(mwu.congestion, 1.0, 0.08);
}

TEST(MinCongestion, ExactMatchesHandSolvedInstance) {
  // Two commodities forced over a shared edge of capacity 1.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {0, 2, 1.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1}}, {{0, 1, 2}}};
  const auto exact =
      min_congestion_over_paths_exact(g, demand, flatten_candidates(g, paths));
  EXPECT_NEAR(exact.congestion, 2.0, 1e-6);  // edge (0,1) carries both
}

TEST(MinCongestion, FreeExactOnDiamond) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 3, 2.0}};
  EXPECT_NEAR(min_congestion_free_exact(g, demand), 1.0, 1e-6);
}

TEST(MinCongestion, FreeExactFinishesOnACapacitatedCycle) {
  // A capacitated 5-cycle 0-3-2-4-5-0 with vertex 1 hanging off 5: phase 2
  // of the dense simplex must price the artificials still basic in the
  // redundant conservation rows at 0. A large price lifts round-off above
  // the pivot tolerance, and Bland's rule cycles on this instance.
  Graph g(6);
  g.add_edge(0, 3, 2.5);
  g.add_edge(0, 5, 0.5);
  g.add_edge(1, 5, 3.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(2, 4, 2.0);
  g.add_edge(4, 5, 1.5);
  const std::vector<Commodity> demand = {
      {2, 5, 1.5}, {1, 2, 2.5}, {2, 0, 2.0}};
  EXPECT_NEAR(min_congestion_free_exact(g, demand), 2.0, 1e-9);
}

// Builds the Demand of a commodity list with distinct pairs.
Demand demand_of(const std::vector<Commodity>& commodities) {
  Demand d;
  for (const Commodity& c : commodities) d.set(c.s, c.t, c.amount);
  return d;
}

TEST(MinCongestion, FreeMwuSandwichedByDuality) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(10, 0.35, rng);
  std::vector<Commodity> demand;
  for (int i = 0; i < 4; ++i) {
    demand.push_back({i, 9 - i, 1.0 + i * 0.5});
  }
  MinCongestionOptions options;
  options.rounds = 1500;
  const OptimalCongestion result =
      optimal_congestion(g, demand_of(demand), options);
  const double exact = min_congestion_free_exact(g, demand);
  EXPECT_LE(result.lower, exact + 1e-6);
  EXPECT_GE(result.upper, exact - 1e-6);
  // The optimum should be close to optimal.
  EXPECT_LE(result.upper, exact * 1.1 + 1e-6);
}

TEST(MinCongestion, EmptyDemandIsZero) {
  const Graph g = gen::complete(4);
  const OptimalCongestion result = optimal_congestion(g, Demand{});
  EXPECT_DOUBLE_EQ(result.upper, 0.0);
  EXPECT_DOUBLE_EQ(result.lower, 0.0);
}

// The solvers reject demand they cannot route with std::invalid_argument
// naming the pair: a restricted commodity with demand but no candidate, an
// optimum commodity whose target is unreachable.
void expect_rejects_pair(const std::function<void()>& solve,
                         const std::string& pair) {
  try {
    solve();
    ADD_FAILURE() << "expected std::invalid_argument naming " << pair;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(pair), std::string::npos)
        << error.what();
  }
}

TEST(MinCongestion, RestrictedRejectsDemandWithoutCandidates) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {2, 3, 5.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1}}, {}};
  expect_rejects_pair(
      [&] { (void)min_congestion_over_paths(g, demand, paths); }, "(2, 3)");
  // A zero-demand pair needs no candidate.
  const std::vector<Commodity> idle = {{0, 1, 1.0}, {2, 3, 0.0}};
  EXPECT_DOUBLE_EQ(min_congestion_over_paths(g, idle, paths).congestion, 1.0);
}

TEST(MinCongestion, FreeRejectsUnreachablePair) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 1, 1.0}, {0, 3, 2.0}};
  expect_rejects_pair(
      [&] { (void)optimal_congestion(g, demand_of(demand)); }, "(0, 3)");
}

class MwuVsSimplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(MwuVsSimplexSweep, RestrictedMwuNearExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  ShortestPathSampler sampler(g);

  // Random demand over a few pairs; candidates = 3 random shortest paths.
  std::vector<Commodity> demand;
  std::vector<std::vector<Path>> paths;
  for (int i = 0; i < 5; ++i) {
    int s = rng.uniform_int(0, 11);
    int t = rng.uniform_int(0, 11);
    if (s == t) continue;
    demand.push_back({s, t, 1.0 + rng.uniform_double() * 2.0});
    std::vector<Path> cands;
    for (int c = 0; c < 3; ++c) cands.push_back(sampler.sample(s, t, rng));
    paths.push_back(std::move(cands));
  }
  if (demand.empty()) return;

  const auto exact =
      min_congestion_over_paths_exact(g, demand, flatten_candidates(g, paths));
  MinCongestionOptions options;
  options.rounds = 2000;
  options.target_gap = 1.01;
  const auto mwu = min_congestion_over_paths(g, demand, paths, options);

  EXPECT_GE(mwu.congestion, exact.congestion - 1e-6);
  EXPECT_LE(mwu.congestion, exact.congestion * 1.1 + 1e-6);
  EXPECT_LE(mwu.lower_bound, exact.congestion + 1e-6);

  // Weights are a feasible routing: per-commodity sums match demands.
  for (std::size_t j = 0; j < demand.size(); ++j) {
    double sum = 0.0;
    for (double w : mwu.path_weights[j]) sum += w;
    EXPECT_NEAR(sum, demand[j].amount, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwuVsSimplexSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace sor

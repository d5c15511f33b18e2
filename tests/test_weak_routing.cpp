#include "core/weak_routing.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"
#include "oblivious/valiant.h"

namespace sor {
namespace {

TEST(DeletionProcess, HighThresholdRoutesEverything) {
  const Graph g = gen::grid(3, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(1);
  Demand d;
  d.set(0, 11, 2.0);
  d.set(4, 7, 1.0);
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng);
  const auto result = run_deletion_process(g, ps, d, /*gamma=*/1000.0);
  EXPECT_DOUBLE_EQ(result.routed_fraction, 1.0);
  EXPECT_EQ(result.edges_overloaded, 0);
  EXPECT_NEAR(result.routed.size(), d.size(), 1e-9);
}

TEST(DeletionProcess, CongestionNeverExceedsGamma) {
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(2);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  for (double gamma : {0.5, 1.0, 2.0, 4.0}) {
    const auto result = run_deletion_process(g, ps, d, gamma);
    EXPECT_LE(result.congestion, gamma + 1e-9) << "gamma " << gamma;
    for (const auto& [pair, value] : result.routed.entries()) {
      EXPECT_LE(value, d.at(pair.first, pair.second) + 1e-9);
    }
  }
}

TEST(DeletionProcess, TinyThresholdDeletesPaths) {
  // A single pair with all paths over one bridge: gamma below the demand
  // forces deletion of everything.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  PathSystem ps(g);
  ps.add_path(0, 2, {0, 1, 2});
  Demand d;
  d.set(0, 2, 4.0);
  const auto result = run_deletion_process(g, ps, d, /*gamma=*/1.0);
  EXPECT_EQ(result.edges_overloaded, 1);  // first overloaded edge kills path
  EXPECT_DOUBLE_EQ(result.routed_fraction, 0.0);
  EXPECT_TRUE(result.routed.empty());
}

TEST(DeletionProcess, MainLemmaStatisticallyHolds) {
  // Theorem 5.3's engine: on the hypercube with Valiant sampling and
  // alpha = O(log n), the deletion process at gamma = polylog routes at
  // least half of a permutation demand in the vast majority of runs.
  const int dim = 5;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(3);
  const int alpha = 6;
  int successes = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
    const PathSystem ps =
        sample_path_system(routing, alpha, support_pairs(d), rng);
    const auto result = run_deletion_process(g, ps, d, /*gamma=*/4.0);
    if (result.routed_fraction >= 0.5) ++successes;
  }
  EXPECT_GE(successes, 8) << "deletion process failed too often";
}

TEST(IterativeHalving, RoutesFullDemand) {
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(4);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const PathSystem ps =
      sample_path_system(routing, 5, support_pairs(d), rng);
  const auto result = iterative_halving_route(g, ps, d, /*gamma=*/3.0);
  EXPECT_DOUBLE_EQ(result.flushed_size, 0.0);
  EXPECT_GE(result.rounds, 1);
  // Lemma 5.8: O(log m) rounds at <= 4 gamma each.
  EXPECT_LE(result.congestion,
            4.0 * 3.0 * static_cast<double>(result.rounds) + 1e-9);
  // Edge loads account for the entire demand: total load >= total demand
  // (each unit crosses >= 1 edge).
  double total_load = 0.0;
  for (double l : result.edge_load) total_load += l;
  EXPECT_GE(total_load, d.size() - 1e-6);
}

TEST(IterativeHalving, ImpossibleGammaFlushes) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  PathSystem ps(g);
  ps.add_path(0, 2, {0, 1, 2});
  Demand d;
  d.set(0, 2, 10.0);
  const auto result =
      iterative_halving_route(g, ps, d, /*gamma=*/0.5, /*max_rounds=*/8);
  EXPECT_DOUBLE_EQ(result.flushed_size, 10.0);
  EXPECT_DOUBLE_EQ(result.congestion, 10.0);
}

TEST(IterativeHalving, RoundsShrinkGeometrically) {
  // With a gamma comfortably above need, one or two rounds suffice.
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(5);
  const Demand d = gen::random_permutation_demand(16, rng);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto result = iterative_halving_route(g, ps, d, /*gamma=*/50.0);
  EXPECT_LE(result.rounds, 2);
  EXPECT_DOUBLE_EQ(result.flushed_size, 0.0);
}

}  // namespace
}  // namespace sor

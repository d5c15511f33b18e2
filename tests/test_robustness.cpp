#include "core/robustness.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

TEST(Robustness, RemoveEdgesPreservesTheRest) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  const Graph failed = remove_edges(g, {1});
  EXPECT_EQ(failed.num_vertices(), 4);
  ASSERT_EQ(failed.num_edges(), 2);
  EXPECT_DOUBLE_EQ(failed.edge(0).capacity, 1.0);
  EXPECT_DOUBLE_EQ(failed.edge(1).capacity, 3.0);
  EXPECT_FALSE(failed.is_connected());
}

TEST(Robustness, SurvivingPathsDropCrossingCandidates) {
  const Graph g = gen::grid(2, 3);  // 0 1 2 / 3 4 5
  PathSystem ps(g);
  ps.add_path(0, 2, {0, 1, 2});
  ps.add_path(0, 2, {0, 3, 4, 5, 2});
  const int edge01 = g.edge_between(0, 1);
  const PathSystem survivors = surviving_paths(g, ps, {edge01});
  ASSERT_EQ(survivors.paths(0, 2).size(), 1u);
  EXPECT_EQ(survivors.paths(0, 2)[0], (Path{0, 3, 4, 5, 2}));
}

TEST(Robustness, SampleFailuresKeepsConnectivity) {
  Rng rng(1);
  const Graph g = gen::grid(4, 4);
  for (int count : {1, 3, 6}) {
    const auto failed = sample_failures(g, count, rng);
    EXPECT_EQ(static_cast<int>(failed.size()), count);
    EXPECT_TRUE(remove_edges(g, failed).is_connected());
  }
}

TEST(Robustness, SampleFailuresOnTreeFindsNothing) {
  // Every edge of a path graph is a bridge: nothing is removable.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Rng rng(2);
  EXPECT_TRUE(sample_failures(g, 2, rng).empty());
}

TEST(Robustness, EvaluateReportsCoverageAndCongestion) {
  Rng rng(3);
  const Graph g = gen::hypercube(4);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_permutation_demand(16, rng);
  // alpha = 4 diverse candidates: a couple of failures should leave most
  // pairs covered.
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto failures = sample_failures(g, 3, rng);
  const auto report = evaluate_under_failures(g, ps, d, failures);
  EXPECT_EQ(report.pairs_total, d.support_size());
  EXPECT_GE(report.coverage(), 0.6);
  EXPECT_LE(report.coverage(), 1.0);
  if (report.demand_covered > 0.0) {
    EXPECT_GT(report.congestion, 0.0);
  }
}

TEST(Robustness, NoFailuresMeansFullCoverage) {
  Rng rng(4);
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Demand d;
  d.set(0, 8, 2.0);
  const PathSystem ps =
      sample_path_system(routing, 2, support_pairs(d), rng);
  const auto report = evaluate_under_failures(g, ps, d, {});
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
  EXPECT_EQ(report.pairs_covered, 1u);
}

TEST(Robustness, HigherAlphaSurvivesBetter) {
  // The paper's robustness story: more sampled candidates -> more pairs
  // keep a live path under the same failures.
  Rng rng(5);
  const Graph g = gen::hypercube(5);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_permutation_demand(32, rng);
  const auto pairs = support_pairs(d);
  const PathSystem ps1 = sample_path_system(routing, 1, pairs, rng);
  const PathSystem ps6 = sample_path_system(routing, 6, pairs, rng);
  double coverage1 = 0.0;
  double coverage6 = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    const auto failures = sample_failures(g, 6, rng);
    coverage1 += evaluate_under_failures(g, ps1, d, failures).coverage();
    coverage6 += evaluate_under_failures(g, ps6, d, failures).coverage();
  }
  EXPECT_GE(coverage6, coverage1);
}

TEST(Robustness, RepairRestoresCoverage) {
  Rng rng(6);
  const Graph g = gen::hypercube(4);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_permutation_demand(16, rng);
  const PathSystem ps =
      sample_path_system(routing, 1, support_pairs(d), rng);
  const auto failures = sample_failures(g, 5, rng);
  const Graph failed_graph = remove_edges(g, failures);
  const PathSystem survivors = surviving_paths(g, ps, failures);
  RandomShortestPathRouting failed_routing(failed_graph);
  const PathSystem repaired =
      repair_path_system(failed_graph, failed_routing, survivors, d, 2, rng);
  EXPECT_EQ(repaired.store().graph(), &failed_graph);
  for (const auto& [pair, value] : d.entries()) {
    EXPECT_FALSE(repaired.paths(pair.first, pair.second).empty());
  }
  // Bound to the failed graph, the repaired system routes there directly.
  EXPECT_GT(route_fractional(failed_graph, repaired, d).congestion, 0.0);
}

}  // namespace
}  // namespace sor

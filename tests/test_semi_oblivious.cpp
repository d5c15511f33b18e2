#include "core/semi_oblivious.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "oblivious/shortest_path_routing.h"
#include "oblivious/valiant.h"

namespace sor {
namespace {

/// The distance bound summed in entries() order over one full reference
/// dijkstra() per source.
double reference_distance_bound(const Graph& g, const Demand& d) {
  std::vector<double> lengths(static_cast<std::size_t>(g.num_edges()));
  double denominator = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    lengths[static_cast<std::size_t>(e)] = 1.0 / g.edge(e).capacity;
    denominator += 1.0;
  }
  double numerator = 0.0;
  int source = -1;
  std::vector<double> dist;
  for (const auto& [pair, value] : d.entries()) {
    if (pair.first != source) {
      source = pair.first;
      dist = dijkstra(g, source, lengths);
    }
    numerator += value * dist[static_cast<std::size_t>(pair.second)];
  }
  return numerator / denominator;
}

/// Distinct sources of `d` with a pair that `seen` lacks.
int sources_with_unseen_pairs(const Demand& d, const Demand& seen) {
  std::set<int> sources;
  for (const auto& [pair, value] : d.entries()) {
    if (seen.at(pair.first, pair.second) == 0.0) sources.insert(pair.first);
  }
  return static_cast<int>(sources.size());
}

TEST(SemiOblivious, DistanceBoundMatchesPerSourceDijkstraReference) {
  // The early-exit CSR bound equals the reference bit for bit: random
  // capacities, sources with several targets, targets shared between
  // sources, and one scratch reused across graphs and demands. The
  // scratch's memo of pair distances must not change a bit either: a
  // repeated demand runs no Dijkstra, an overlapping one runs one per
  // source with an unseen pair, and a capacity edit (or its undoing)
  // recomputes every source.
  Rng rng(41);
  DistanceBoundScratch scratch;
  const Demand none;
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    Graph g = gen::erdos_renyi_connected(40, 0.12, rng);
    for (int e = 0; e < g.num_edges(); ++e) {
      g.set_capacity(e, 0.5 + 4.0 * rng.uniform_double());
    }
    const int n = g.num_vertices();
    std::vector<int> shared_targets;
    for (int i = 0; i < 4; ++i) {
      shared_targets.push_back(rng.uniform_int(0, n - 1));
    }
    Demand d;
    for (int i = 0; i < 5; ++i) {
      const int s = rng.uniform_int(0, n - 1);
      for (int t : shared_targets) {
        if (t != s) d.set(s, t, 0.5 + rng.uniform_double());
      }
      for (int k = 0; k < 3; ++k) {
        const int t = rng.uniform_int(0, n - 1);
        if (t != s) d.set(s, t, 1.0 + static_cast<double>(k));
      }
    }
    const double expected = reference_distance_bound(g, d);
    EXPECT_EQ(distance_lower_bound(g, d), expected);
    EXPECT_EQ(distance_lower_bound(g, d, scratch), expected);
    EXPECT_EQ(scratch.dijkstra_runs, sources_with_unseen_pairs(d, none));
    EXPECT_EQ(distance_lower_bound(g, d, scratch), expected);
    EXPECT_EQ(scratch.dijkstra_runs, 0);

    // Every other pair of d at new amounts, plus new targets for some of
    // its sources and pairs from fresh sources.
    Demand overlap;
    bool keep = true;
    for (const auto& [pair, value] : d.entries()) {
      if (keep) overlap.set(pair.first, pair.second, 2.0 * value);
      keep = !keep;
    }
    for (int i = 0; i < 6; ++i) {
      const int s = i % 2 == 0 ? d.entries().begin()->first.first
                               : rng.uniform_int(0, n - 1);
      const int t = rng.uniform_int(0, n - 1);
      if (t != s) overlap.set(s, t, 0.25 + rng.uniform_double());
    }
    const int unseen = sources_with_unseen_pairs(overlap, d);
    ASSERT_GT(unseen, 0);
    EXPECT_EQ(distance_lower_bound(g, overlap, scratch),
              reference_distance_bound(g, overlap));
    EXPECT_EQ(scratch.dijkstra_runs, unseen);

    // A capacity edit changes the memo's key, and so does its undoing.
    const int all_sources = sources_with_unseen_pairs(overlap, none);
    std::vector<std::pair<int, double>> edited;
    for (int i = 0; i < 3; ++i) {
      const int e = rng.uniform_int(0, g.num_edges() - 1);
      edited.emplace_back(e, g.edge(e).capacity);
      g.set_capacity(e, 0.25 * g.edge(e).capacity);
    }
    EXPECT_EQ(distance_lower_bound(g, overlap, scratch),
              reference_distance_bound(g, overlap));
    EXPECT_EQ(scratch.dijkstra_runs, all_sources);
    for (auto it = edited.rbegin(); it != edited.rend(); ++it) {
      g.set_capacity(it->first, it->second);
    }
    EXPECT_EQ(distance_lower_bound(g, overlap, scratch),
              reference_distance_bound(g, overlap));
    EXPECT_EQ(scratch.dijkstra_runs, all_sources);
  }
}

TEST(SemiOblivious, SinglePairSinglePath) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  PathSystem ps(g);
  ps.add_path(0, 2, {0, 1, 2});
  Demand d;
  d.set(0, 2, 3.0);
  const auto solution = route_fractional(g, ps, d);
  EXPECT_NEAR(solution.congestion, 3.0, 1e-9);
  EXPECT_EQ(solution.max_hops, 2);
}

TEST(SemiOblivious, WeightsAreAFeasibleRouting) {
  const Graph g = gen::grid(3, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(1);
  Demand d;
  d.set(0, 11, 2.0);
  d.set(3, 8, 1.5);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto solution = route_fractional(g, ps, d);
  ASSERT_EQ(solution.commodities.size(), 2u);
  for (std::size_t j = 0; j < solution.commodities.size(); ++j) {
    double sum = 0.0;
    for (double w : solution.weights[j]) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, solution.commodities[j].amount, 1e-9);
  }
}

TEST(SemiOblivious, ExactMatchesMwuOnDiamond) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  PathSystem ps(g);
  ps.add_path(0, 3, {0, 1, 3});
  ps.add_path(0, 3, {0, 2, 3});
  Demand d;
  d.set(0, 3, 2.0);
  const auto exact = route_fractional_exact(g, ps, d);
  EXPECT_NEAR(exact.congestion, 1.0, 1e-6);
  MinCongestionOptions options;
  options.rounds = 1500;
  const auto mwu = route_fractional(g, ps, d, options);
  EXPECT_NEAR(mwu.congestion, exact.congestion, 0.08);
  EXPECT_LE(mwu.lower_bound, exact.congestion + 1e-6);
}

TEST(SemiOblivious, OptimalCongestionSandwich) {
  // Two cliques joined by b bridges; a single unit crossing has optimal
  // congestion 1/b.
  const int b = 4;
  const Graph g = gen::two_cliques(6, b);
  Demand d;
  d.set(3, 6 + 3, 1.0);
  const OptimalCongestion opt = optimal_congestion(g, d);
  EXPECT_LE(opt.lower, 1.0 / b + 1e-6);
  EXPECT_GE(opt.upper, 1.0 / b - 1e-6);
  EXPECT_LE(opt.upper, 1.3 / b);  // MWU should come close
  EXPECT_LE(opt.lower, opt.upper + 1e-12);
}

TEST(SemiOblivious, CompetitiveRatioAgainstOptimal) {
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(2);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const PathSystem ps =
      sample_path_system(routing, 6, support_pairs(d), rng);
  const auto solution = route_fractional(g, ps, d);
  const OptimalCongestion opt = optimal_congestion(g, d);
  const double ratio = competitive_ratio(solution, opt);
  EXPECT_GE(ratio, 0.9);   // cannot beat the optimum (allow solver noise)
  EXPECT_LE(ratio, 12.0);  // polylog for alpha ~ log n, generous slack
}

TEST(SemiOblivious, EmptyDemand) {
  const Graph g = gen::complete(3);
  const OptimalCongestion opt = optimal_congestion(g, Demand{});
  EXPECT_DOUBLE_EQ(opt.upper, 0.0);
  const auto solution = route_fractional(g, PathSystem(g), Demand{});
  EXPECT_DOUBLE_EQ(solution.congestion, 0.0);
}

TEST(SemiOblivious, MaxHopsTracksUsedPathsOnly) {
  // Commodity (0,3) has a direct edge and a 2-hop alternative through
  // (1,2), but (1,2) is pinned at load 10 by another commodity, so the
  // optimum leaves the alternative untouched and max_hops counts only the
  // direct edge.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);  // direct edge
  PathSystem ps(g);
  ps.add_path(0, 3, {0, 3});
  ps.add_path(0, 3, {0, 1, 2, 3});
  ps.add_path(1, 2, {1, 2});
  Demand d;
  d.set(0, 3, 0.5);
  d.set(1, 2, 10.0);
  const auto exact = route_fractional_exact(g, ps, d);
  EXPECT_NEAR(exact.congestion, 10.0, 1e-6);
  EXPECT_EQ(exact.max_hops, 1);
}

TEST(SemiOblivious, ExactAndMwuChargeTheInternedParallelEdge) {
  // The path is interned over edge 0, the canonical (0,1) edge at install.
  // Halving edge 0 makes edge 1 canonical; both solves still charge edge 0,
  // the edge their candidates name.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 4.0);
  PathSystem ps(g);
  ps.add_path(0, 2, {0, 1, 2});
  g.set_capacity(0, 0.5);
  Demand d;
  d.set(0, 2, 2.0);
  const auto exact = route_fractional_exact(g, ps, d);
  const auto mwu = route_fractional(g, ps, d);
  EXPECT_EQ(exact.candidates, mwu.candidates);
  for (const auto* solution : {&exact, &mwu}) {
    EXPECT_NEAR(solution->congestion, 4.0, 1e-9);
    EXPECT_NEAR(solution->edge_load[0], 2.0, 1e-9);
    EXPECT_EQ(solution->edge_load[1], 0.0);
  }
}

class SemiObliviousExactVsMwuSweep : public ::testing::TestWithParam<int> {};

TEST_P(SemiObliviousExactVsMwuSweep, AgreeOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const Graph g = gen::erdos_renyi_connected(10, 0.35, rng);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(10, 4, rng, 1.0);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng);
  const auto exact = route_fractional_exact(g, ps, d);
  MinCongestionOptions options;
  options.rounds = 2500;
  options.target_gap = 1.01;
  const auto mwu = route_fractional(g, ps, d, options);
  EXPECT_GE(mwu.congestion, exact.congestion - 1e-6);
  EXPECT_LE(mwu.congestion, exact.congestion * 1.1 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiObliviousExactVsMwuSweep,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace sor

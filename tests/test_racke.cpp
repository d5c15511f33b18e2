#include "oblivious/racke.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"

namespace sor {
namespace {

TEST(Racke, SampledPathsAreValid) {
  Rng rng(1);
  const Graph g = gen::grid(4, 4);
  RackeRouting routing(g, {.num_trees = 6}, rng);
  for (int trial = 0; trial < 100; ++trial) {
    const int s = rng.uniform_int(0, g.num_vertices() - 1);
    int t = rng.uniform_int(0, g.num_vertices() - 1);
    if (s == t) continue;
    const Path p = routing.sample_path(s, t, rng);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
  }
}

TEST(Racke, TreeRouteIsDeterministicPerTree) {
  Rng rng(2);
  const Graph g = gen::grid(3, 4);
  RackeRouting routing(g, {.num_trees = 4}, rng);
  EXPECT_EQ(routing.num_trees(), 4);
  for (int i = 0; i < routing.num_trees(); ++i) {
    EXPECT_EQ(routing.tree_route(i, 0, 11), routing.tree_route(i, 0, 11));
  }
}

class RackeCompetitivenessSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RackeCompetitivenessSweep, ObliviousCongestionNearOptimal) {
  const std::string which = GetParam();
  Rng rng(11);
  Graph g;
  if (which == "grid") g = gen::grid(4, 4);
  else if (which == "two_cliques") g = gen::two_cliques(5, 2);
  else if (which == "expander") g = gen::random_regular(16, 4, rng);
  else if (which == "gadget") g = gen::lower_bound_gadget(8, 3);
  ASSERT_TRUE(g.is_connected());

  RackeRouting routing(g, {.num_trees = 10}, rng);

  // A handful of random permutation demands; Racke's oblivious congestion
  // should be within a moderate factor of the offline optimum.
  double worst_ratio = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
    const double oblivious =
        estimate_congestion(routing, d.commodities(), 24, rng);
    const OptimalCongestion opt = optimal_congestion(g, d);
    ASSERT_GT(opt.value(), 0.0);
    worst_ratio = std::max(worst_ratio, oblivious / opt.value());
  }
  // O(log n) with generous constant for small instances + MC noise.
  EXPECT_LT(worst_ratio, 20.0) << "graph " << which;
}

INSTANTIATE_TEST_SUITE_P(Graphs, RackeCompetitivenessSweep,
                         ::testing::Values("grid", "two_cliques", "expander",
                                           "gadget"));

TEST(Racke, IterationBalancesLoad) {
  // With several trees, the max relative embedding load should not exceed
  // a single tree's by much; sanity-check it is finite and positive.
  Rng rng(3);
  const Graph g = gen::two_cliques(6, 2);
  RackeRouting one(g, {.num_trees = 1}, rng);
  RackeRouting many(g, {.num_trees = 12}, rng);
  EXPECT_GT(one.max_relative_embedding_load(), 0.0);
  EXPECT_GT(many.max_relative_embedding_load(), 0.0);
  // Averaging over many reweighted trees should not be worse than a single
  // unweighted tree (allow slack for randomness).
  EXPECT_LE(many.max_relative_embedding_load(),
            one.max_relative_embedding_load() * 1.5 + 1e-9);
}

TEST(Racke, DisconnectedGraphThrows) {
  // Two disjoint triangles: half the distances are infinite, so FRT's
  // halving radii never split the root. A Release build spun forever here.
  Graph g(6);
  for (int base : {0, 3}) {
    g.add_edge(base, base + 1);
    g.add_edge(base + 1, base + 2);
    g.add_edge(base + 2, base);
  }
  for (const char* backend : {"racke", "frt"}) {
    EXPECT_THROW(SorEngine::build(g, backend), std::invalid_argument)
        << backend;
  }
}

TEST(Racke, OverflowingEtaThrows) {
  // The second wave's lengths exp(eta * rel) / cap overflow to infinity
  // (or, for -1e308, underflow to zero) on every loaded edge; the first
  // wave still builds. nan and inf stop earlier, at the spec parser.
  for (const char* backend : {"racke:eta=1e308", "racke:eta=-1e308",
                              "racke:eta=nan", "racke:eta=inf"}) {
    EXPECT_THROW(SorEngine::build(gen::grid(4, 4, /*wrap=*/true), backend),
                 std::invalid_argument)
        << backend;
  }
}

}  // namespace
}  // namespace sor

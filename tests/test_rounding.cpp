#include "core/rounding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"
#include "oblivious/valiant.h"
#include "runtime/alloc_stats.h"

namespace sor {
namespace {

SemiObliviousSolution routed_instance(const Graph& g,
                                      const ObliviousRouting& routing,
                                      const Demand& d, int alpha, Rng& rng) {
  const PathSystem ps =
      sample_path_system(routing, alpha, support_pairs(d), rng);
  return route_fractional(g, ps, d);
}

TEST(Rounding, ChoicesMatchDemandUnits) {
  const Graph g = gen::grid(3, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(1);
  Demand d;
  d.set(0, 11, 3.0);
  d.set(2, 9, 1.0);
  const auto fractional = routed_instance(g, routing, d, 3, rng);
  const auto integral = round_randomized(g, fractional, rng, 4);
  ASSERT_EQ(integral.choices.size(), 2u);
  EXPECT_EQ(integral.choices[0].size(), 3u);
  EXPECT_EQ(integral.choices[1].size(), 1u);
  for (std::size_t j = 0; j < integral.choices.size(); ++j) {
    for (int idx : integral.choices[j]) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, static_cast<int>(integral.paths[j].size()));
    }
  }
}

TEST(Rounding, FewerThanOneTrialThrows) {
  // Zero trials would return a rounding with no choices and congestion 0.
  const Graph g = gen::grid(3, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(1);
  Demand d;
  d.set(0, 11, 3.0);
  const auto fractional = routed_instance(g, routing, d, 3, rng);
  EXPECT_THROW(round_randomized(g, fractional, rng, 0), std::invalid_argument);
  EXPECT_THROW(round_randomized(g, fractional, rng, -1), std::invalid_argument);
  const std::vector<std::vector<int>> seed = {{0, 0, 0}};
  EXPECT_THROW(round_randomized(g, fractional, rng, 0, &seed),
               std::invalid_argument);
}

TEST(Rounding, CongestionIsConsistent) {
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(2);
  const Demand d = gen::random_permutation_demand(16, rng);
  const auto fractional = routed_instance(g, routing, d, 4, rng);
  auto integral = round_randomized(g, fractional, rng, 4);
  const double reported = integral.congestion;
  EXPECT_DOUBLE_EQ(integral_congestion(g, integral), reported);
}

class RoundingLemmaSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoundingLemmaSweep, SatisfiesLemma63Bound) {
  // Lemma 6.3: an integral routing with congestion <= 2*cong + 3 ln m
  // exists on the support; the best of a few random roundings finds one
  // with overwhelming probability on these sizes.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  const int dim = 4;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const auto fractional = routed_instance(g, routing, d, 4, rng);
  const auto integral = round_randomized(g, fractional, rng, 16);
  const double bound = 2.0 * fractional.congestion +
                       3.0 * std::log(static_cast<double>(g.num_edges()));
  EXPECT_LE(integral.congestion, bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingLemmaSweep, ::testing::Range(0, 10));

class RoundingMultigraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoundingMultigraphSweep, RoundsAndSimulatesTheInternedEdges) {
  // Random multigraphs with parallel edges and integer capacities 2-4. After
  // install, the canonical edge of every parallel pair drops to capacity 1,
  // so Graph::edge_between now names another edge of the pair than the one
  // the paths were interned over. Rounding and simulation still charge the
  // interned edges, and the Lemma 6.3 bound holds (every capacity >= 1).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 11);
  const int n = 12;
  const Graph base = gen::erdos_renyi_connected(n, 0.3, rng);
  Graph g(n);
  const auto capacity = [&] {
    return static_cast<double>(rng.uniform_int(2, 4));
  };
  for (const Edge& e : base.edges()) g.add_edge(e.u, e.v, capacity());
  for (int extra = 0; extra < base.num_edges() / 2; ++extra) {
    const Edge& e = base.edge(rng.uniform_int(0, base.num_edges() - 1));
    g.add_edge(e.u, e.v, capacity());
  }
  SorEngine engine = SorEngine::build(std::move(g), "shortest_path",
                                      static_cast<std::uint64_t>(GetParam()));
  const Demand d = gen::random_pairs_demand(n, 8, rng);
  engine.install_paths(SamplingSpec::for_demand(d, 3));

  std::map<std::pair<int, int>, int> multiplicity;
  for (const Edge& e : engine.graph().edges()) {
    ++multiplicity[{std::min(e.u, e.v), std::max(e.u, e.v)}];
  }
  for (const auto& [pair, count] : multiplicity) {
    if (count < 2) continue;
    const int canonical = engine.graph().edge_between(pair.first, pair.second);
    engine.set_edge_capacity(canonical, 1.0);
    ASSERT_NE(engine.graph().edge_between(pair.first, pair.second), canonical);
  }

  RouteSpec spec;
  spec.simulate_packets = true;
  spec.compute_optimum = false;
  const RouteReport report = engine.route(d, spec);
  ASSERT_TRUE(report.integral.has_value());
  ASSERT_TRUE(report.simulation.has_value());
  const Graph& routed = engine.graph();
  const IntegralSolution& integral = *report.integral;

  EXPECT_LE(integral.congestion,
            2.0 * report.solution.congestion +
                3.0 * std::log(static_cast<double>(routed.num_edges())));
  std::vector<double> load(static_cast<std::size_t>(routed.num_edges()), 0.0);
  for (std::size_t j = 0; j < integral.choices.size(); ++j) {
    for (int choice : integral.choices[j]) {
      for (int e : report.solution.candidates.edges(
               j, static_cast<std::size_t>(choice))) {
        load[static_cast<std::size_t>(e)] += 1.0;
      }
    }
  }
  EXPECT_EQ(integral.edge_load, load);
  EXPECT_EQ(report.simulation->congestion, integral.congestion);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingMultigraphSweep, ::testing::Range(0, 8));

TEST(Rounding, ExtraTrialsDoNotCopyTheCandidateSet) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(9);
  const Demand d = gen::random_permutation_demand(16, rng);
  const auto fractional = routed_instance(g, routing, d, 4, rng);
  const auto allocs = [&](int trials) {
    Rng draws(21);
    const runtime::AllocProbe probe;
    const IntegralSolution integral =
        round_randomized(g, fractional, draws, trials);
    return static_cast<std::int64_t>(probe.delta().allocs);
  };
  // A trial owns only its choices (one vector per commodity plus the
  // outer one) and its edge loads; the candidate set is copied once, into
  // the winner.
  const auto k = static_cast<std::int64_t>(fractional.commodities.size());
  EXPECT_LE(allocs(8) - allocs(1), 7 * (k + 4));
}

TEST(Rounding, LocalSearchNeverHurts) {
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(3);
  const Demand d = gen::random_permutation_demand(16, rng);
  const auto fractional = routed_instance(g, routing, d, 4, rng);
  auto integral = round_randomized(g, fractional, rng, 1);
  const double before = integral.congestion;
  local_search_improve(g, integral);
  EXPECT_LE(integral.congestion, before + 1e-12);
  // The improved assignment is still consistent.
  const double stored = integral.congestion;
  EXPECT_DOUBLE_EQ(integral_congestion(g, integral), stored);
}

TEST(Rounding, ExactBranchAndBoundOnDiamond) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand = {{0, 3, 2.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1, 3}, {0, 2, 3}}};
  // Two units over two disjoint paths: optimum 1.
  EXPECT_DOUBLE_EQ(exact_integral_congestion(g, demand, paths), 1.0);
}

TEST(Rounding, ExactHandlesForcedCollision) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<Commodity> demand = {{0, 2, 3.0}};
  const std::vector<std::vector<Path>> paths = {{{0, 1, 2}}};
  EXPECT_DOUBLE_EQ(exact_integral_congestion(g, demand, paths), 3.0);
  EXPECT_DOUBLE_EQ(exact_integral_congestion(g, {}, {}), 0.0);
}

class ExactVsHeuristicSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsHeuristicSweep, LocalSearchNearExactOptimum) {
  // On tiny instances, rounding + local search should land within a small
  // factor of the exact integral optimum (and never below it).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 7);
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(9, 3, rng, 1.0);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng);
  const auto fractional = route_fractional(g, ps, d);
  auto integral = round_randomized(g, fractional, rng, 8);
  local_search_improve(g, integral);

  const auto commodities = d.commodities();
  std::vector<std::vector<Path>> paths;
  for (const Commodity& c : commodities) paths.push_back(ps.paths(c.s, c.t));
  const double exact = exact_integral_congestion(g, commodities, paths);
  EXPECT_GE(integral.congestion, exact - 1e-9);
  EXPECT_LE(integral.congestion, exact * 2.0 + 1e-9);
  // The fractional relaxation lower-bounds the integral optimum.
  EXPECT_LE(fractional.lower_bound, exact + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsHeuristicSweep, ::testing::Range(0, 8));

TEST(Rounding, LocalSearchFindsObviousImprovement) {
  // Diamond with both units on one path; local search moves one across.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  IntegralSolution solution;
  solution.commodities = {{0, 3, 2.0}};
  solution.candidates = flatten_candidates(g, {{{0, 1, 3}, {0, 2, 3}}});
  solution.choices = {{0, 0}};
  integral_congestion(g, solution);
  EXPECT_DOUBLE_EQ(solution.congestion, 2.0);
  local_search_improve(g, solution);
  EXPECT_DOUBLE_EQ(solution.congestion, 1.0);
}

}  // namespace
}  // namespace sor

// The src/api/ surface: BackendRegistry construction by name, spec
// parsing, and the staged SorEngine facade against the underlying stages.
#include "api/sor_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rounding.h"
#include "graph/generators.h"
#include "oblivious/valiant.h"

namespace sor {
namespace {

TEST(BackendSpec, ParsesNameOnly) {
  const BackendSpec spec = BackendSpec::parse("racke");
  EXPECT_EQ(spec.name, "racke");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_DOUBLE_EQ(spec.param("num_trees", 12.0), 12.0);
}

TEST(BackendSpec, ParsesParams) {
  const BackendSpec spec = BackendSpec::parse("racke:num_trees=10,eta=6.5");
  EXPECT_EQ(spec.name, "racke");
  EXPECT_EQ(spec.param_int("num_trees", 0), 10);
  EXPECT_DOUBLE_EQ(spec.param("eta", 0.0), 6.5);
  EXPECT_EQ(spec.to_string(), "racke:eta=6.5,num_trees=10");
}

TEST(BackendSpec, ToStringRoundTripsEveryDigit) {
  const BackendSpec spec =
      BackendSpec::parse("racke:eta=0.1234567,num_trees=10");
  EXPECT_EQ(spec.to_string(), "racke:eta=0.1234567,num_trees=10");
  const BackendSpec reparsed = BackendSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.params, spec.params);
}

TEST(BackendSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(BackendSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(BackendSpec::parse(":a=1"), std::invalid_argument);
  EXPECT_THROW(BackendSpec::parse("racke:num_trees"), std::invalid_argument);
  EXPECT_THROW(BackendSpec::parse("racke:eta=abc"), std::invalid_argument);
  // std::stod accepts these spellings; the parser must not.
  for (const char* spec : {"racke:eta=nan", "racke:eta=inf", "racke:eta=-inf",
                           "racke:eta=NaN", "racke:eta=infinity"}) {
    EXPECT_THROW(BackendSpec::parse(spec), std::invalid_argument) << spec;
  }
}

TEST(BackendRegistry, RoundTripsEveryRegisteredName) {
  // The 3-cube suits every built-in backend (valiant needs a hypercube;
  // the rest only need a connected graph).
  const Graph g = gen::hypercube(3);
  Rng rng(3);
  auto& registry = BackendRegistry::instance();
  const auto names = registry.names();
  ASSERT_GE(names.size(), 7u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(registry.has(name));
    EXPECT_FALSE(registry.description(name).empty());
    auto routing = registry.make(g, BackendSpec{.name = name}, rng);
    ASSERT_NE(routing, nullptr);
    EXPECT_FALSE(routing->name().empty());
    EXPECT_EQ(&routing->graph(), &g);
    for (int draw = 0; draw < 5; ++draw) {
      const Path p = routing->sample_path(0, 7, rng);
      EXPECT_TRUE(is_valid_path(g, p, 0, 7));
    }
  }
  for (const char* expected :
       {"racke", "frt", "valiant", "greedy_bitfix", "shortest_path",
        "shortest_path_det", "hop_constrained"}) {
    EXPECT_TRUE(registry.has(expected)) << expected;
  }
}

TEST(BackendRegistry, UnknownNameThrowsWithCatalogue) {
  const Graph g = gen::hypercube(3);
  Rng rng(1);
  try {
    BackendRegistry::instance().make(g, "no-such-backend", rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("racke"), std::string::npos);  // catalogue listed
  }
  EXPECT_THROW(BackendRegistry::instance().description("nope"),
               std::invalid_argument);
}

TEST(BackendRegistry, RejectsUnknownParamKeys) {
  const Graph g = gen::hypercube(3);
  Rng rng(1);
  EXPECT_THROW(
      BackendRegistry::instance().make(g, "shortest_path:alpha=4", rng),
      std::invalid_argument);
}

TEST(BackendRegistry, RackeRejectsAThreadsKey) {
  // Construction threads come from the caller's pool, never from the spec.
  const Graph g = gen::grid(3, 3);
  Rng rng(1);
  try {
    BackendRegistry::instance().make(g, "racke:threads=2", rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"threads\""), std::string::npos) << what;
    EXPECT_NE(what.find("accepted: num_trees eta wave"), std::string::npos)
        << what;
  }
}

TEST(BackendRegistry, ValiantRejectsNonHypercubes) {
  Rng rng(1);
  // Same vertex AND edge count as the 4-cube, but not a hypercube.
  const Graph torus = gen::grid(4, 4, /*wrap=*/true);
  EXPECT_THROW(BackendRegistry::instance().make(torus, "valiant", rng),
               std::invalid_argument);
  const Graph path = gen::grid(1, 6);
  EXPECT_THROW(BackendRegistry::instance().make(path, "greedy_bitfix", rng),
               std::invalid_argument);
}

TEST(SorEngine, MatchesDirectStagesOnHypercube) {
  const int dim = 4;
  const int alpha = 3;
  const std::uint64_t seed = 17;
  const Demand d = gen::bit_reversal_demand(dim);

  // Direct hand-wiring of the stages, consuming an identically-seeded rng
  // in the same order as the engine does.
  Rng rng(seed);
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  const PathSystem ps =
      sample_path_system(routing, alpha, support_pairs(d), rng);
  const auto direct = route_fractional(g, ps, d);
  const auto direct_opt = optimal_congestion(g, d);

  SorEngine engine = SorEngine::build(gen::hypercube(dim), "valiant", seed);
  engine.install_paths(SamplingSpec::for_demand(d, alpha));
  const RouteReport report = engine.route(d);

  EXPECT_EQ(engine.paths().total_paths(), ps.total_paths());
  EXPECT_EQ(engine.paths().sparsity(), ps.sparsity());
  EXPECT_DOUBLE_EQ(report.congestion, direct.congestion);
  EXPECT_DOUBLE_EQ(report.solution.lower_bound, direct.lower_bound);
  ASSERT_TRUE(report.optimum.has_value());
  EXPECT_DOUBLE_EQ(report.optimum->upper, direct_opt.upper);
  EXPECT_DOUBLE_EQ(report.optimum->lower, direct_opt.lower);
  EXPECT_GE(report.opt_lower_bound, direct_opt.value());
  EXPECT_DOUBLE_EQ(report.competitive_ratio,
                   report.congestion / report.opt_lower_bound);
  EXPECT_GE(report.times.route_ms, 0.0);
}

TEST(SorEngine, FrozenPathSystemIsReusedAcrossDemands) {
  const int dim = 4;
  SorEngine engine = SorEngine::build(gen::hypercube(dim), "valiant", 5);
  const PathSystem& installed = engine.install_paths({.alpha = 4});
  const std::size_t installed_total = installed.total_paths();

  // Two different revealed demands routed over ONE sampled PathSystem.
  const RouteReport first = engine.route(gen::bit_reversal_demand(dim));
  const RouteReport second = engine.route(gen::transpose_demand(dim));

  EXPECT_EQ(&engine.paths(), &installed);  // same frozen instance
  EXPECT_EQ(engine.paths().total_paths(), installed_total);  // untouched
  EXPECT_GT(first.congestion, 0.0);
  EXPECT_GT(second.congestion, 0.0);
  EXPECT_GE(first.competitive_ratio, 1.0 - 1e-9);
  EXPECT_GE(second.competitive_ratio, 1.0 - 1e-9);
}

TEST(SorEngine, StagingOrderIsEnforced) {
  SorEngine engine = SorEngine::build(gen::hypercube(3), "valiant", 1);
  EXPECT_FALSE(engine.has_paths());
  EXPECT_THROW(engine.paths(), std::logic_error);
  EXPECT_THROW(engine.route(gen::bit_reversal_demand(3)), std::logic_error);

  // Paths installed for the wrong pairs: route must refuse, not crash.
  Demand d;
  d.set(0, 7, 1.0);
  engine.install_paths(SamplingSpec::for_demand(d, 2));
  Demand other;
  other.set(1, 6, 1.0);
  EXPECT_THROW(engine.route(other), std::invalid_argument);
  EXPECT_NO_THROW(engine.route(d));
}

TEST(SorEngine, EmptyDemandSamplingIsANoOpNotAllPairs) {
  SorEngine engine = SorEngine::build(gen::hypercube(4), "valiant", 2);
  const Demand empty;
  // for_demand of an empty demand must NOT fall back to an O(n^2 alpha)
  // all-pairs sample.
  const PathSystem& ps = engine.install_paths(SamplingSpec::for_demand(empty, 4));
  EXPECT_EQ(ps.total_paths(), 0u);
  EXPECT_EQ(ps.num_pairs(), 0u);
  // The explicit default still means all pairs.
  EXPECT_GT(engine.install_paths({.alpha = 1}).num_pairs(), 0u);
}

TEST(SorEngine, LowerBoundCanBeSkippedForHotLoops) {
  SorEngine engine = SorEngine::build(gen::hypercube(4), "valiant", 3);
  const Demand d = gen::bit_reversal_demand(4);
  engine.install_paths(SamplingSpec::for_demand(d, 4));
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;
  const RouteReport report = engine.route(d, spec);
  EXPECT_GT(report.congestion, 0.0);
  EXPECT_DOUBLE_EQ(report.opt_lower_bound, 0.0);
  EXPECT_DOUBLE_EQ(report.competitive_ratio, 0.0);  // no denominator
  EXPECT_FALSE(report.optimum.has_value());
}

TEST(SorEngine, RoundingAndPacketSimulation) {
  const int dim = 4;
  SorEngine engine = SorEngine::build(gen::hypercube(dim), "valiant", 9);
  const Demand d = gen::bit_reversal_demand(dim);
  engine.install_paths(SamplingSpec::for_demand(d, 4));

  RouteSpec spec;
  spec.simulate_packets = true;  // implies rounding
  const RouteReport report = engine.route(d, spec);

  ASSERT_TRUE(report.integral.has_value());
  EXPECT_GT(report.integral->congestion, 0.0);
  ASSERT_TRUE(report.simulation.has_value());
  EXPECT_GT(report.simulation->makespan, 0);
  EXPECT_EQ(report.simulation->traces.size(), d.entries().size());
  EXPECT_GE(report.simulation->makespan, report.simulation->dilation);

  // Fractional (non-integral) demands skip rounding instead of mangling.
  Demand fractional;
  fractional.set(0, 15, 0.5);
  engine.install_paths(SamplingSpec::for_demand(fractional, 2));
  const RouteReport frac_report = engine.route(fractional, spec);
  EXPECT_FALSE(frac_report.integral.has_value());
  EXPECT_FALSE(frac_report.simulation.has_value());
}

TEST(SorEngine, RoundingAndSimulationChargeTheEdgesTheRouteWasSolvedOver) {
  // Edges 0 and 1 are parallel unit edges between 0 and 1; the paths are
  // interned over edge 0, the canonical edge at install. Halving edge 0
  // makes edge 1 canonical, but the route was solved over edge 0, and the
  // integral route and the simulation must charge that same edge.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 4.0);
  SorEngine engine = SorEngine::build(std::move(g), "shortest_path", 1);
  Demand d;
  d.set(0, 2, 2.0);
  engine.install_paths(SamplingSpec::for_demand(d, 2));
  engine.set_edge_capacity(0, 0.5);

  RouteSpec spec;
  spec.simulate_packets = true;
  const RouteReport report = engine.route(d, spec);
  ASSERT_TRUE(report.integral.has_value());
  ASSERT_TRUE(report.simulation.has_value());
  EXPECT_EQ(report.integral->edge_load[0], 2.0);
  EXPECT_EQ(report.integral->edge_load[1], 0.0);
  EXPECT_EQ(report.solution.congestion, 4.0);
  EXPECT_EQ(report.integral->congestion, 4.0);
  EXPECT_EQ(report.simulation->congestion, 4.0);
}

class EngineSimulationSweep : public ::testing::TestWithParam<SchedulePolicy> {};

TEST_P(EngineSimulationSweep, EqualsTheLayerByLayerComposition) {
  // The engine simulates the interned edge ids of the chosen candidates;
  // rounding, local search and the vertex-path simulator, composed by hand
  // on a copy of the engine stream, must give the same route bit for bit.
  SorEngine engine = SorEngine::build(gen::hypercube(4), "valiant", 12);
  Rng demand_rng(4);
  const Demand d = gen::random_permutation_demand(16, demand_rng);
  engine.install_paths(SamplingSpec::for_demand(d, 4));
  RouteSpec spec;
  spec.simulate_packets = true;
  spec.policy = GetParam();

  Rng rng = engine.rng();
  const RouteReport report = engine.route(d, spec);
  ASSERT_TRUE(report.integral.has_value());
  ASSERT_TRUE(report.simulation.has_value());

  const Graph& g = engine.graph();
  IntegralSolution integral =
      round_randomized(g, report.solution, rng, spec.rounding_trials);
  local_search_improve(g, integral);
  std::vector<Path> packets;
  for (std::size_t j = 0; j < integral.choices.size(); ++j) {
    for (int choice : integral.choices[j]) {
      packets.push_back(integral.paths[j][static_cast<std::size_t>(choice)]);
    }
  }
  const SimulationResult sim = simulate_packets(g, packets, spec.policy, rng);

  EXPECT_EQ(report.integral->choices, integral.choices);
  EXPECT_EQ(report.integral->congestion, integral.congestion);
  EXPECT_EQ(report.simulation->makespan, sim.makespan);
  EXPECT_EQ(report.simulation->congestion, sim.congestion);
  EXPECT_EQ(report.simulation->dilation, sim.dilation);
  ASSERT_EQ(report.simulation->traces.size(), sim.traces.size());
  for (std::size_t p = 0; p < sim.traces.size(); ++p) {
    EXPECT_EQ(report.simulation->traces[p].delivered_at,
              sim.traces[p].delivered_at);
    EXPECT_EQ(report.simulation->traces[p].hops, sim.traces[p].hops);
    EXPECT_EQ(report.simulation->traces[p].waited, sim.traces[p].waited);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, EngineSimulationSweep,
                         ::testing::Values(SchedulePolicy::kFifo,
                                           SchedulePolicy::kFurthestToGo,
                                           SchedulePolicy::kRandomPriority));

}  // namespace
}  // namespace sor

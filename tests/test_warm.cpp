// Cross-epoch warm starts (src/warm/, docs/warm-start.md): cold-path
// bit-identity, replay of bit-identical instances, seeded solves under
// churn with cross-valid certificates, invalidation rules
// (rebuild_backend, capacity edits, reinstalls), the rounding seed the
// captured integral choices produce, scenario-level accounting, and the
// route_batch rejection.
#include "warm/warm_state.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/sor_engine.h"
#include "graph/generators.h"
#include "io/scenario_io.h"
#include "scale/demand_source.h"
#include "scenario/scenario.h"

namespace sor {
namespace {

SorEngine make_engine(std::uint64_t seed = 7) {
  return SorEngine::build(gen::grid(4, 4, true), "racke:num_trees=3", seed);
}

Demand breathing_demand(double scale) {
  // Fixed support, breathing volumes — the diurnal regime warm starts
  // are built for.
  Demand d;
  d.set(0, 5, 2.0 * scale);
  d.set(1, 10, 1.5 * scale);
  d.set(3, 12, 1.0 * scale);
  d.set(7, 2, 2.5 * scale);
  d.set(9, 14, 1.0 * scale);
  return d;
}

/// Everything deterministic must match bit-for-bit (wall-times and the
/// warm outcome fields excepted — the latter are checked by each test).
void expect_routes_identical(const RouteReport& a, const RouteReport& b) {
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.solution.congestion, b.solution.congestion);
  EXPECT_EQ(a.solution.lower_bound, b.solution.lower_bound);
  EXPECT_EQ(a.solution.rounds_used, b.solution.rounds_used);
  ASSERT_EQ(a.solution.weights.size(), b.solution.weights.size());
  for (std::size_t j = 0; j < a.solution.weights.size(); ++j) {
    ASSERT_EQ(a.solution.weights[j].size(), b.solution.weights[j].size());
    for (std::size_t i = 0; i < a.solution.weights[j].size(); ++i) {
      EXPECT_EQ(a.solution.weights[j][i], b.solution.weights[j][i]);
    }
  }
  ASSERT_EQ(a.solution.edge_load.size(), b.solution.edge_load.size());
  for (std::size_t e = 0; e < a.solution.edge_load.size(); ++e) {
    EXPECT_EQ(a.solution.edge_load[e], b.solution.edge_load[e]);
  }
  EXPECT_EQ(a.opt_lower_bound, b.opt_lower_bound);
  EXPECT_EQ(a.competitive_ratio, b.competitive_ratio);
  ASSERT_EQ(a.optimum.has_value(), b.optimum.has_value());
  if (a.optimum) {
    EXPECT_EQ(a.optimum->lower, b.optimum->lower);
    EXPECT_EQ(a.optimum->upper, b.optimum->upper);
  }
  ASSERT_EQ(a.integral.has_value(), b.integral.has_value());
  if (a.integral) {
    EXPECT_EQ(a.integral->congestion, b.integral->congestion);
    EXPECT_EQ(a.integral->choices, b.integral->choices);
  }
}

TEST(WarmStart, ColdRouteIsUntouchedByPriorWarmRoutes) {
  // Engine A: warm, warm, then COLD. Engine B (same seed): nothing but the
  // one cold route. The cold route must not read any warm state.
  const Demand d1 = breathing_demand(1.0);
  const Demand d2 = breathing_demand(0.6);

  SorEngine warm_engine = make_engine();
  warm_engine.install_paths(SamplingSpec::for_demand(d1, 3));
  RouteSpec warm_spec;
  warm_spec.warm_start = true;
  warm_engine.route(d1, warm_spec);
  warm_engine.route(d2, warm_spec);
  const RouteReport after_warm = warm_engine.route(d2, RouteSpec{});

  SorEngine cold_engine = make_engine();
  cold_engine.install_paths(SamplingSpec::for_demand(d1, 3));
  cold_engine.route(d1, RouteSpec{});
  cold_engine.route(d2, RouteSpec{});
  const RouteReport cold = cold_engine.route(d2, RouteSpec{});

  expect_routes_identical(after_warm, cold);
  EXPECT_FALSE(after_warm.warm.enabled);
  EXPECT_FALSE(after_warm.warm.hit);
  EXPECT_EQ(after_warm.warm.rounds_saved, 0);
}

TEST(WarmStart, FirstWarmRouteIsColdEquivalentAndCaptures) {
  const Demand d = breathing_demand(1.0);
  SorEngine a = make_engine();
  a.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec warm_spec;
  warm_spec.warm_start = true;
  const RouteReport warm = a.route(d, warm_spec);

  SorEngine b = make_engine();
  b.install_paths(SamplingSpec::for_demand(d, 3));
  const RouteReport cold = b.route(d, RouteSpec{});

  // No prior capture: the first warm-enabled route IS the cold solve.
  expect_routes_identical(warm, cold);
  EXPECT_TRUE(warm.warm.enabled);
  EXPECT_FALSE(warm.warm.hit);
  EXPECT_EQ(warm.warm.rounds_saved, 0);

  ASSERT_NE(a.warm_state(), nullptr);
  EXPECT_TRUE(a.warm_state()->valid);
  EXPECT_EQ(a.warm_state()->cold_rounds, cold.solution.rounds_used);
  // A fractional-only capture still records one (empty) choice list per
  // commodity, and every commodity's weights: the route's own.
  EXPECT_EQ(a.warm_state()->choices.size(), d.entries().size());
  EXPECT_EQ(a.warm_state()->weights, cold.solution.weights);
}

TEST(WarmStart, IdenticalInstanceReplaysBitIdentically) {
  const Demand d = breathing_demand(1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  const RouteReport first = engine.route(d, spec);
  const RouteReport second = engine.route(d, spec);

  EXPECT_TRUE(second.warm.replayed);
  EXPECT_TRUE(second.warm.hit);
  EXPECT_EQ(second.warm.rounds_saved, first.solution.rounds_used);
  expect_routes_identical(first, second);
}

TEST(WarmStart, SpecChangeDisablesReplayButStillSeeds) {
  // Replay needs the captured spec (RouteSpec ==): changing any one value
  // field that a fractional-only warm route carries forfeits the verbatim
  // replay, never the seed.
  const std::pair<const char*, void (*)(RouteSpec&)> changes[] = {
      {"mwu.rounds", [](RouteSpec& s) { s.mwu.rounds = 700; }},
      {"mwu.target_gap", [](RouteSpec& s) { s.mwu.target_gap = 1.05; }},
      {"mwu.deadline_ms", [](RouteSpec& s) { s.mwu.deadline_ms = 1e9; }},
      {"compute_optimum", [](RouteSpec& s) { s.compute_optimum = false; }},
      {"compute_lower_bound",
       [](RouteSpec& s) { s.compute_lower_bound = false; }},
      {"rounding_trials", [](RouteSpec& s) { s.rounding_trials = 4; }},
      {"policy",
       [](RouteSpec& s) { s.policy = SchedulePolicy::kFurthestToGo; }},
      {"record_convergence",
       [](RouteSpec& s) { s.record_convergence = true; }},
  };
  const Demand d = breathing_demand(1.0);
  RouteSpec spec;
  spec.warm_start = true;
  for (const auto& [field, change] : changes) {
    SCOPED_TRACE(field);
    SorEngine engine = make_engine();
    engine.install_paths(SamplingSpec::for_demand(d, 3));
    engine.route(d, spec);

    RouteSpec changed = spec;
    change(changed);
    ASSERT_FALSE(changed == spec);
    const RouteReport second = engine.route(d, changed);
    EXPECT_FALSE(second.warm.replayed);
    EXPECT_TRUE(second.warm.hit);
  }
}

TEST(WarmStart, SeededSolveUnderChurnHasCrossValidCertificates) {
  const Demand d1 = breathing_demand(1.0);
  const Demand d2 = breathing_demand(0.5);  // same support, half volume

  SorEngine warm_engine = make_engine();
  warm_engine.install_paths(SamplingSpec::for_demand(d1, 3));
  RouteSpec spec;
  spec.warm_start = true;
  warm_engine.route(d1, spec);
  const RouteReport warm = warm_engine.route(d2, spec);

  SorEngine cold_engine = make_engine();
  cold_engine.install_paths(SamplingSpec::for_demand(d1, 3));
  const RouteReport cold = cold_engine.route(d2, RouteSpec{});

  EXPECT_TRUE(warm.warm.hit);
  EXPECT_FALSE(warm.warm.replayed);
  // The seed scales every pair's captured split to its new amount.
  for (std::size_t j = 0; j < warm.solution.weights.size(); ++j) {
    double sum = 0.0;
    for (double w : warm.solution.weights[j]) sum += w;
    EXPECT_NEAR(sum, warm.solution.commodities[j].amount,
                1e-9 * warm.solution.commodities[j].amount);
  }

  // Both runs are exact certificates of the SAME restricted LP: each
  // congestion is the exact congestion of its returned weights, and each
  // dual lower bound is valid regardless of the starting iterate — so the
  // bounds cross-validate.
  const double tol = 1e-9;
  EXPECT_LE(warm.solution.lower_bound, cold.congestion * (1.0 + tol));
  EXPECT_LE(cold.solution.lower_bound, warm.congestion * (1.0 + tol));
  EXPECT_GE(warm.congestion, warm.solution.lower_bound * (1.0 - tol));
  EXPECT_GE(cold.congestion, cold.solution.lower_bound * (1.0 - tol));
}

TEST(WarmStart, BreathingVolumesSaveRounds) {
  // The headline: across a breathing-volume sequence the warm engine's
  // total restricted-MWU rounds undercut the cold engine's.
  const double phases[] = {1.0, 0.7, 0.5, 0.8, 1.2, 0.9};
  SorEngine warm_engine = make_engine();
  SorEngine cold_engine = make_engine();
  warm_engine.install_paths(SamplingSpec::for_demand(breathing_demand(1.0), 3));
  cold_engine.install_paths(SamplingSpec::for_demand(breathing_demand(1.0), 3));
  RouteSpec warm_spec;
  warm_spec.warm_start = true;

  long long warm_rounds = 0, cold_rounds = 0, saved = 0;
  for (const double phase : phases) {
    const Demand d = breathing_demand(phase);
    const RouteReport w = warm_engine.route(d, warm_spec);
    const RouteReport c = cold_engine.route(d, RouteSpec{});
    warm_rounds += w.solution.rounds_used;
    cold_rounds += c.solution.rounds_used;
    saved += w.warm.rounds_saved;
  }
  EXPECT_LT(warm_rounds, cold_rounds);
  EXPECT_GT(saved, 0);
}

TEST(WarmStart, RebuildBackendInvalidatesCapture) {
  const Demand d = breathing_demand(1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  engine.route(d, spec);
  ASSERT_NE(engine.warm_state(), nullptr);
  ASSERT_TRUE(engine.warm_state()->valid);

  engine.rebuild_backend();
  EXPECT_FALSE(engine.warm_state()->valid);

  // Next warm route starts cold (no hit), then captures again.
  const RouteReport after = engine.route(d, spec);
  EXPECT_FALSE(after.warm.hit);
  EXPECT_EQ(after.warm.rounds_saved, 0);
  EXPECT_TRUE(engine.warm_state()->valid);
}

TEST(WarmStart, CapacityEditDisablesReplayKeepsFlowSeed) {
  const Demand d = breathing_demand(1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  engine.route(d, spec);

  engine.set_edge_capacity(0, 2.0 * engine.graph().edge(0).capacity);
  const RouteReport warm = engine.route(d, spec);
  EXPECT_FALSE(warm.warm.replayed);  // stored report is stale
  EXPECT_TRUE(warm.warm.hit);        // a flow stays a flow: the seed stays

  SorEngine cold_engine = make_engine();
  cold_engine.install_paths(SamplingSpec::for_demand(d, 3));
  cold_engine.set_edge_capacity(0, 2.0 * cold_engine.graph().edge(0).capacity);
  const RouteReport cold = cold_engine.route(d, RouteSpec{});
  const double tol = 1e-9;
  EXPECT_LE(warm.solution.lower_bound, cold.congestion * (1.0 + tol));
  EXPECT_LE(cold.solution.lower_bound, warm.congestion * (1.0 + tol));
}

TEST(WarmStart, ReinstallClearsPerPairSeedsSoNextRouteIsAMiss) {
  const Demand d = breathing_demand(1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  engine.route(d, spec);
  ASSERT_FALSE(engine.warm_state()->choices.empty());
  ASSERT_FALSE(engine.warm_state()->weights.empty());

  // Full reinstall: every pair is resampled, so the captured weights and
  // choices no longer index the installed candidates and both go.
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  EXPECT_TRUE(engine.warm_state()->choices.empty());
  EXPECT_TRUE(engine.warm_state()->weights.empty());
  EXPECT_TRUE(engine.warm_state()->valid);

  // The next warm route solves cold, becomes the new cold reference and
  // captures again.
  const RouteReport warm = engine.route(d, spec);
  EXPECT_FALSE(warm.warm.replayed);  // the reinstall dropped the snapshot
  EXPECT_FALSE(warm.warm.hit);
  EXPECT_EQ(warm.warm.rounds_saved, 0);
  EXPECT_EQ(engine.warm_state()->cold_rounds, warm.solution.rounds_used);
  EXPECT_EQ(engine.warm_state()->weights, warm.solution.weights);
}

TEST(WarmStart, RoundingSeededFromPreviousIntegralSolution) {
  // Integral demand so rounding runs; the second warm route must seed the
  // rounding from the captured choices and still produce a valid integral
  // routing no worse than its own fractional baseline would allow.
  Demand d;
  d.set(0, 5, 1.0);
  d.set(1, 10, 1.0);
  d.set(3, 12, 1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  spec.round_integral = true;
  const RouteReport first = engine.route(d, spec);
  ASSERT_TRUE(first.integral.has_value());

  Demand d2 = d;
  d2.set(0, 5, 1.0 + 1e-9);  // not bit-identical -> no replay, real solve
  const RouteReport second = engine.route(d2, spec);
  EXPECT_TRUE(second.warm.hit);
  EXPECT_FALSE(second.warm.replayed);
  ASSERT_TRUE(second.integral.has_value());
  // The seeded candidate is evaluated as trial 0: the result can only be
  // as good or better than the first epoch's rounding.
  EXPECT_LE(second.integral->congestion, first.integral->congestion);
}

/// The rounding seed a capture should hand the next route over `d`: per
/// entry of `d`, the captured route's choices for that pair, or an empty
/// list when the capture did not route the pair or did not round.
std::vector<std::vector<int>> expected_seed(const Demand& d,
                                            const RouteReport& capture) {
  std::vector<std::vector<int>> seed;
  const auto& captured = capture.solution.commodities;
  for (const auto& [pair, value] : d.entries()) {
    auto& units = seed.emplace_back();
    for (std::size_t j = 0; j < captured.size(); ++j) {
      if (capture.integral && captured[j].s == pair.first &&
          captured[j].t == pair.second) {
        units = capture.integral->choices[j];
      }
    }
  }
  return seed;
}

/// Routes `d` warm with rounding, then replays its rounding from a copy of
/// the engine stream taken before the route, seeded with `seed`: the
/// integral choices must match. A null `seed` is a miss (a reinstall
/// cleared the per-pair captures), any other a hit.
void expect_rounding_seeded_with(SorEngine& engine, const Demand& d,
                                 const RouteSpec& spec,
                                 const std::vector<std::vector<int>>* seed) {
  Rng stream = engine.rng();  // rounding is the route's first draw
  const RouteReport r = engine.route(d, spec);
  ASSERT_EQ(r.warm.hit, seed != nullptr);
  ASSERT_TRUE(r.integral.has_value());
  IntegralSolution replay = round_randomized(engine.graph(), r.solution,
                                             stream, spec.rounding_trials,
                                             seed);
  local_search_improve(engine.graph(), replay);
  EXPECT_EQ(replay.choices, r.integral->choices);
}

TEST(WarmStart, RoundingSeedIsTheCapturedChoicesPerPair) {
  Demand captured;
  captured.set(0, 5, 2.0);
  captured.set(1, 10, 1.0);
  captured.set(3, 12, 3.0);
  captured.set(7, 2, 1.0);
  Demand next = captured;  // same support, one volume moved
  next.set(1, 10, 2.0);
  Demand partial;  // two captured pairs and two new ones
  partial.set(0, 5, 1.0);
  partial.set(3, 12, 2.0);
  partial.set(6, 9, 2.0);
  partial.set(9, 14, 1.0);
  const std::vector<Demand> supports{captured, partial};
  RouteSpec rounding;
  rounding.warm_start = true;
  rounding.round_integral = true;
  rounding.rounding_trials = 2;  // few trials: the seeded candidate matters
  RouteSpec fractional = rounding;
  fractional.round_integral = false;

  {
    SCOPED_TRACE("previous capture rounded: its choices");
    SorEngine engine = make_engine();
    engine.install_paths(SamplingSpec::for_demands(supports, 3));
    const RouteReport capture = engine.route(captured, rounding);
    ASSERT_TRUE(capture.integral.has_value());
    const auto seed = expected_seed(next, capture);
    expect_rounding_seeded_with(engine, next, rounding, &seed);
  }
  {
    SCOPED_TRACE("previous capture fractional-only: empty lists");
    SorEngine engine = make_engine();
    engine.install_paths(SamplingSpec::for_demands(supports, 3));
    engine.route(captured, fractional);
    const std::vector<std::vector<int>> seed(next.entries().size());
    expect_rounding_seeded_with(engine, next, rounding, &seed);
  }
  {
    SCOPED_TRACE("after a reinstall: no seed");
    SorEngine engine = make_engine();
    engine.install_paths(SamplingSpec::for_demands(supports, 3));
    engine.route(captured, rounding);
    engine.install_paths(SamplingSpec::for_demands(supports, 3));
    expect_rounding_seeded_with(engine, next, rounding, nullptr);
  }
  {
    SCOPED_TRACE("partly overlapping support: captured pairs only");
    SorEngine engine = make_engine();
    engine.install_paths(SamplingSpec::for_demands(supports, 3));
    const RouteReport capture = engine.route(captured, rounding);
    const auto seed = expected_seed(partial, capture);
    ASSERT_FALSE(seed[0].empty());
    ASSERT_TRUE(seed[2].empty());
    expect_rounding_seeded_with(engine, partial, rounding, &seed);
  }
}

TEST(WarmStart, RouteBatchRejectsWarmStart) {
  const Demand d = breathing_demand(1.0);
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.warm_start = true;
  const std::vector<Demand> demands{d, d};
  EXPECT_THROW(engine.route_batch(demands, spec), std::invalid_argument);
}

// ---- scenario + io plumbing -------------------------------------------

scenario::ScenarioSpec warm_scenario_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "test_warm";
  spec.topology = "torus";
  spec.size = 4;
  spec.backend = "racke:num_trees=3";
  spec.seed = 11;
  spec.epochs = 6;
  spec.alpha = 3;
  spec.measure_ratio = false;
  spec.model = *scenario::TrafficModelSpec::parse(
      "diurnal_gravity:total=32,amplitude=0.5,period=4,max_pairs=24");
  spec.warm_start = true;
  return spec;
}

TEST(WarmScenario, EpochReportsCarryWarmAccounting) {
  const scenario::ScenarioSpec spec = warm_scenario_spec();
  SorEngine engine = scenario::build_scenario_engine(spec);
  const auto trace = scenario::generate_trace(engine.graph(), spec);
  const auto report = scenario::run_scenario(engine, spec, trace);

  ASSERT_EQ(report.epochs.size(), 6u);
  EXPECT_FALSE(report.epochs[0].warm_hit);  // nothing captured yet
  long long saved = 0;
  int hits = 0;
  for (const auto& row : report.epochs) {
    EXPECT_GT(row.mwu_rounds, 0);
    saved += row.rounds_saved;
    hits += row.warm_hit ? 1 : 0;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(saved, 0);
}

TEST(WarmScenario, WarmOffScenarioReportsZeroWarmFields) {
  scenario::ScenarioSpec spec = warm_scenario_spec();
  spec.warm_start = false;
  SorEngine engine = scenario::build_scenario_engine(spec);
  const auto trace = scenario::generate_trace(engine.graph(), spec);
  const auto report = scenario::run_scenario(engine, spec, trace);
  for (const auto& row : report.epochs) {
    EXPECT_FALSE(row.warm_hit);
    EXPECT_EQ(row.rounds_saved, 0);
    EXPECT_GT(row.mwu_rounds, 0);  // rounds are reported warm or cold
  }
}

TEST(WarmScenario, SpecKeyRoundTripsAndDefaultStaysByteStable) {
  scenario::ScenarioSpec spec = warm_scenario_spec();
  std::stringstream on;
  io::write_scenario(on, spec);
  EXPECT_NE(on.str().find("warm_start 1"), std::string::npos);
  const auto back = io::read_scenario(on);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->warm_start);
  EXPECT_EQ(*back, spec);

  spec.warm_start = false;
  std::stringstream off;
  io::write_scenario(off, spec);
  // Default off: the key is absent, so pre-warm specs round-trip
  // byte-identically.
  EXPECT_EQ(off.str().find("warm_start"), std::string::npos);
  const auto back_off = io::read_scenario(off);
  ASSERT_TRUE(back_off.has_value());
  EXPECT_FALSE(back_off->warm_start);
}

}  // namespace
}  // namespace sor

// Scenario engine: trace determinism, spec/trace serialization round
// trips, reinstall-policy semantics (incl. the amortization headline:
// reinstall=never epochs skip Stage 2 entirely), and thread-count
// invariance of the runner's reports.
#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "io/scenario_io.h"
#include "io/serialization.h"

namespace sor::scenario {
namespace {

ScenarioSpec small_storm_spec() {
  ScenarioSpec spec;
  spec.name = "test_storm";
  spec.topology = "hypercube";
  spec.size = 4;
  spec.seed = 7;
  spec.epochs = 5;
  spec.alpha = 3;
  spec.install_horizon = 1;
  spec.measure_ratio = false;
  spec.model = *TrafficModelSpec::parse("permutation_storm");
  spec.reinstall = *ReinstallPolicy::parse("every_k:1");
  return spec;
}

ScenarioSpec small_churn_spec() {
  ScenarioSpec spec;
  spec.name = "test_churn";
  spec.topology = "torus";
  spec.size = 4;
  spec.backend = "racke:num_trees=3";
  spec.seed = 11;
  spec.epochs = 6;
  spec.alpha = 3;
  spec.measure_ratio = false;
  spec.model = *TrafficModelSpec::parse(
      "diurnal_gravity:total=32,amplitude=0.5,period=4,max_pairs=24");
  spec.churn = {.rate = 0.6, .down_factor = 0.05, .mean_outage = 2};
  spec.reinstall = *ReinstallPolicy::parse("on_link_event");
  return spec;
}

/// Everything except wall-times must match bit-for-bit.
void expect_reports_identical(const ScenarioReport& a,
                              const ScenarioReport& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const EpochReport& x = a.epochs[i];
    const EpochReport& y = b.epochs[i];
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.reinstalled, y.reinstalled);
    EXPECT_EQ(x.rebuilt, y.rebuilt);
    EXPECT_EQ(x.link_events, y.link_events);
    EXPECT_EQ(x.support, y.support);
    EXPECT_EQ(x.offered, y.offered);        // exact: same trace
    EXPECT_EQ(x.routed, y.routed);
    EXPECT_EQ(x.coverage, y.coverage);
    EXPECT_EQ(x.congestion, y.congestion);  // exact: bit-identical routing
    EXPECT_EQ(x.ratio, y.ratio);
    EXPECT_EQ(x.installed_pairs, y.installed_pairs);
    EXPECT_EQ(x.installed_paths, y.installed_paths);
  }
  EXPECT_EQ(a.reinstalls, b.reinstalls);
  EXPECT_EQ(a.max_congestion, b.max_congestion);
  EXPECT_EQ(a.mean_coverage, b.mean_coverage);
  EXPECT_EQ(a.min_coverage, b.min_coverage);
}

TEST(Scenario, TraceIsAPureFunctionOfSeed) {
  const ScenarioSpec spec = small_churn_spec();
  const Graph g = make_scenario_graph(spec);
  const ScenarioTrace t1 = generate_trace(g, spec);
  const ScenarioTrace t2 = generate_trace(g, spec);
  ASSERT_EQ(t1.demands.size(), t2.demands.size());
  for (std::size_t e = 0; e < t1.demands.size(); ++e) {
    EXPECT_EQ(t1.demands[e].entries(), t2.demands[e].entries());
  }
  EXPECT_EQ(t1.events, t2.events);

  ScenarioSpec reseeded = spec;
  reseeded.seed = 12;
  const ScenarioTrace t3 = generate_trace(g, reseeded);
  bool any_difference = t3.events != t1.events;
  for (std::size_t e = 0; e < t1.demands.size() && !any_difference; ++e) {
    any_difference = t1.demands[e].entries() != t3.demands[e].entries();
  }
  EXPECT_TRUE(any_difference);
}

TEST(Scenario, TrafficModelsProduceSaneEpochDemands) {
  Rng rng(3);
  const Graph cube = gen::hypercube(4);
  for (const char* text :
       {"diurnal_gravity", "hotspot_burst", "flash_crowd",
        "permutation_storm", "stride_sweep:stride=3,step=2"}) {
    const auto model = TrafficModelSpec::parse(text);
    ASSERT_TRUE(model.has_value()) << text;
    for (int epoch = 0; epoch < 4; ++epoch) {
      const Demand d = epoch_demand(cube, *model, epoch, rng);
      EXPECT_FALSE(d.empty()) << text << " epoch " << epoch;
      for (const auto& [pair, value] : d.entries()) {
        EXPECT_GE(pair.first, 0);
        EXPECT_LT(pair.first, cube.num_vertices());
        EXPECT_GE(pair.second, 0);
        EXPECT_LT(pair.second, cube.num_vertices());
        EXPECT_GT(value, 0.0);
      }
    }
  }
}

TEST(Scenario, DiurnalGravityChurnsVolumesNotSupport) {
  const Graph g = gen::grid(4, 4, /*wrap=*/true);
  const auto model =
      TrafficModelSpec::parse("diurnal_gravity:total=32,amplitude=0.5,period=4");
  ASSERT_TRUE(model.has_value());
  Rng rng(1);
  const Demand d0 = epoch_demand(g, *model, 0, rng);
  const Demand d1 = epoch_demand(g, *model, 1, rng);
  ASSERT_EQ(d0.support_size(), d1.support_size());
  for (const auto& [pair, value] : d0.entries()) {
    EXPECT_GT(d1.at(pair.first, pair.second), 0.0);
  }
  EXPECT_NE(d0.size(), d1.size());  // the diurnal scale moved
}

TEST(Scenario, ModelParseRejectsUnknownNamesAndKnobs) {
  EXPECT_FALSE(TrafficModelSpec::parse("tsunami").has_value());
  EXPECT_FALSE(TrafficModelSpec::parse("diurnal_gravity:ampltude=1").has_value());
  EXPECT_FALSE(TrafficModelSpec::parse("diurnal_gravity:total=abc").has_value());
  const auto round_trip = TrafficModelSpec::parse(
      "flash_crowd:amount=0.25,fanin=24,start=3");
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_EQ(TrafficModelSpec::parse(round_trip->to_string()), round_trip);
}

TEST(Scenario, ReinstallPolicyParseRoundTripsAndRejects) {
  for (const char* text :
       {"never", "every_k:1", "every_k:4", "on_link_event",
        "on_support_drift:0.25"}) {
    const auto policy = ReinstallPolicy::parse(text);
    ASSERT_TRUE(policy.has_value()) << text;
    EXPECT_EQ(policy->to_string(), text);
  }
  EXPECT_EQ(ReinstallPolicy::parse("every_k")->k, 1);
  EXPECT_FALSE(ReinstallPolicy::parse("every_k:0").has_value());
  EXPECT_FALSE(ReinstallPolicy::parse("never:1").has_value());
  EXPECT_FALSE(ReinstallPolicy::parse("on_support_drift:1.5").has_value());
  EXPECT_FALSE(ReinstallPolicy::parse("sometimes").has_value());
  // A dangling colon (forgotten argument) must not fall back to defaults.
  EXPECT_FALSE(ReinstallPolicy::parse("every_k:").has_value());
  EXPECT_FALSE(ReinstallPolicy::parse("on_support_drift:").has_value());
  EXPECT_FALSE(ReinstallPolicy::parse("never:").has_value());
}

TEST(Scenario, LinkChurnPairsDownsWithUps) {
  const Graph g = gen::grid(4, 4, /*wrap=*/true);
  Rng rng(5);
  const LinkChurnSpec churn{.rate = 0.7, .down_factor = 0.1, .mean_outage = 2};
  const auto events = generate_link_events(g, churn, 12, rng);
  ASSERT_FALSE(events.empty());
  int downs = 0;
  int ups = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(events[i - 1].epoch, events[i].epoch);  // sorted
    }
    EXPECT_GE(events[i].epoch, 0);
    EXPECT_LT(events[i].epoch, 12);
    EXPECT_GE(g.edge_between(events[i].u, events[i].v), 0);
    downs += events[i].kind == LinkEvent::Kind::kDown;
    ups += events[i].kind == LinkEvent::Kind::kUp;
  }
  EXPECT_EQ(downs + ups, static_cast<int>(events.size()));
  EXPECT_LE(ups, downs);  // an outage past the horizon never heals
}

// ---- serialization ------------------------------------------------------

TEST(Scenario, GenerateTraceRejectsImpossibleExplicitEvents) {
  ScenarioSpec spec = small_churn_spec();
  const Graph g = make_scenario_graph(spec);
  spec.events = {{99, LinkEvent::Kind::kDown, 0, 1, 1.0}};  // past the end
  EXPECT_THROW(generate_trace(g, spec), std::invalid_argument);
  spec.events = {{1, LinkEvent::Kind::kDown, 0, 5, 1.0}};  // not an edge
  EXPECT_THROW(generate_trace(g, spec), std::invalid_argument);
}

TEST(Scenario, SpecSerializationRoundTrips) {
  ScenarioSpec spec = small_churn_spec();
  spec.events.push_back({2, LinkEvent::Kind::kDown, 0, 1, 1.0});
  spec.events.push_back({4, LinkEvent::Kind::kScale, 1, 2, 0.5});
  spec.install_horizon = 2;
  spec.solve.rounds = 120;
  spec.rebuild_backend = true;
  spec.reinstall = *ReinstallPolicy::parse("on_support_drift:0.125");

  std::stringstream buffer;
  io::write_scenario(buffer, spec);
  const auto loaded = io::read_scenario(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, spec);

  // Golden: re-serializing the loaded spec reproduces the bytes.
  std::stringstream again;
  io::write_scenario(again, *loaded);
  std::stringstream original;
  io::write_scenario(original, spec);
  EXPECT_EQ(again.str(), original.str());
}

TEST(Scenario, SpecReaderAcceptsHandEditedText) {
  const char* text =
      "# hand-written scenario\n"
      "scenario v1\n"
      "\n"
      "name demo   # inline comment\n"
      "topology hypercube 4\n"
      "epochs 3\t\n"
      "reinstall every_k:2\n"
      "model permutation_storm:amount=2\n"
      "event 1 down 0 1\n";
  std::stringstream in(text);
  const auto spec = io::read_scenario(in);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "demo");
  EXPECT_EQ(spec->epochs, 3);
  EXPECT_EQ(spec->reinstall.kind, ReinstallPolicy::Kind::kEveryK);
  EXPECT_EQ(spec->model.kind, TrafficModelSpec::Kind::kPermutationStorm);
  ASSERT_EQ(spec->events.size(), 1u);
  EXPECT_EQ(spec->events[0].kind, LinkEvent::Kind::kDown);
}

TEST(Scenario, SpecReaderRejectsMalformedInput) {
  const char* bad[] = {
      "topology torus 4\n",                        // missing magic line
      "scenario v1\nfrobnicate 3\n",               // unknown keyword
      "scenario v1\nepochs 0\n",                   // epochs < 1
      "scenario v1\ntopology torus 4 junk\n",      // trailing garbage
      "scenario v1\nreinstall every_k:-2\n",       // bad policy
      "scenario v1\nmodel heatwave\n",             // unknown model
      "scenario v1\nchurn rate=2\n",               // rate > 1
      "scenario v1\nevent 1 melt 0 1\n",           // unknown event kind
      "scenario v1\nevent 1 down 0 0\n",           // self-loop
      "scenario v1\nevent 1 scale 0 1\n",          // scale needs a factor
      "scenario v1\nevent 1 down 0 1 0.5\n",       // down takes no factor
  };
  for (const char* text : bad) {
    std::stringstream in(text);
    EXPECT_FALSE(io::read_scenario(in).has_value()) << text;
  }
}

// read_scenario accepts any positive size; building the graph must then
// throw, not read past a buffer, overflow, or build a malformed topology.
TEST(Scenario, GraphRejectsSizesOutsideTheGeneratorDomain) {
  const char* lines[] = {
      "topology expander 7 3",      // n * d odd
      "topology fattree 3",         // odd k
      "topology torus 2147483647",  // rows * cols overflows
  };
  for (const char* line : lines) {
    std::stringstream in(std::string("scenario v1\n") + line + "\n");
    const auto spec = io::read_scenario(in);
    ASSERT_TRUE(spec.has_value()) << line;
    EXPECT_THROW(make_scenario_graph(*spec), std::invalid_argument) << line;
  }
}

TEST(Scenario, TraceSerializationRoundTripsBitIdentically) {
  const ScenarioSpec spec = small_churn_spec();
  const Graph g = make_scenario_graph(spec);
  const ScenarioTrace trace = generate_trace(g, spec);

  std::stringstream buffer;
  io::write_trace(buffer, trace);
  const auto loaded = io::read_trace(buffer, g.num_vertices());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->demands.size(), trace.demands.size());
  for (std::size_t e = 0; e < trace.demands.size(); ++e) {
    // Exact doubles: values are written in shortest-round-trip decimal.
    EXPECT_EQ(loaded->demands[e].entries(), trace.demands[e].entries());
  }
  EXPECT_EQ(loaded->events, trace.events);
}

TEST(Scenario, TraceReaderRejectsMalformedInput) {
  const char* bad[] = {
      "epochs 1\nepoch 0\n",                    // missing magic line
      "trace v1\nepochs 2\nepoch 0\n",          // missing epoch 1
      "trace v1\nepochs 1\nepoch 1\n",          // out-of-order index
      "trace v1\nepochs 1\n0 1 1.0\nepoch 0\n", // triple before any epoch
      "trace v1\nepochs 1\nepoch 0\n0 0 1.0\n", // self-loop demand
      "trace v1\nepochs 1\nepoch 0\n0 1 -1\n",  // negative demand
      "trace v1\nepochs 1\nepoch 0\n0 1 1 junk\n",  // trailing garbage
      "trace v1\nepochs 1\nevent 3 down 0 1\nepoch 0\n",  // event past end
  };
  for (const char* text : bad) {
    std::stringstream in(text);
    EXPECT_FALSE(io::read_trace(in).has_value()) << text;
  }
  {
    // With a vertex bound, out-of-range endpoints are a clean nullopt
    // instead of out-of-bounds sampler indexing downstream.
    std::stringstream demand_oob("trace v1\nepochs 1\nepoch 0\n999 0 1\n");
    EXPECT_FALSE(io::read_trace(demand_oob, 64).has_value());
    std::stringstream event_oob(
        "trace v1\nepochs 1\nevent 0 down 0 99\nepoch 0\n");
    EXPECT_FALSE(io::read_trace(event_oob, 64).has_value());
    std::stringstream fine("trace v1\nepochs 1\nepoch 0\n63 0 1\n");
    EXPECT_TRUE(io::read_trace(fine, 64).has_value());
  }
}

// ---- runner -------------------------------------------------------------

TEST(Scenario, NeverPolicySkipsStageTwoEntirely) {
  ScenarioSpec spec = small_storm_spec();
  spec.install_horizon = 0;  // cover the whole trace so routing still works
  spec.reinstall = *ReinstallPolicy::parse("never");
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);

  ASSERT_EQ(report.epochs.size(), 5u);
  EXPECT_EQ(report.reinstalls, 0);
  EXPECT_TRUE(report.epochs[0].reinstalled);  // the initial install
  EXPECT_GT(report.epochs[0].install_ms, 0.0);
  for (std::size_t e = 1; e < report.epochs.size(); ++e) {
    EXPECT_FALSE(report.epochs[e].reinstalled);
    EXPECT_EQ(report.epochs[e].install_ms, 0.0);  // the amortization signal
    EXPECT_GT(report.epochs[e].route_ms, 0.0);
  }
  EXPECT_EQ(report.min_coverage, 1.0);  // horizon 0 knows every pair
}

TEST(Scenario, EveryOnePolicyPaysInstallEveryEpoch) {
  const ScenarioSpec spec = small_storm_spec();  // every_k:1, horizon 1
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);

  EXPECT_EQ(report.reinstalls, static_cast<int>(report.epochs.size()) - 1);
  for (const EpochReport& row : report.epochs) {
    EXPECT_TRUE(row.reinstalled);
    EXPECT_GT(row.install_ms, 0.0);
    EXPECT_EQ(row.coverage, 1.0);  // fresh install covers the fresh pairs
  }
}

TEST(Scenario, NeverPolicyLosesCoverageUnderSupportChurn) {
  ScenarioSpec spec = small_storm_spec();  // horizon 1: epoch-0 pairs only
  spec.reinstall = *ReinstallPolicy::parse("never");
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);
  // Fresh permutations share almost no pairs with epoch 0's installation.
  EXPECT_LT(report.min_coverage, 0.5);
  EXPECT_EQ(report.epochs[0].coverage, 1.0);
}

TEST(Scenario, EveryKPolicyReinstallsOnSchedule) {
  ScenarioSpec spec = small_storm_spec();
  spec.epochs = 7;
  spec.reinstall = *ReinstallPolicy::parse("every_k:3");
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);
  for (const EpochReport& row : report.epochs) {
    EXPECT_EQ(row.reinstalled, row.epoch == 0 || row.epoch % 3 == 0)
        << "epoch " << row.epoch;
  }
  EXPECT_EQ(report.reinstalls, 2);  // epochs 3 and 6
}

TEST(Scenario, OnLinkEventPolicyTracksEvents) {
  ScenarioSpec spec = small_churn_spec();
  spec.churn.rate = 0.0;  // only the explicit events below
  spec.events = {{2, LinkEvent::Kind::kDown, 0, 1, 1.0},
                 {4, LinkEvent::Kind::kUp, 0, 1, 1.0}};
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);
  for (const EpochReport& row : report.epochs) {
    if (row.epoch == 0) continue;
    EXPECT_EQ(row.reinstalled, row.epoch == 2 || row.epoch == 4)
        << "epoch " << row.epoch;
  }

  // The down epoch routes over a 5%-capacity link the frozen paths still
  // use: congestion must not improve relative to the healthy epoch before.
  EXPECT_GE(report.epochs[2].link_events, 1);
}

TEST(Scenario, LinkEventsChangeCapacitiesAndRestore) {
  ScenarioSpec spec = small_churn_spec();
  spec.churn.rate = 0.0;
  spec.epochs = 3;
  spec.events = {{1, LinkEvent::Kind::kDown, 0, 1, 1.0},
                 {2, LinkEvent::Kind::kUp, 0, 1, 1.0}};
  spec.reinstall = *ReinstallPolicy::parse("never");
  SorEngine engine = build_scenario_engine(spec);
  const int e = engine.graph().edge_between(0, 1);
  ASSERT_GE(e, 0);
  const double healthy = engine.graph().edge(e).capacity;
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);
  (void)report;
  // After the up event the original capacity is restored exactly.
  EXPECT_EQ(engine.graph().edge(e).capacity, healthy);
}

TEST(Scenario, DownUpRestoresTheSameParallelEdge) {
  // Degrading the canonical (max-capacity) member of a parallel pair flips
  // edge_between's answer; the up event must still restore the edge the
  // down event degraded, not the sibling the flipped resolution now names.
  Graph g(3);
  const int low = g.add_edge(0, 1, 1.0);
  const int high = g.add_edge(0, 1, 5.0);  // canonical at scenario start
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);

  ScenarioSpec spec;
  spec.epochs = 3;
  spec.alpha = 2;
  spec.measure_ratio = false;
  spec.model = *TrafficModelSpec::parse("stride_sweep:step=0");
  spec.churn.down_factor = 0.05;
  spec.reinstall = *ReinstallPolicy::parse("never");
  spec.events = {{1, LinkEvent::Kind::kDown, 0, 1, 1.0},
                 {2, LinkEvent::Kind::kUp, 0, 1, 1.0}};

  SorEngine engine = SorEngine::build(std::move(g), "shortest_path", 5);
  ScenarioTrace trace;
  trace.demands.assign(3, {});
  for (auto& d : trace.demands) d.set(0, 2, 1.0);
  trace.events = spec.events;
  run_scenario(engine, spec, trace);

  EXPECT_EQ(engine.graph().edge(high).capacity, 5.0);
  EXPECT_EQ(engine.graph().edge(low).capacity, 1.0);
  EXPECT_EQ(engine.graph().edge_between(0, 1), high);
}

TEST(Scenario, SameEpochRecoveryCannotCancelAFreshFailure) {
  // Outage A recovers at epoch 1 while outage B starts on the same edge at
  // epoch 1 (the churn generator can emit exactly this): the recovery must
  // apply BEFORE the new failure, leaving the link degraded.
  ScenarioSpec spec = small_churn_spec();
  spec.churn.rate = 0.0;
  spec.epochs = 3;
  spec.events = {{0, LinkEvent::Kind::kDown, 0, 1, 1.0},
                 {1, LinkEvent::Kind::kUp, 0, 1, 1.0},
                 {1, LinkEvent::Kind::kDown, 0, 1, 1.0}};
  spec.reinstall = *ReinstallPolicy::parse("never");
  SorEngine engine = build_scenario_engine(spec);
  const int e = engine.graph().edge_between(0, 1);
  ASSERT_GE(e, 0);
  const double healthy = engine.graph().edge(e).capacity;
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  run_scenario(engine, spec, trace);
  EXPECT_EQ(engine.graph().edge(e).capacity,
            healthy * spec.churn.down_factor);
}

TEST(Scenario, OnSupportDriftTriggersWhenCoverageDecays) {
  ScenarioSpec spec = small_storm_spec();  // permutation storm, horizon 1
  spec.reinstall = *ReinstallPolicy::parse("on_support_drift:0.5");
  SorEngine engine = build_scenario_engine(spec);
  const ScenarioTrace trace = generate_trace(engine.graph(), spec);
  const ScenarioReport report = run_scenario(engine, spec, trace);
  // Every epoch's permutation is almost entirely fresh pairs, so the
  // uncovered fraction blows past theta every epoch after the first.
  EXPECT_EQ(report.reinstalls, static_cast<int>(report.epochs.size()) - 1);
  for (const EpochReport& row : report.epochs) {
    EXPECT_EQ(row.coverage, 1.0);
  }
}

TEST(Scenario, ReportsAreBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = small_churn_spec();
  std::optional<ScenarioReport> baseline;
  for (int threads : {1, 2, 4}) {
    SorEngine engine = build_scenario_engine(spec, threads);
    const ScenarioTrace trace = generate_trace(engine.graph(), spec);
    const ScenarioReport report = run_scenario(engine, spec, trace);
    if (!baseline) {
      baseline = report;
    } else {
      expect_reports_identical(*baseline, report);
    }
  }
}

TEST(Scenario, RebuildBackendReconstructsStageOneDeterministically) {
  ScenarioSpec spec = small_churn_spec();
  spec.rebuild_backend = true;
  std::optional<ScenarioReport> baseline;
  for (int threads : {1, 2}) {
    SorEngine engine = build_scenario_engine(spec, threads);
    const ScenarioTrace trace = generate_trace(engine.graph(), spec);
    const ScenarioReport report = run_scenario(engine, spec, trace);
    bool any_rebuilt = false;
    for (const EpochReport& row : report.epochs) {
      if (row.epoch > 0 && row.reinstalled) {
        EXPECT_TRUE(row.rebuilt);
        any_rebuilt = true;
      }
    }
    EXPECT_TRUE(any_rebuilt);
    if (!baseline) {
      baseline = report;
    } else {
      expect_reports_identical(*baseline, report);
    }
  }
}

TEST(Scenario, PresetsBuildAndRoundTrip) {
  for (const std::string& name : scenario_preset_names()) {
    const auto spec = scenario_preset(name);
    ASSERT_TRUE(spec.has_value()) << name;
    std::stringstream buffer;
    io::write_scenario(buffer, *spec);
    const auto loaded = io::read_scenario(buffer);
    ASSERT_TRUE(loaded.has_value()) << name;
    EXPECT_EQ(*loaded, *spec) << name;
    EXPECT_NO_THROW({ Graph g = make_scenario_graph(*spec); (void)g; })
        << name;
  }
  EXPECT_FALSE(scenario_preset("black_friday").has_value());
}

// ---- engine hooks (src/api) ---------------------------------------------

TEST(Scenario, EngineSetEdgeCapacityRevalidatesCanonicalEdge) {
  Graph g(3);
  const int low = g.add_edge(0, 1, 1.0);
  const int high = g.add_edge(0, 1, 5.0);  // canonical (max capacity)
  g.add_edge(1, 2, 1.0);
  ASSERT_EQ(g.edge_between(0, 1), high);

  SorEngine engine = SorEngine::build(std::move(g), "shortest_path", 1);
  engine.set_edge_capacity(high, 0.5);  // degrade below the parallel edge
  EXPECT_EQ(engine.graph().edge_between(0, 1), low);
  engine.set_edge_capacity(high, 5.0);  // restore
  EXPECT_EQ(engine.graph().edge_between(0, 1), high);

  EXPECT_THROW(engine.set_edge_capacity(high, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.set_edge_capacity(99, 1.0), std::invalid_argument);
}

TEST(Scenario, EngineRouteAdaptsToCapacityChangeOverFrozenPaths) {
  // Two parallel two-hop corridors; after halving one corridor's capacity
  // the adaptive rates shift without reinstalling (same frozen paths).
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(2, 3, 2.0);
  SorEngine engine = SorEngine::build(std::move(g), "shortest_path", 3);
  Demand d;
  d.set(0, 3, 2.0);
  engine.install_paths(SamplingSpec::for_demand(d, 8));
  RouteSpec spec;
  spec.compute_optimum = false;
  const double before = engine.route(d, spec).congestion;

  const int top = engine.graph().edge_between(0, 1);
  ASSERT_GE(top, 0);
  engine.set_edge_capacity(top, 0.1);
  const double after = engine.route(d, spec).congestion;
  EXPECT_GT(after, 0.0);
  // The degraded link makes the instance harder, but the adaptive rates
  // must keep congestion far below the all-on-the-dead-link worst case.
  EXPECT_GE(after, before);
  EXPECT_LT(after, 2.0 / 0.1);
}

}  // namespace
}  // namespace sor::scenario

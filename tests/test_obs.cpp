// Observability subsystem (src/obs/, docs/observability.md): the
// TraceRecorder's off-is-free / on-is-bounded contract, convergence
// telemetry that observes without perturbing either MWU solver,
// MetricsRegistry exposition (absent-not-zero gauges, shortest round-trip
// doubles), and the service counters the serving paths bump.
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/sor_engine.h"
#include "core/path_system.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "lp/min_congestion.h"
#include "runtime/alloc_stats.h"
#include "util/rng.h"

namespace sor {
namespace {

/// The recorder is process-global; every test that arms it must disarm it
/// on every exit path so suites cannot leak tracing into each other.
struct TracerGuard {
  ~TracerGuard() {
    obs::tracer().disable();
    obs::tracer().clear();
  }
};

SorEngine make_engine(std::uint64_t seed = 7) {
  return SorEngine::build(gen::grid(4, 4, true), "racke:num_trees=3", seed);
}

Demand small_demand() {
  Demand d;
  d.set(0, 5, 2.0);
  d.set(1, 10, 1.5);
  d.set(3, 12, 1.0);
  d.set(7, 2, 2.5);
  return d;
}

/// A small multicommodity instance for direct solver-level tests.
struct Instance {
  Graph g;
  std::vector<Commodity> commodities;
};

Instance grid_instance() {
  Instance inst{gen::grid(4, 4, true), {}};
  inst.commodities = {{0, 15, 2.0}, {3, 12, 1.5}, {5, 10, 1.0}};
  return inst;
}

// ---- TraceRecorder ------------------------------------------------------

TEST(TraceRecorder, DisabledByDefaultAndSpansAreFree) {
  obs::TraceRecorder& rec = obs::tracer();
  ASSERT_FALSE(rec.enabled());
  const std::size_t before = rec.size();
  {
    obs::TraceSpan span("noop", "test");
  }
  rec.record_instant("noop_instant", "test");
  EXPECT_EQ(rec.size(), before);
}

TEST(TraceRecorder, RecordsSpansAndInstantsWhenEnabled) {
  TracerGuard guard;
  obs::TraceRecorder& rec = obs::tracer();
  rec.enable(64);
  ASSERT_TRUE(rec.enabled());
  EXPECT_EQ(rec.size(), 0u);
  {
    obs::TraceSpan span("outer", "test", "items", 3);
  }
  rec.record_instant("tick", "test");
  ASSERT_EQ(rec.size(), 2u);
  const std::vector<obs::TraceEvent> events = rec.events();
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_FALSE(events[0].instant);
  EXPECT_STREQ(events[0].args[0].name, "items");
  EXPECT_EQ(events[0].args[0].value, 3u);
  EXPECT_STREQ(events[1].name, "tick");
  EXPECT_TRUE(events[1].instant);
  EXPECT_EQ(events[1].dur_us, 0u);
}

TEST(TraceRecorder, SetArgAttachesPayloadAtScopeExit) {
  TracerGuard guard;
  obs::tracer().enable(8);
  {
    obs::TraceSpan span("work", "test");
    span.set_arg("count", 42);
  }
  const auto events = obs::tracer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].args[0].name, "count");
  EXPECT_EQ(events[0].args[0].value, 42u);
  EXPECT_EQ(events[0].args[1].name, nullptr);
}

TEST(TraceRecorder, SetArgFillsSlotsInOrder) {
  TracerGuard guard;
  obs::tracer().enable(8);
  {
    obs::TraceSpan span("work", "test", "first", 10);
    span.set_arg("second", 2);
    span.set_arg("third", 3);
    span.set_arg("fourth", 4);  // past kMaxTraceArgs: dropped
  }
  const auto events = obs::tracer().events();
  ASSERT_EQ(events.size(), 1u);
  const auto& args = events[0].args;
  ASSERT_EQ(args.size(), 3u);
  EXPECT_STREQ(args[0].name, "first");
  EXPECT_EQ(args[0].value, 10u);
  EXPECT_STREQ(args[1].name, "second");
  EXPECT_EQ(args[1].value, 2u);
  EXPECT_STREQ(args[2].name, "third");
  EXPECT_EQ(args[2].value, 3u);
  std::ostringstream out;
  obs::tracer().write_chrome_json(out);
  EXPECT_NE(out.str().find("\"args\":{\"first\":10,\"second\":2,\"third\":3}"),
            std::string::npos);
}

TEST(TraceRecorder, RingDropsNewestWhenFullAndCounts) {
  TracerGuard guard;
  obs::TraceRecorder& rec = obs::tracer();
  rec.enable(4);
  for (int i = 0; i < 10; ++i) rec.record_instant("e", "test");
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // The HEAD of the trace survives — re-enabling resets both.
  rec.enable(4);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, ChromeJsonShape) {
  TracerGuard guard;
  obs::TraceRecorder& rec = obs::tracer();
  rec.enable(16);
  {
    obs::TraceSpan span("solve", "engine", "rounds", 7);
  }
  rec.record_instant("fire", "fault");
  std::ostringstream out;
  rec.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":7"), std::string::npos);
  // Trailing metadata closes the object: the output is one JSON document.
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(TraceRecorder, EventsStayReadableAfterDisable) {
  TracerGuard guard;
  obs::TraceRecorder& rec = obs::tracer();
  rec.enable(8);
  rec.record_instant("kept", "test");
  rec.disable();
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.size(), 1u);
  {
    obs::TraceSpan span("ignored", "test");
  }
  EXPECT_EQ(rec.size(), 1u);
}

TEST(TraceRecorder, DistanceLowerBoundIsOneEngineSpan) {
  TracerGuard guard;
  const Demand d = small_demand();
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  const auto lower_bound_spans = [] {
    int count = 0;
    for (const obs::TraceEvent& ev : obs::tracer().events()) {
      if (std::string(ev.cat) == "engine" &&
          std::string(ev.name) == "lower_bound") {
        ++count;
      }
    }
    return count;
  };
  RouteSpec spec;
  spec.compute_optimum = false;
  obs::tracer().enable(64);
  engine.route(d, spec);
  EXPECT_EQ(lower_bound_spans(), 1);

  obs::tracer().clear();
  spec.compute_lower_bound = false;
  const RouteReport off = engine.route(d, spec);
  EXPECT_EQ(lower_bound_spans(), 0);
  EXPECT_EQ(off.times.lower_bound_ms, 0.0);
}

TEST(TraceRecorder, RouteSpanCarriesTheSolveWork) {
  TracerGuard guard;
  const Demand d = small_demand();
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec spec;
  spec.compute_optimum = false;
  obs::tracer().enable(64);
  const RouteReport report = engine.route(d, spec);
  obs::tracer().disable();
  const obs::TraceEvent* route = nullptr;
  const std::vector<obs::TraceEvent> events = obs::tracer().events();
  for (const obs::TraceEvent& ev : events) {
    if (std::string(ev.cat) == "engine" && std::string(ev.name) == "route") {
      route = &ev;
    }
  }
  ASSERT_NE(route, nullptr);

  // The same solve straight through a scratch: each round evaluates one exp
  // per footprint edge plus the shared one and reads every lane entry.
  const std::vector<Commodity> commodities = d.commodities();
  const FlatCandidates candidates =
      flat_candidates(engine.paths(), commodities);
  MinCongestionScratch scratch;
  CongestionResult direct;
  min_congestion_over_paths_into(engine.graph(), commodities, candidates,
                                 spec.mwu, {}, scratch, direct);
  ASSERT_EQ(direct.rounds_used, report.solution.rounds_used);
  const auto rounds = static_cast<std::uint64_t>(direct.rounds_used);
  ASSERT_GT(rounds, 0u);
  std::vector<char> on_candidate(
      static_cast<std::size_t>(engine.graph().num_edges()), 0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      for (int e : candidates.edges(j, i)) {
        on_candidate[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  const auto footprint = static_cast<std::size_t>(
      std::count(on_candidate.begin(), on_candidate.end(), 1));
  EXPECT_EQ(scratch.cand_edges.size(), footprint);

  EXPECT_STREQ(route->args[0].name, "rounds");
  EXPECT_EQ(route->args[0].value, rounds);
  EXPECT_STREQ(route->args[1].name, "exp_evals");
  EXPECT_EQ(route->args[1].value, rounds * (footprint + 1));
  EXPECT_STREQ(route->args[2].name, "lane_reads");
  EXPECT_EQ(route->args[2].value, rounds * scratch.lane_edges.size());
}

TEST(TraceRecorder, BatchWorkersRecordOneRouteSpanPerDemand) {
  TracerGuard guard;
  std::vector<Demand> demands;
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    demands.push_back(gen::random_permutation_demand(16, rng));
  }
  RouteSpec spec;
  spec.simulate_packets = true;
  const auto run_batch = [&] {
    SorEngine engine = SorEngine::build(gen::grid(4, 4, true),
                                        "racke:num_trees=3", 7, /*threads=*/4);
    engine.install_paths(SamplingSpec::for_demands(demands, 3));
    return engine.route_batch(demands, spec);
  };
  const BatchReport untraced = run_batch();

  obs::tracer().enable(4096);
  const BatchReport traced = run_batch();
  obs::tracer().disable();
  EXPECT_EQ(obs::tracer().dropped(), 0u);
  int route_spans = 0;
  for (const obs::TraceEvent& ev : obs::tracer().events()) {
    if (std::string(ev.cat) == "engine" && std::string(ev.name) == "route") {
      ++route_spans;
    }
  }
  EXPECT_EQ(route_spans, static_cast<int>(demands.size()));

  ASSERT_EQ(traced.reports.size(), untraced.reports.size());
  for (std::size_t i = 0; i < traced.reports.size(); ++i) {
    SCOPED_TRACE(i);
    const RouteReport& a = traced.reports[i];
    const RouteReport& b = untraced.reports[i];
    EXPECT_EQ(a.congestion, b.congestion);
    EXPECT_EQ(a.solution.weights, b.solution.weights);
    EXPECT_EQ(a.solution.edge_load, b.solution.edge_load);
    EXPECT_EQ(a.solution.lower_bound, b.solution.lower_bound);
    EXPECT_EQ(a.solution.rounds_used, b.solution.rounds_used);
    EXPECT_EQ(a.opt_lower_bound, b.opt_lower_bound);
    EXPECT_EQ(a.competitive_ratio, b.competitive_ratio);
    ASSERT_TRUE(a.optimum.has_value() && b.optimum.has_value());
    EXPECT_EQ(a.optimum->upper, b.optimum->upper);
    EXPECT_EQ(a.optimum->lower, b.optimum->lower);
    ASSERT_TRUE(a.integral.has_value() && b.integral.has_value());
    EXPECT_EQ(a.integral->choices, b.integral->choices);
    EXPECT_EQ(a.integral->edge_load, b.integral->edge_load);
    ASSERT_TRUE(a.simulation.has_value() && b.simulation.has_value());
    EXPECT_EQ(a.simulation->makespan, b.simulation->makespan);
  }
}

// ---- convergence telemetry ---------------------------------------------

TEST(Convergence, RestrictedSolverIsBitIdenticalWithSinkAttached) {
  const Instance inst = grid_instance();
  std::vector<std::vector<Path>> paths;
  for (const Commodity& c : inst.commodities) {
    paths.push_back({shortest_path_hops(inst.g, c.s, c.t)});
  }
  MinCongestionOptions base;
  base.rounds = 60;
  base.target_gap = 1.0;  // never early-exit: fixed round count
  const CongestionResult plain =
      min_congestion_over_paths(inst.g, inst.commodities, paths, base);

  std::vector<obs::ConvergenceRecord> records;
  obs::ConvergenceSink sink(records);
  MinCongestionScratch scratch;
  CongestionResult traced;
  min_congestion_over_paths_into(inst.g, inst.commodities,
                                 flatten_candidates(inst.g, paths), base,
                                 {.sink = &sink}, scratch, traced);

  EXPECT_EQ(plain.congestion, traced.congestion);
  EXPECT_EQ(plain.lower_bound, traced.lower_bound);
  EXPECT_EQ(plain.rounds_used, traced.rounds_used);
  ASSERT_EQ(plain.edge_load.size(), traced.edge_load.size());
  for (std::size_t e = 0; e < plain.edge_load.size(); ++e) {
    EXPECT_EQ(plain.edge_load[e], traced.edge_load[e]);
  }

  ASSERT_EQ(records.size(), static_cast<std::size_t>(traced.rounds_used));
  double prev_lower = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::ConvergenceRecord& r = records[i];
    EXPECT_EQ(r.round, static_cast<int>(i) + 1);
    EXPECT_GE(r.best_lower, prev_lower);  // running max dual is monotone
    prev_lower = r.best_lower;
    EXPECT_GT(r.touched_edges, 0);
    if (r.best_lower > 0.0) {
      EXPECT_NEAR(r.gap, r.congestion / r.best_lower - 1.0, 1e-12);
    }
  }
  // The last record's congestion is the averaged iterate the solver
  // returns — same quantity, different division association, so NEAR.
  EXPECT_NEAR(records.back().congestion, traced.congestion,
              1e-9 * std::max(1.0, traced.congestion));
}

TEST(Convergence, SinkDropsPastMaxRecords) {
  std::vector<obs::ConvergenceRecord> records;
  records.reserve(3);
  obs::ConvergenceSink sink(records, /*max_records=*/3);
  for (int i = 0; i < 8; ++i) {
    sink.record({i + 1, 1.0, 0.5, 0.5, 1.0, 4});
  }
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(sink.dropped(), 5u);
}

TEST(Convergence, SinkCtorClearsStaleRecords) {
  std::vector<obs::ConvergenceRecord> records(7);
  obs::ConvergenceSink sink(records);
  EXPECT_TRUE(records.empty());
}

TEST(Convergence, CsvAndJsonWriters) {
  std::vector<obs::ConvergenceRecord> records = {
      {1, 2.5, 0.0, 0.0, std::numeric_limits<double>::infinity(), 3},
      {2, 2.25, 1.5, 1.5, 0.5, 4},
  };
  std::ostringstream csv;
  obs::write_convergence_csv(csv, records);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("round,congestion,dual,best_lower,gap,"
                          "touched_edges"),
            std::string::npos);
  EXPECT_NE(csv_text.find("2,2.25,1.5,1.5,0.5,4"), std::string::npos);

  std::ostringstream json;
  obs::write_convergence_json(json, records);
  const std::string json_text = json.str();
  // Non-finite gap must stay valid JSON: rendered as null, never "inf".
  EXPECT_NE(json_text.find("\"gap\":null"), std::string::npos);
  EXPECT_EQ(json_text.find("inf"), std::string::npos);
  EXPECT_NE(json_text.find("\"congestion\":2.25"), std::string::npos);
}

TEST(Convergence, RouteSpecSurfacesRecordsAndStaysBitIdentical) {
  const Demand d = small_demand();
  // Only the restricted solve records, whether or not the optimum oracle
  // runs too.
  for (const bool optimum : {true, false}) {
    SCOPED_TRACE(optimum ? "compute_optimum" : "no optimum");
    RouteSpec spec;
    spec.compute_optimum = optimum;
    SorEngine a = make_engine();
    a.install_paths(SamplingSpec::for_demand(d, 3));
    const RouteReport plain = a.route(d, spec);
    EXPECT_TRUE(plain.convergence.empty());

    SorEngine b = make_engine();
    b.install_paths(SamplingSpec::for_demand(d, 3));
    spec.record_convergence = true;
    const RouteReport traced = b.route(d, spec);

    ASSERT_FALSE(traced.convergence.empty());
    EXPECT_EQ(traced.convergence.size(),
              static_cast<std::size_t>(traced.solution.rounds_used));
    EXPECT_EQ(plain.congestion, traced.congestion);
    EXPECT_EQ(plain.solution.lower_bound, traced.solution.lower_bound);
    EXPECT_EQ(plain.solution.rounds_used, traced.solution.rounds_used);
    ASSERT_EQ(plain.solution.edge_load.size(),
              traced.solution.edge_load.size());
    for (std::size_t e = 0; e < plain.solution.edge_load.size(); ++e) {
      EXPECT_EQ(plain.solution.edge_load[e], traced.solution.edge_load[e]);
    }
  }
}

// ---- MetricsRegistry ----------------------------------------------------

TEST(Metrics, PrometheusExpositionShape) {
  obs::MetricsRegistry reg;
  reg.counter("demo_total", 42, "a demo counter");
  reg.gauge("demo_ratio", 0.1, "a demo gauge");
  obs::LatencyHistogram h;
  h.observe_ms(0.2);
  h.observe_ms(3.0);
  h.observe_ms(5000.0);  // lands in the +Inf bucket
  reg.histogram("demo_ms", h, "a demo histogram");

  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP demo_total a demo counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 42"), std::string::npos);
  // format_double round-trip: 0.1 renders as the shortest form "0.1",
  // never "0.10000000000000001".
  EXPECT_NE(text.find("demo_ratio 0.1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_ms histogram"), std::string::npos);
  // Cumulative buckets end at +Inf == count.
  EXPECT_NE(text.find("demo_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("demo_ms_count 3"), std::string::npos);
}

TEST(Metrics, HasAndValueOr) {
  obs::MetricsRegistry reg;
  reg.counter("present_total", 7);
  EXPECT_TRUE(reg.has("present_total"));
  EXPECT_FALSE(reg.has("absent_total"));
  EXPECT_EQ(reg.value_or("present_total", -1.0), 7.0);
  EXPECT_EQ(reg.value_or("absent_total", -1.0), -1.0);
}

TEST(Metrics, LatencyHistogramBucketsAreExclusiveCountsPerBound) {
  obs::LatencyHistogram h;
  h.observe_ms(0.05);  // below the first bound (0.1)
  h.observe_ms(0.05);
  h.observe_ms(999.0);  // inside the last finite bound (1000)
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(obs::LatencyHistogram::kNumBounds - 1), 1u);
  EXPECT_NEAR(h.sum_ms(), 999.1, 0.01);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
}

TEST(Metrics, EngineMetricsReflectServiceActivity) {
  obs::service_counters().reset();
  const Demand d = small_demand();
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  const RouteReport report = engine.route(d, RouteSpec{});

  const obs::MetricsRegistry reg = engine.metrics();
  EXPECT_EQ(reg.value_or("sor_routes_served_total", -1.0), 1.0);
  EXPECT_EQ(reg.value_or("sor_installs_total", -1.0), 1.0);
  EXPECT_EQ(reg.value_or("sor_mwu_rounds_total", -1.0),
            static_cast<double>(report.solution.rounds_used));
  EXPECT_GT(reg.value_or("sor_installed_pairs", -1.0), 0.0);
  std::ostringstream out;
  reg.write_prometheus(out);
  EXPECT_NE(out.str().find("sor_route_ms_count 1"), std::string::npos);
}

// Satellite: the vacuous-zero path. A build without the operator-new
// interposer (SOR_SANITIZE / -DSOR_ALLOC_STATS=OFF) measures nothing — the
// exposition must mark the alloc gauges ABSENT, never 0.
TEST(Metrics, AllocGaugesAbsentWhenCountingNotCompiled) {
  const Demand d = small_demand();
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  engine.route(d, RouteSpec{});
  const obs::MetricsRegistry reg = engine.metrics();
  if (runtime::counting_compiled()) {
    EXPECT_TRUE(reg.has("sor_thread_allocs"));
    EXPECT_TRUE(reg.has("sor_thread_frees"));
    EXPECT_TRUE(reg.has("sor_thread_alloc_bytes"));
  } else {
    // counting_compiled() == false => AllocCounters read vacuous zeros;
    // the registry must not publish them as measurements.
    const runtime::AllocCounters tc = runtime::thread_counters();
    EXPECT_EQ(tc.allocs, 0u);
    EXPECT_EQ(tc.alloc_bytes, 0u);
    EXPECT_FALSE(reg.has("sor_thread_allocs"));
    EXPECT_FALSE(reg.has("sor_thread_frees"));
    EXPECT_FALSE(reg.has("sor_thread_alloc_bytes"));
  }
  // RSS follows the same discipline: published iff measurable.
  if (engine.mem_stats().rss_bytes > 0) {
    EXPECT_TRUE(reg.has("sor_rss_bytes"));
  } else {
    EXPECT_FALSE(reg.has("sor_rss_bytes"));
  }
}

TEST(Metrics, ServiceCountersResetZeroesEverything) {
  obs::ServiceCounters& c = obs::service_counters();
  c.routes_served.fetch_add(3, std::memory_order_relaxed);
  c.route_ms.observe_ms(1.0);
  c.reset();
  EXPECT_EQ(c.routes_served.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(c.route_ms.count(), 0u);
}

// ---- service-counter bumps on the serving paths -------------------------

TEST(ServiceCounters, FaultFiresAreCounted) {
  obs::service_counters().reset();
  auto parsed = fault::FaultPlan::parse("worker_throw@2");
  ASSERT_TRUE(parsed.has_value());
  fault::FaultPlan plan = *parsed;
  EXPECT_FALSE(plan.fires(fault::Site::kWorkerThrow, 0));
  EXPECT_TRUE(plan.fires(fault::Site::kWorkerThrow, 1));
  EXPECT_EQ(
      obs::service_counters().fault_fires.load(std::memory_order_relaxed),
      1u);
}

TEST(ServiceCounters, WarmHitsAndRoundsSavedAreCounted) {
  obs::service_counters().reset();
  const Demand d = small_demand();
  SorEngine engine = make_engine();
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec warm_spec;
  warm_spec.warm_start = true;
  engine.route(d, warm_spec);  // cold capture
  EXPECT_EQ(
      obs::service_counters().warm_hits.load(std::memory_order_relaxed), 0u);
  engine.route(d, warm_spec);  // bit-identical instance => replay hit
  obs::ServiceCounters& c = obs::service_counters();
  EXPECT_EQ(c.warm_hits.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(c.routes_served.load(std::memory_order_relaxed), 2u);
}

TEST(ServiceCounters, BatchCountsDemandsAndFailures) {
  obs::service_counters().reset();
  SorEngine engine = make_engine();
  std::vector<Demand> demands = {small_demand(), small_demand()};
  engine.install_paths(SamplingSpec::for_demands(demands, 3));
  engine.route_batch(demands, RouteSpec{});
  obs::ServiceCounters& c = obs::service_counters();
  EXPECT_EQ(c.batches.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(c.batch_demands.load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(c.batch_failed.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace sor

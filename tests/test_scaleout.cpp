// The scale-out routing layer (src/scale/, api/sor_engine.h route_batch):
// streaming ingestion, pre-solve aggregation, and the thread count must all
// be NUMERICALLY INVISIBLE — every mode knob is a memory/wall-clock
// decision whose outputs are bit-identical to the plain serial batch.
// Plus the demand-stream text reader (src/io/demand_stream.h): malformed
// files fail loudly with line numbers, well-formed ones round-trip.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/sor_engine.h"
#include "graph/generators.h"
#include "io/demand_stream.h"
#include "scale/demand_source.h"
#include "scenario/scenario.h"

namespace sor {
namespace {

/// A batch with exact duplicates: `distinct` demands, each repeated
/// `copies` times, interleaved so duplicates are non-adjacent.
std::vector<Demand> duplicated_batch(int n, int distinct, int copies,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Demand> unique;
  for (int i = 0; i < distinct; ++i) {
    unique.push_back(gen::random_pairs_demand(n, 3, rng));
  }
  std::vector<Demand> batch;
  for (int c = 0; c < copies; ++c) {
    for (const Demand& d : unique) batch.push_back(d);
  }
  return batch;
}

SorEngine engine_for(const std::vector<Demand>& demands, int threads,
                     std::uint64_t seed = 99) {
  SorEngine engine =
      SorEngine::build(gen::hypercube(4), "racke:num_trees=4", seed, threads);
  engine.install_paths(SamplingSpec::for_demands(demands, 3));
  return engine;
}

void expect_same_report(const RouteReport& a, const RouteReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.congestion, b.congestion) << what;
  EXPECT_EQ(a.solution.edge_load, b.solution.edge_load) << what;
  EXPECT_EQ(a.solution.weights, b.solution.weights) << what;
  EXPECT_EQ(a.opt_lower_bound, b.opt_lower_bound) << what;
  EXPECT_EQ(a.competitive_ratio, b.competitive_ratio) << what;
}

/// Bit-identity of everything route_batch promises to be mode-invariant
/// (not the timing fields, and reports only when both sides kept them).
void expect_same_batch(const BatchReport& a, const BatchReport& b,
                       const std::string& what) {
  EXPECT_EQ(a.num_demands, b.num_demands) << what;
  EXPECT_EQ(a.num_groups, b.num_groups) << what;
  EXPECT_EQ(a.max_congestion, b.max_congestion) << what;
  EXPECT_EQ(a.max_competitive_ratio, b.max_competitive_ratio) << what;
  EXPECT_EQ(a.global_edge_load, b.global_edge_load) << what;
  EXPECT_EQ(a.global_congestion, b.global_congestion) << what;
  if (!a.reports.empty() && !b.reports.empty()) {
    ASSERT_EQ(a.reports.size(), b.reports.size()) << what;
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
      expect_same_report(a.reports[i], b.reports[i],
                         what + " demand " + std::to_string(i));
    }
  }
}

// The span overload is a thin adapter: routing through an explicit
// SpanDemandSource must reproduce it bit for bit, reports included.
TEST(ScaleOut, SpanAdapterMatchesDemandSourceBitForBit) {
  const auto demands = duplicated_batch(16, 4, 2, 7);
  SorEngine a = engine_for(demands, 1);
  const BatchReport via_span = a.route_batch(demands);

  SorEngine b = engine_for(demands, 1);
  scale::SpanDemandSource source(demands);
  const BatchReport via_source = b.route_batch(source, {}, BatchSpec{});

  expect_same_batch(via_span, via_source, "span vs source");
  ASSERT_EQ(via_source.reports.size(), demands.size());
}

// Aggregation coalesces duplicates into weighted groups and de-aggregates
// per-demand reports — all outputs bit-identical to the raw batch.
TEST(ScaleOut, AggregationEquivalence) {
  const auto demands = duplicated_batch(16, 5, 3, 11);
  SorEngine raw_engine = engine_for(demands, 1);
  const BatchReport raw = raw_engine.route_batch(demands);
  EXPECT_EQ(raw.num_groups, 5u);
  EXPECT_EQ(raw.num_demands, demands.size());

  SorEngine agg_engine = engine_for(demands, 1);
  scale::SpanDemandSource source(demands);
  BatchSpec spec;
  spec.aggregate_duplicates = true;
  const BatchReport agg = agg_engine.route_batch(source, {}, spec);
  EXPECT_EQ(agg.num_groups, 5u);
  ASSERT_EQ(agg.reports.size(), demands.size());
  expect_same_batch(raw, agg, "raw vs aggregated");
}

// Aggregate-only mode retains no per-demand reports; the aggregate
// outputs still match the raw batch exactly.
TEST(ScaleOut, AggregateOnlyModeDropsReportsKeepsGlobals) {
  const auto demands = duplicated_batch(16, 4, 4, 3);
  SorEngine raw_engine = engine_for(demands, 1);
  const BatchReport raw = raw_engine.route_batch(demands);

  SorEngine lean_engine = engine_for(demands, 1);
  scale::SpanDemandSource source(demands);
  BatchSpec spec;
  spec.aggregate_duplicates = true;
  spec.keep_reports = false;
  const BatchReport lean = lean_engine.route_batch(source, {}, spec);
  EXPECT_TRUE(lean.reports.empty());
  expect_same_batch(raw, lean, "raw vs aggregate-only");
  EXPECT_GT(lean.global_congestion, 0.0);
}

// The headline invariance: every thread count in {1,2,4}, with and without
// aggregation, produces the identical BatchReport.
TEST(ScaleOut, ShardAndThreadCountInvariance) {
  const auto demands = duplicated_batch(16, 6, 2, 17);
  SorEngine reference_engine = engine_for(demands, 1);
  const BatchReport reference = reference_engine.route_batch(demands);
  ASSERT_GT(reference.global_congestion, 0.0);

  for (int threads : {1, 2, 4}) {
    for (bool aggregate : {false, true}) {
      SorEngine engine = engine_for(demands, threads);
      scale::SpanDemandSource source(demands);
      BatchSpec spec;
      spec.aggregate_duplicates = aggregate;
      const BatchReport run = engine.route_batch(source, {}, spec);
      expect_same_batch(reference, run,
                        "threads=" + std::to_string(threads) +
                            " agg=" + std::to_string(aggregate));
    }
  }
}

// A flat (s, t, value) feed through EntrySpanDemandSource: every entry is
// one demand, duplicates aggregate, and the global load equals the raw
// per-demand batch's.
TEST(ScaleOut, EntryFeedAggregatesDuplicates) {
  std::vector<DemandEntry> feed;
  for (int rep = 0; rep < 5; ++rep) {
    feed.push_back({0, 9, 1.0});
    feed.push_back({3, 12, 2.0});
    feed.push_back({0, 9, 1.0});  // 10 copies of (0,9,1.0) total
  }
  std::vector<Demand> as_demands;
  for (const DemandEntry& e : feed) {
    Demand d;
    d.set(e.s, e.t, e.value);
    as_demands.push_back(d);
  }
  SorEngine raw_engine = engine_for(as_demands, 1);
  const BatchReport raw = raw_engine.route_batch(as_demands);

  SorEngine agg_engine = engine_for(as_demands, 1);
  scale::EntrySpanDemandSource source(feed);
  BatchSpec spec;
  spec.aggregate_duplicates = true;
  spec.keep_reports = false;
  const BatchReport agg = agg_engine.route_batch(source, {}, spec);
  EXPECT_EQ(agg.num_demands, feed.size());
  EXPECT_EQ(agg.num_groups, 2u);
  expect_same_batch(raw, agg, "entry feed");
}

TEST(ScaleOut, InvalidSpecsAreRejected) {
  const auto demands = duplicated_batch(16, 2, 2, 1);
  SorEngine engine = engine_for(demands, 1);
  scale::SpanDemandSource s2(demands);
  BatchSpec raw_no_reports;
  raw_no_reports.keep_reports = false;
  EXPECT_THROW(engine.route_batch(s2, {}, raw_no_reports),
               std::invalid_argument);
}

// Aggregation would break the input-order Rng stream mapping that rounding
// and packet simulation consume, so the combination must throw.
TEST(ScaleOut, AggregateRejectsRoundingAndSim) {
  const auto demands = duplicated_batch(16, 2, 2, 2);
  SorEngine engine = engine_for(demands, 1);
  BatchSpec agg;
  agg.aggregate_duplicates = true;
  RouteSpec rounding;
  rounding.round_integral = true;
  scale::SpanDemandSource s1(demands);
  EXPECT_THROW(engine.route_batch(s1, rounding, agg), std::invalid_argument);
  RouteSpec sim;
  sim.simulate_packets = true;
  scale::SpanDemandSource s2(demands);
  EXPECT_THROW(engine.route_batch(s2, sim, agg), std::invalid_argument);
}

// Streaming ingest still validates the WHOLE batch before any routing:
// an uninstalled pair or a malformed entry anywhere in the stream throws.
TEST(ScaleOut, ValidatesStreamBeforeRouting) {
  Demand installed;
  installed.set(0, 7, 1.0);
  SorEngine engine =
      SorEngine::build(gen::hypercube(3), "valiant", 1, 1);
  engine.install_paths(SamplingSpec::for_demand(installed, 2));

  Demand missing;
  missing.set(1, 6, 1.0);
  const std::vector<Demand> bad_pair = {installed, missing};
  scale::SpanDemandSource s1(bad_pair);
  EXPECT_THROW(engine.route_batch(s1, {}, BatchSpec{}), std::invalid_argument);

  const std::vector<DemandEntry> unsorted = {{0, 7, 1.0}, {0, 7, 1.0}};
  std::vector<DemandEntry> one = unsorted;
  class TwoEntrySource final : public scale::DemandSource {
   public:
    explicit TwoEntrySource(std::span<const DemandEntry> e) : entries_(e) {}
    bool next(std::span<const DemandEntry>& out) override {
      if (done_) return false;
      done_ = true;
      out = entries_;
      return true;
    }

   private:
    std::span<const DemandEntry> entries_;
    bool done_ = false;
  };
  TwoEntrySource dup(one);  // duplicate pair: not strictly increasing
  EXPECT_THROW(engine.route_batch(dup, {}, BatchSpec{}),
               std::invalid_argument);

  const std::vector<DemandEntry> self = {{3, 3, 1.0}};
  scale::EntrySpanDemandSource s3(self);
  EXPECT_THROW(engine.route_batch(s3, {}, BatchSpec{}),
               std::invalid_argument);

  const std::vector<DemandEntry> nonpos = {{0, 7, 0.0}};
  scale::EntrySpanDemandSource s4(nonpos);
  EXPECT_THROW(engine.route_batch(s4, {}, BatchSpec{}),
               std::invalid_argument);
}

// EpochDemandSource streams the trace's demands lazily — entry lists must
// equal generate_trace()'s, epoch for epoch.
TEST(ScaleOut, EpochSourceMatchesTrace) {
  scenario::ScenarioSpec spec;
  spec.topology = "torus";
  spec.size = 5;
  spec.seed = 31;
  spec.epochs = 6;
  spec.model = *scenario::TrafficModelSpec::parse(
      "diurnal_gravity:total=32,amplitude=0.5,period=3,max_pairs=24");

  const Graph g = scenario::make_scenario_graph(spec);
  const scenario::ScenarioTrace trace = scenario::generate_trace(g, spec);
  ASSERT_EQ(trace.demands.size(), 6u);

  scenario::EpochDemandSource source(g, spec);
  std::vector<DemandEntry> expected;
  std::span<const DemandEntry> pulled;
  for (std::size_t e = 0; e < trace.demands.size(); ++e) {
    ASSERT_TRUE(source.next(pulled)) << "epoch " << e;
    trace.demands[e].entries_into(expected);
    ASSERT_EQ(pulled.size(), expected.size()) << "epoch " << e;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(pulled[i], expected[i]) << "epoch " << e << " entry " << i;
    }
  }
  EXPECT_FALSE(source.next(pulled));
  EXPECT_EQ(source.epochs_pulled(), 6);
}

/// bench_m6's notion of scenario-report identity (non-timing fields).
bool scenario_reports_identical(const scenario::ScenarioReport& a,
                                const scenario::ScenarioReport& b) {
  if (a.epochs.size() != b.epochs.size() || a.reinstalls != b.reinstalls) {
    return false;
  }
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const scenario::EpochReport& x = a.epochs[i];
    const scenario::EpochReport& y = b.epochs[i];
    if (x.reinstalled != y.reinstalled || x.support != y.support ||
        x.offered != y.offered || x.routed != y.routed ||
        x.coverage != y.coverage || x.congestion != y.congestion ||
        x.ratio != y.ratio || x.installed_pairs != y.installed_pairs ||
        x.installed_paths != y.installed_paths) {
      return false;
    }
  }
  return true;
}

// run_scenario_jobs fans whole scenarios across workers; results must be
// bit-identical to running each job alone, whatever the fan-out width or
// per-job engine width.
TEST(ScaleOut, ScenarioFanOutMatchesSerial) {
  scenario::ScenarioSpec base;
  base.topology = "torus";
  base.size = 5;
  base.backend = "racke:num_trees=4";
  base.seed = 41;
  base.epochs = 4;
  base.measure_ratio = false;
  base.model = *scenario::TrafficModelSpec::parse(
      "diurnal_gravity:total=32,amplitude=0.5,period=2,max_pairs=24");

  std::vector<scenario::ScenarioJob> jobs;
  for (const char* policy : {"never", "every_k:2", "on_link_event"}) {
    scenario::ScenarioJob job;
    job.spec = base;
    job.spec.reinstall = *scenario::ReinstallPolicy::parse(policy);
    jobs.push_back(job);
  }
  jobs[1].engine_threads = 2;  // mixed engine widths must not matter

  const std::vector<scenario::ScenarioReport> fanned =
      scenario::run_scenario_jobs(jobs, /*threads=*/3);
  ASSERT_EQ(fanned.size(), jobs.size());

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SorEngine engine = scenario::build_scenario_engine(jobs[j].spec);
    const scenario::ScenarioTrace trace =
        scenario::generate_trace(engine.graph(), jobs[j].spec);
    const scenario::ScenarioReport alone =
        scenario::run_scenario(engine, jobs[j].spec, trace);
    EXPECT_TRUE(scenario_reports_identical(alone, fanned[j])) << "job " << j;
  }
}

// ---- demand-stream reader ----------------------------------------------

TEST(DemandStream, RoundTrips) {
  std::istringstream in(
      "# demo stream\n"
      "\n"
      "2 5 0.5  0 3 1.5   # entries in any order; sorted on the way out\n"
      "1 4 2\n");
  io::DemandTextSource source(in);

  std::span<const DemandEntry> entries;
  ASSERT_TRUE(source.next(entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (DemandEntry{0, 3, 1.5}));
  EXPECT_EQ(entries[1], (DemandEntry{2, 5, 0.5}));
  ASSERT_TRUE(source.next(entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], (DemandEntry{1, 4, 2.0}));
  EXPECT_FALSE(source.next(entries));
}

TEST(DemandStream, StreamedFileRoutesLikeTheSpanBatch) {
  std::vector<Demand> demands;
  {
    Demand d;
    d.set(0, 9, 1.0);
    d.set(3, 12, 0.5);
    demands.push_back(d);
  }
  {
    Demand d;
    d.set(2, 13, 2.0);
    demands.push_back(d);
  }
  SorEngine span_engine = engine_for(demands, 1);
  const BatchReport via_span = span_engine.route_batch(demands);

  std::istringstream in("0 9 1  3 12 0.5\n2 13 2\n");
  io::DemandTextSource source(in);
  SorEngine stream_engine = engine_for(demands, 1);
  const BatchReport via_stream = stream_engine.route_batch(source, {}, {});
  expect_same_batch(via_span, via_stream, "file stream vs span");
}

TEST(DemandStream, MalformedInputRejectedWithLineNumbers) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"0 3\n", "line 1"},                        // dangling pair
      {"0 3 1.5 7\n", "line 1"},                  // dangling vertex
      {"# c\n0 3 x\n", "line 2"},                 // non-numeric value
      {"0 3 1.5\nzzz\n", "line 2"},               // non-numeric line
      {"5 5 1\n", "self-pair"},                   // s == t
      {"-1 3 1\n", "negative"},                   // negative vertex
      {"0 3 0\n", "> 0"},                         // non-positive value
      {"0 3 1 0 3 2\n", "duplicate pair"},        // duplicate within demand
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    io::DemandTextSource source(in);
    std::span<const DemandEntry> entries;
    try {
      while (source.next(entries)) {
      }
      FAIL() << "accepted: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what() << " for " << c.text;
    }
  }
}

TEST(DemandStream, MissingFileThrows) {
  EXPECT_THROW(io::FileDemandSource("/nonexistent/demands.txt"),
               std::invalid_argument);
}

}  // namespace
}  // namespace sor

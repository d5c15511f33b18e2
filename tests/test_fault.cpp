// Robustness layer (src/fault/, the solve's limits, BatchSpec::on_error,
// scenario DegradePolicy): deterministic fault injection must be a pure
// function of the plan, a solve stopped by any limit must return the
// iterate it stopped at with a valid certificate, a deadline that never
// trips must be bit-identical to none, and graceful
// degradation must fold zero load for failed work while leaving every
// surviving output bit-identical across threads and modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <limits>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/semi_oblivious.h"
#include "fault/fault_plan.h"
#include "fault/sor_error.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "io/demand_stream.h"
#include "lp/hop_bounded.h"
#include "io/scenario_io.h"
#include "io/serialization.h"
#include "lp/min_congestion.h"
#include "obs/convergence.h"
#include "scale/demand_source.h"
#include "scenario/scenario.h"

namespace sor {
namespace {

/// Installs a process-global FaultPlan for the test's scope and always
/// clears it on exit, so suites cannot leak plans into each other.
class GlobalPlanGuard {
 public:
  explicit GlobalPlanGuard(const std::string& spec) { reset(spec); }
  ~GlobalPlanGuard() { fault::set_global_plan(nullptr); }

  /// Re-installs a FRESH plan (fire_next counters rewound) — required
  /// before every repeated run that uses counter-based sites.
  void reset(const std::string& spec) {
    auto plan = fault::FaultPlan::parse(spec);
    ASSERT_TRUE(plan.has_value()) << spec;
    fault::set_global_plan(std::make_shared<fault::FaultPlan>(*plan));
  }
};

std::shared_ptr<fault::FaultPlan> plan_or_die(const std::string& spec) {
  auto plan = fault::FaultPlan::parse(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  return std::make_shared<fault::FaultPlan>(*plan);
}

std::string temp_file(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

// ---- FaultPlan ----------------------------------------------------------

TEST(FaultPlan, ParseAndDeterministicTriggers) {
  const auto plan = fault::FaultPlan::parse(
      "seed=7;worker_throw@3;stream_read%100;install~0.5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->covers(fault::Site::kWorkerThrow));
  EXPECT_TRUE(plan->covers(fault::Site::kStreamRead));
  EXPECT_TRUE(plan->covers(fault::Site::kInstall));
  EXPECT_FALSE(plan->covers(fault::Site::kEdgeCapacity));
  EXPECT_FALSE(plan->empty());

  // @3 fires exactly at the third occurrence (index 2), nowhere else.
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(plan->fires(fault::Site::kWorkerThrow, i), i == 2) << i;
  }
  // %100 fires at every 100th occurrence.
  EXPECT_TRUE(plan->fires(fault::Site::kStreamRead, 99));
  EXPECT_TRUE(plan->fires(fault::Site::kStreamRead, 199));
  EXPECT_FALSE(plan->fires(fault::Site::kStreamRead, 100));

  // ~0.5 is a pure function of (seed, site, index): a second parse of the
  // same spec agrees everywhere, and the rate lands near one half.
  const auto again = fault::FaultPlan::parse(
      "seed=7;worker_throw@3;stream_read%100;install~0.5");
  ASSERT_TRUE(again.has_value());
  int hits = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const bool fire = plan->fires(fault::Site::kInstall, i);
    EXPECT_EQ(fire, again->fires(fault::Site::kInstall, i)) << i;
    hits += fire ? 1 : 0;
  }
  EXPECT_GT(hits, 350);
  EXPECT_LT(hits, 650);

  // A different seed gives a different probabilistic pattern.
  const auto reseeded = fault::FaultPlan::parse("seed=8;install~0.5");
  ASSERT_TRUE(reseeded.has_value());
  bool differs = false;
  for (std::uint64_t i = 0; i < 200 && !differs; ++i) {
    differs = plan->fires(fault::Site::kInstall, i) !=
              reseeded->fires(fault::Site::kInstall, i);
  }
  EXPECT_TRUE(differs);

  // to_string -> parse round-trips the rules.
  const auto round = fault::FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->to_string(), plan->to_string());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(fault::FaultPlan::parse("bogus_site@1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("worker_throw@0").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("worker_throw~1.5").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("worker_throw~-0.1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("worker_throw").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("worker_throw@").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("seed=x;worker_throw@1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("@3").has_value());
  // Empty plan is legal (no rules, never fires).
  const auto empty = fault::FaultPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(empty->fires(fault::Site::kWorkerThrow, 0));
}

TEST(FaultPlan, FireNextAdvancesSerially) {
  auto plan = plan_or_die("scratch_alloc%3");
  // fire_next counts occurrences per site: 3rd and 6th calls fire.
  EXPECT_FALSE(plan->fire_next(fault::Site::kScratchAlloc));
  EXPECT_FALSE(plan->fire_next(fault::Site::kScratchAlloc));
  EXPECT_TRUE(plan->fire_next(fault::Site::kScratchAlloc));
  EXPECT_FALSE(plan->fire_next(fault::Site::kScratchAlloc));
  EXPECT_FALSE(plan->fire_next(fault::Site::kScratchAlloc));
  EXPECT_TRUE(plan->fire_next(fault::Site::kScratchAlloc));
  // Other sites keep independent counters.
  EXPECT_FALSE(plan->fire_next(fault::Site::kInstall));
}

TEST(FaultPlan, GlobalPlanInstallAndClear) {
  fault::set_global_plan(nullptr);
  EXPECT_EQ(fault::global_plan(), nullptr);
  {
    GlobalPlanGuard guard("worker_throw@1");
    ASSERT_NE(fault::global_plan(), nullptr);
    EXPECT_TRUE(fault::global_plan()->covers(fault::Site::kWorkerThrow));
  }
  EXPECT_EQ(fault::global_plan(), nullptr);
}

// ---- AnytimeSolve -------------------------------------------------------

/// A small instance with real path choice: 4x4 wrapped grid, `count`
/// commodities (6 by default) over up to 2 candidate paths each.
struct RestrictedInstance {
  Graph g = gen::grid(4, 4, /*wrap=*/true);
  std::vector<Commodity> commodities;
  std::vector<std::vector<Path>> candidates;

  explicit RestrictedInstance(int count = 6, std::uint64_t seed = 17) {
    Rng rng(seed);
    for (int j = 0; j < count; ++j) {
      const int s = rng.uniform_int(0, 15);
      int t = rng.uniform_int(0, 15);
      while (t == s) t = rng.uniform_int(0, 15);
      commodities.push_back({s, t, 1.0 + static_cast<double>(j)});
      // Two candidates: the hop-shortest path and a detour through a
      // random intermediate vertex.
      std::vector<Path> cands;
      cands.push_back(shortest_path_hops(g, s, t));
      int mid = rng.uniform_int(0, 15);
      while (mid == s || mid == t) mid = rng.uniform_int(0, 15);
      Path via = shortest_path_hops(g, s, mid);
      const Path tail = shortest_path_hops(g, mid, t);
      via.insert(via.end(), tail.begin() + 1, tail.end());
      // Deduplicate revisits crudely: only keep the detour when simple.
      bool simple = true;
      for (std::size_t a = 0; a < via.size() && simple; ++a) {
        for (std::size_t b = a + 1; b < via.size(); ++b) {
          if (via[a] == via[b]) {
            simple = false;
            break;
          }
        }
      }
      if (simple) cands.push_back(via);
      candidates.push_back(std::move(cands));
    }
  }
};

void expect_certificate(const CongestionResult& r) {
  EXPECT_GT(r.lower_bound, 0.0);
  EXPECT_LE(r.lower_bound, r.congestion + 1e-12);
  EXPECT_GE(r.optimality_gap, 0.0);
  // lower * (1 + gap) == congestion by construction of the certificate.
  EXPECT_NEAR(r.lower_bound * (1.0 + r.optimality_gap), r.congestion,
              1e-9 * std::max(1.0, r.congestion));
}

TEST(AnytimeSolve, UntriggeredBudgetIsBitIdenticalRestricted) {
  RestrictedInstance inst;
  MinCongestionOptions plain;
  plain.target_gap = 0.0;  // never met: every checkpoint is passed
  const CongestionResult base =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates,
                                plain);

  EXPECT_EQ(base.rounds_used, plain.rounds);

  MinCongestionOptions idle = plain;
  idle.deadline_ms = 1e9;  // read at every checkpoint, never reached
  const CongestionResult same =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates,
                                idle);
  EXPECT_EQ(base.congestion, same.congestion);
  EXPECT_EQ(base.edge_load, same.edge_load);
  EXPECT_EQ(base.path_weights, same.path_weights);
  EXPECT_EQ(base.lower_bound, same.lower_bound);
  EXPECT_EQ(base.rounds_used, same.rounds_used);
  EXPECT_EQ(base.status, same.status);
  EXPECT_EQ(base.optimality_gap, same.optimality_gap);
}

/// The instance's commodities as a Demand (a repeated pair adds up).
Demand demand_of(const RestrictedInstance& inst) {
  Demand d;
  for (const Commodity& c : inst.commodities) d.add(c.s, c.t, c.amount);
  return d;
}

TEST(AnytimeSolve, UntriggeredBudgetIsBitIdenticalFree) {
  RestrictedInstance inst;
  const Demand d = demand_of(inst);
  MinCongestionOptions plain;
  plain.target_gap = 0.0;
  OptimumScratch base_scratch;
  const OptimalCongestion base =
      optimal_congestion(inst.g, d, plain, base_scratch);
  EXPECT_EQ(base_scratch.result.rounds_used, plain.rounds);
  MinCongestionOptions idle = plain;
  idle.deadline_ms = 1e9;
  OptimumScratch same_scratch;
  const OptimalCongestion same =
      optimal_congestion(inst.g, d, idle, same_scratch);
  EXPECT_EQ(base.upper, same.upper);
  EXPECT_EQ(base.lower, same.lower);
  EXPECT_EQ(base.status, same.status);
  const CongestionResult& a = base_scratch.result;
  const CongestionResult& b = same_scratch.result;
  EXPECT_EQ(a.edge_load, b.edge_load);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.optimality_gap, b.optimality_gap);
}

TEST(AnytimeSolve, RoundBudgetIsSeedExactWithValidCertificateRestricted) {
  RestrictedInstance inst;
  const FlatCandidates flat = flatten_candidates(inst.g, inst.candidates);
  MinCongestionOptions options;
  options.rounds = 8;
  MinCongestionScratch scratch;
  std::vector<obs::ConvergenceRecord> capped_records;
  obs::ConvergenceSink capped_sink(capped_records);
  CongestionResult a;
  min_congestion_over_paths_into(inst.g, inst.commodities, flat, options,
                                 {.sink = &capped_sink}, scratch, a);
  // Running out of rounds is the plain completion of a capped solve.
  EXPECT_EQ(a.status, SolveStatus::kCompleted);
  EXPECT_EQ(a.rounds_used, 8);
  expect_certificate(a);

  // Seed-exact: a repeat run is bitwise identical.
  const CongestionResult b =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates,
                                options);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.edge_load, b.edge_load);
  EXPECT_EQ(a.path_weights, b.path_weights);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.optimality_gap, b.optimality_gap);

  // The cap truncates the full solve's trajectory: its rounds are the
  // full solve's first 8, bit for bit; its congestion is no better and
  // its dual bound can only be looser.
  std::vector<obs::ConvergenceRecord> full_records;
  obs::ConvergenceSink full_sink(full_records);
  CongestionResult full;
  min_congestion_over_paths_into(inst.g, inst.commodities, flat, {},
                                 {.sink = &full_sink}, scratch, full);
  ASSERT_GT(full_records.size(), capped_records.size());
  for (std::size_t r = 0; r < capped_records.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "round " << r + 1);
    const obs::ConvergenceRecord& x = capped_records[r];
    const obs::ConvergenceRecord& y = full_records[r];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.congestion),
              std::bit_cast<std::uint64_t>(y.congestion));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.best_lower),
              std::bit_cast<std::uint64_t>(y.best_lower));
  }
  EXPECT_EQ(a.lower_bound, capped_records.back().best_lower);
  EXPECT_GE(a.congestion, full.congestion - 1e-12);
  EXPECT_LE(a.lower_bound, full.lower_bound);
}

TEST(AnytimeSolve, RoundBudgetIsSeedExactWithValidCertificateFree) {
  // The round cap applies to each master solve of the column generation,
  // the final one included.
  RestrictedInstance inst;
  const Demand d = demand_of(inst);
  MinCongestionOptions options;
  options.rounds = 8;
  OptimumScratch sa;
  const OptimalCongestion a = optimal_congestion(inst.g, d, options, sa);
  EXPECT_EQ(a.status, SolveStatus::kCompleted);
  EXPECT_EQ(sa.result.rounds_used, 8);
  expect_certificate(sa.result);
  EXPECT_LE(a.lower, a.upper);
  OptimumScratch sb;
  const OptimalCongestion b = optimal_congestion(inst.g, d, options, sb);
  EXPECT_EQ(a.upper, b.upper);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(sa.result.edge_load, sb.result.edge_load);
}

/// Checks the early-exit rule against a sink's trajectory: the solve, cold
/// or seeded, must stop at exactly the first round whose record has
/// congestion <= best_lower * gap, or run all rounds when none does.
/// Returns whether the target was reached.
bool expect_stop_rule(const CongestionResult& r,
                      const std::vector<obs::ConvergenceRecord>& records,
                      const MinCongestionOptions& options) {
  int first_met = 0;
  for (const obs::ConvergenceRecord& rec : records) {
    if (rec.best_lower > 0.0 &&
        rec.congestion <= rec.best_lower * options.target_gap) {
      first_met = rec.round;
      break;
    }
  }
  EXPECT_EQ(records.size(), static_cast<std::size_t>(r.rounds_used));
  if (first_met == 0) {
    EXPECT_EQ(r.status, SolveStatus::kCompleted);
    EXPECT_EQ(r.rounds_used, options.rounds);
    return false;
  }
  EXPECT_EQ(r.status, SolveStatus::kTargetReached);
  EXPECT_EQ(r.rounds_used, first_met);
  return true;
}

TEST(AnytimeSolve, TargetGapStopsEarlyWithMetCertificate) {
  RestrictedInstance inst;
  const CongestionResult full =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates);
  MinCongestionOptions options;
  options.target_gap = 10.0;  // bar: within 10x of the dual bound
  const CongestionResult early =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates,
                                options);
  EXPECT_EQ(early.status, SolveStatus::kTargetReached);
  EXPECT_LE(early.rounds_used, full.rounds_used);
  expect_certificate(early);
  EXPECT_LE(early.congestion, early.lower_bound * 10.0 + 1e-9);

  // The stop round across bars: cold, and warm-seeded with an uneven split
  // over every commodity's candidates (edges no candidate uses keep zero
  // load). Both may stop from round 1.
  const FlatCandidates flat = flatten_candidates(inst.g, inst.candidates);
  std::vector<std::vector<double>> warm;
  for (std::size_t j = 0; j < inst.commodities.size(); ++j) {
    warm.emplace_back();
    for (std::size_t i = 0; i < flat.num_paths(j); ++i) {
      warm.back().push_back(0.2 + 0.1 * static_cast<double>((i + j) % 3));
    }
  }
  MinCongestionScratch scratch;
  CongestionResult r;
  std::vector<obs::ConvergenceRecord> records;
  int reached = 0;
  int reached_late = 0;  // stops past round 1
  int cold_stop = 0;     // the earliest round a cold solve stopped at
  for (const double gap : {10.0, 1.5, 1.2, 1.05}) {
    SCOPED_TRACE(testing::Message() << "gap " << gap);
    MinCongestionOptions o;
    o.target_gap = gap;
    for (const bool seeded : {false, true}) {
      obs::ConvergenceSink sink(records);
      MwuHooks hooks;
      hooks.sink = &sink;
      if (seeded) hooks.warm = &warm;
      min_congestion_over_paths_into(inst.g, inst.commodities, flat, o, hooks,
                                     scratch, r);
      if (seeded) {
        EXPECT_TRUE(std::count(r.edge_load.begin(), r.edge_load.end(), 0.0) >
                    0);
      }
      if (expect_stop_rule(r, records, o)) {
        ++reached;
        if (r.rounds_used > 1) ++reached_late;
        if (!seeded && (cold_stop == 0 || r.rounds_used < cold_stop)) {
          cold_stop = r.rounds_used;
        }
      }
    }
  }
  EXPECT_GE(reached, 6);
  EXPECT_GE(reached_late, 1);
  // Cold solves certify early on this instance, and stop there.
  EXPECT_GT(cold_stop, 0);
  EXPECT_LT(cold_stop, 50);
}

TEST(AnytimeSolve, DeadlineBudgetStopsAtACheckpoint) {
  RestrictedInstance inst;
  MinCongestionOptions options;
  options.target_gap = 0.0;  // never met, so only the deadline stops it
  options.deadline_ms = 1e-9;  // elapses before the first checkpoint
  const CongestionResult r =
      min_congestion_over_paths(inst.g, inst.commodities, inst.candidates,
                                options);
  EXPECT_EQ(r.status, SolveStatus::kBudgetDeadline);
  // The clock is only consulted every kDeadlineCheckRounds rounds, so the
  // stop lands on the first checkpoint.
  EXPECT_LE(r.rounds_used, kDeadlineCheckRounds);
  expect_certificate(r);
}

/// Reads 0 at the solve's start and at every checkpoint before the
/// `trip`-th, and past any deadline from then on.
class CheckpointClock final : public SolveClock {
 public:
  explicit CheckpointClock(int trip) : trip_(trip) {}
  double now_ms() override { return reads_++ < trip_ ? 0.0 : 1e9; }

 private:
  int trip_;
  int reads_ = 0;
};

TEST(AnytimeSolve, InjectedClockDeadlineIsTheRoundBudgetPrefix) {
  // Time is passed in: a deadline that trips at the k-th checkpoint stops
  // after 16 * k rounds and returns, bit for bit, what a 16 * k round cap
  // returns: both stop one trajectory at the same round and return its
  // iterate. On this instance the iterate of round 16 and of round 48 is
  // not the best one seen, so a stop that rewound to it would not match.
  RestrictedInstance inst(/*count=*/10, /*seed=*/1);
  const FlatCandidates flat = flatten_candidates(inst.g, inst.candidates);
  MinCongestionScratch scratch;
  for (const int k : {1, 3, 5}) {
    SCOPED_TRACE(testing::Message() << "checkpoint " << k);
    MinCongestionOptions timed;
    timed.target_gap = 0.0;  // never met: no target exit before the deadline
    timed.deadline_ms = 1.0;
    CheckpointClock clock(k);
    MwuHooks hooks;
    hooks.clock = &clock;
    CongestionResult by_clock;
    min_congestion_over_paths_into(inst.g, inst.commodities, flat, timed,
                                   hooks, scratch, by_clock);
    EXPECT_EQ(by_clock.status, SolveStatus::kBudgetDeadline);
    EXPECT_EQ(by_clock.rounds_used, kDeadlineCheckRounds * k);

    MinCongestionOptions capped;
    capped.target_gap = 0.0;
    capped.rounds = kDeadlineCheckRounds * k;
    CongestionResult by_rounds;
    min_congestion_over_paths_into(inst.g, inst.commodities, flat, capped,
                                   {}, scratch, by_rounds);
    EXPECT_EQ(by_rounds.status, SolveStatus::kCompleted);
    EXPECT_EQ(by_rounds.rounds_used, by_clock.rounds_used);
    EXPECT_EQ(by_rounds.path_weights, by_clock.path_weights);
    EXPECT_EQ(by_rounds.edge_load, by_clock.edge_load);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(by_rounds.congestion),
              std::bit_cast<std::uint64_t>(by_clock.congestion));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(by_rounds.lower_bound),
              std::bit_cast<std::uint64_t>(by_clock.lower_bound));
  }
}

TEST(AnytimeSolve, EngineRouteThreadsBudgetAndReportsStatus) {
  const auto build = [] {
    SorEngine engine =
        SorEngine::build(gen::hypercube(4), "racke:num_trees=4", 5, 1);
    return engine;
  };
  Demand d;
  Rng rng(3);
  d = gen::random_permutation_demand(16, rng);

  SorEngine base_engine = build();
  base_engine.install_paths(SamplingSpec::for_demand(d, 3));
  const RouteReport base = base_engine.route(d);
  // No deadline: the solve ran to its round cap or its gap bar, past a
  // deadline checkpoint.
  EXPECT_TRUE(base.solution.status == SolveStatus::kCompleted ||
              base.solution.status == SolveStatus::kTargetReached);
  EXPECT_GE(base.solution.rounds_used, kDeadlineCheckRounds);

  // A deadline that never trips is bit-identical to none at all.
  SorEngine idle_engine = build();
  idle_engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec idle_spec;
  idle_spec.mwu.deadline_ms = 1e9;
  const RouteReport idle = idle_engine.route(d, idle_spec);
  EXPECT_EQ(base.congestion, idle.congestion);
  EXPECT_EQ(base.solution.edge_load, idle.solution.edge_load);
  EXPECT_EQ(base.solution.lower_bound, idle.solution.lower_bound);
  EXPECT_EQ(idle.solution.status, base.solution.status);

  // A binding round cap reports a completed solve of that many rounds and
  // a valid certified gap.
  SorEngine tight_engine = build();
  tight_engine.install_paths(SamplingSpec::for_demand(d, 3));
  RouteSpec tight_spec;
  tight_spec.mwu.rounds = 4;
  const RouteReport tight = tight_engine.route(d, tight_spec);
  EXPECT_EQ(tight.solution.status, SolveStatus::kCompleted);
  EXPECT_EQ(tight.solution.rounds_used, 4);
  EXPECT_GE(tight.solution.optimality_gap, 0.0);
  EXPECT_GE(tight.congestion, base.congestion - 1e-12);
  EXPECT_LE(tight.solution.lower_bound,
            tight.congestion + 1e-12);
}

TEST(AnytimeSolve, RoundCapBelowOneThrows) {
  // A solve of no rounds would route nothing and certify it (gap 0): the
  // route, the optimum and opt^(h) refuse such a cap instead. Hypercube(4)
  // with 3 units of demand.
  SorEngine engine =
      SorEngine::build(gen::hypercube(4), "racke:num_trees=4", 5, 1);
  Demand d;
  d.add(0, 15, 1.0);
  d.add(3, 12, 2.0);
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  std::vector<Commodity> commodities;
  d.commodities_into(commodities);
  for (const int rounds : {0, -1}) {
    SCOPED_TRACE(testing::Message() << "rounds " << rounds);
    RouteSpec spec;
    spec.mwu.rounds = rounds;
    EXPECT_THROW(engine.route(d, spec), std::invalid_argument);
    EXPECT_THROW(optimal_congestion(engine.graph(), d, spec.mwu),
                 std::invalid_argument);
    EXPECT_THROW(min_congestion_hop_bounded(engine.graph(), commodities,
                                            /*max_hops=*/4, spec.mwu),
                 std::invalid_argument);
  }
}

TEST(AnytimeSolve, BudgetParseAndToString) {
  const auto full = MinCongestionOptions::parse(
      "rounds=64,target_gap=1.5,deadline_ms=50", {});
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->rounds, 64);
  EXPECT_EQ(full->target_gap, 1.5);
  EXPECT_EQ(full->deadline_ms, 50.0);
  const auto round = MinCongestionOptions::parse(full->to_string(), {});
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, *full);
  // Shortest round-trip form: a value with no short decimal survives too.
  MinCongestionOptions odd;
  odd.deadline_ms = 0.1 + 0.2;
  EXPECT_EQ(MinCongestionOptions::parse(odd.to_string(), {}), odd);

  // Keys apply onto the base; the empty text is the base itself.
  const auto partial = MinCongestionOptions::parse("deadline_ms=2.5", *full);
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->rounds, 64);
  EXPECT_EQ(partial->target_gap, 1.5);
  EXPECT_EQ(partial->deadline_ms, 2.5);
  EXPECT_EQ(MinCongestionOptions::parse("", *full), full);
  EXPECT_EQ(MinCongestionOptions::parse("", {}), MinCongestionOptions{});
  // A bar below 1 is never met: the solve runs every round.
  EXPECT_EQ(MinCongestionOptions::parse("target_gap=0", {})->target_gap, 0.0);

  for (const char* bad :
       {"rounds=-1", "rounds=0", "rounds=8.5", "rounds=", "rounds",
        "target_gap=-0.5", "target_gap=inf", "deadline_ms=nope",
        "deadline_ms=nan", "deadline_ms=-1", "unknown=3", "max_rounds=8",
        "gap=1.1"}) {
    EXPECT_FALSE(MinCongestionOptions::parse(bad, {}).has_value()) << bad;
  }
}

// ---- FaultInjection -----------------------------------------------------

SorEngine small_engine(int threads = 1) {
  return SorEngine::build(gen::hypercube(4), "racke:num_trees=4", 9, threads);
}

TEST(FaultInjection, EdgeCapacityInjectionCorruptsIncomingValue) {
  SorEngine engine = small_engine();
  engine.set_fault_plan(plan_or_die("edge_capacity@1"));
  // Even edge id: the injection turns the incoming capacity into 0.
  try {
    engine.set_edge_capacity(0, 5.0);
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kBadCapacity);
    EXPECT_EQ(err.site(), "set_edge_capacity");
  }
  // Odd edge id: the injection turns it into NaN.
  SorEngine odd = small_engine();
  odd.set_fault_plan(plan_or_die("edge_capacity@1"));
  EXPECT_THROW(odd.set_edge_capacity(1, 5.0), SorError);
  // After the one-shot plan is exhausted, updates work again.
  engine.set_edge_capacity(0, 5.0);
  EXPECT_EQ(engine.graph().edge(0).capacity, 5.0);
}

TEST(FaultInjection, NonFiniteCapacityRejectedEverywhere) {
  SorEngine engine = small_engine();
  const double nan = std::nan("");
  EXPECT_THROW(engine.set_edge_capacity(0, nan), SorError);
  EXPECT_THROW(
      engine.set_edge_capacity(0, std::numeric_limits<double>::infinity()),
      SorError);
  EXPECT_THROW(engine.set_edge_capacity(0, 0.0), SorError);
  // SorError IS std::invalid_argument — legacy catch sites keep working.
  EXPECT_THROW(engine.set_edge_capacity(0, -1.0), std::invalid_argument);

  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.set_capacity(0, nan), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(0, 0.0), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(7, 1.0), std::invalid_argument);
  g.set_capacity(0, 2.0);
  EXPECT_EQ(g.edge(0).capacity, 2.0);
}

TEST(FaultInjection, InstallFaultFiresBeforeAnyMutation) {
  SorEngine engine = small_engine();
  Rng rng(4);
  const Demand d = gen::random_permutation_demand(16, rng);
  engine.set_fault_plan(plan_or_die("install@2"));
  engine.install_paths(SamplingSpec::for_demand(d, 3));  // 1st install: ok
  const RouteReport before = engine.route(d);
  try {
    engine.install_paths(SamplingSpec::for_demand(d, 3));  // 2nd: injected
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kInstallFault);
    EXPECT_EQ(err.site(), "install");
  }
  // The fault fired before any state mutation: the frozen paths still
  // serve, bit-identically.
  const RouteReport after = engine.route(d);
  EXPECT_EQ(before.congestion, after.congestion);
  EXPECT_EQ(before.solution.edge_load, after.solution.edge_load);
}

TEST(FaultInjection, ScratchAllocFaultOnRoute) {
  SorEngine engine = small_engine();
  Rng rng(4);
  const Demand d = gen::random_permutation_demand(16, rng);
  engine.install_paths(SamplingSpec::for_demand(d, 3));
  engine.set_fault_plan(plan_or_die("scratch_alloc@1"));
  try {
    engine.route(d);
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kScratchAlloc);
  }
  engine.set_fault_plan(nullptr);
  EXPECT_GT(engine.route(d).congestion, 0.0);
}

TEST(FaultInjection, StreamReadFaultLeavesTheRecordReadable) {
  GlobalPlanGuard guard("stream_read@2");
  std::istringstream in("0 1 1\n1 2 1\n2 3 1\n");
  io::DemandTextSource source(in);
  std::span<const DemandEntry> entries;
  ASSERT_TRUE(source.next(entries));
  EXPECT_EQ(entries[0].s, 0);
  try {
    source.next(entries);
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kStreamRead);
  }
  // The fault fired before consuming the line: the next pull resumes at
  // the same record.
  ASSERT_TRUE(source.next(entries));
  EXPECT_EQ(entries[0].s, 1);
  ASSERT_TRUE(source.next(entries));
  EXPECT_EQ(entries[0].s, 2);
  EXPECT_FALSE(source.next(entries));
}

TEST(FaultInjection, StreamBitflipCorruptsThePayloadNotTheReader) {
  GlobalPlanGuard guard("stream_bitflip@1");
  std::istringstream in("0 3 1.5\n1 2 1\n");
  io::DemandTextSource source(in);
  std::span<const DemandEntry> entries;
  ASSERT_TRUE(source.next(entries));
  // The reader validated the line, then the injection flipped the sign —
  // the corruption is for the ENGINE's validation to catch.
  EXPECT_EQ(entries[0].value, -1.5);
  ASSERT_TRUE(source.next(entries));
  EXPECT_EQ(entries[0].value, 1.0);
}

TEST(FaultInjection, IoTruncationEndsTheFileStream) {
  const std::string path =
      temp_file("truncate.demands", "0 1 1\n1 2 1\n2 3 1\n");
  GlobalPlanGuard guard("io_truncate@3");
  io::FileDemandSource source(path);
  std::span<const DemandEntry> entries;
  ASSERT_TRUE(source.next(entries));
  ASSERT_TRUE(source.next(entries));
  try {
    source.next(entries);
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kStreamTruncated);
  }
  std::remove(path.c_str());
}

TEST(FaultInjection, MalformedStreamValuesThrowTypedErrors) {
  // An out-of-range literal must be rejected (as a parse failure or a
  // non-finite value — both are kMalformedDemand), never accepted as inf.
  std::istringstream in("0 1 1e999\n");
  io::DemandTextSource source(in);
  std::span<const DemandEntry> entries;
  try {
    source.next(entries);
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kMalformedDemand);
    EXPECT_NE(std::string(err.what()).find("line 1"), std::string::npos);
  }
  // Same guard in the one-shot serialization readers.
  std::istringstream bad_graph("2 1\n0 1 1e999\n");
  EXPECT_FALSE(io::read_graph(bad_graph).has_value());
  std::istringstream bad_demand("0 1 1e999\n");
  EXPECT_FALSE(io::read_demand(bad_demand).has_value());
}

// ---- FaultBatch ---------------------------------------------------------

std::vector<Demand> batch_demands(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Demand> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(gen::random_pairs_demand(16, 2, rng));
  }
  return out;
}

SorEngine batch_engine(const std::vector<Demand>& demands, int threads) {
  SorEngine engine = small_engine(threads);
  engine.install_paths(SamplingSpec::for_demands(demands, 3));
  return engine;
}

TEST(FaultBatch, SkipAndReportMatchesTheBatchWithoutTheVictim) {
  const auto demands = batch_demands(6, 21);
  SorEngine engine = batch_engine(demands, 1);
  engine.set_fault_plan(plan_or_die("worker_throw@3"));  // unit index 2
  scale::SpanDemandSource source(demands);
  BatchSpec bspec;
  bspec.on_error = OnError::kSkipAndReport;
  const BatchReport degraded = engine.route_batch(source, {}, bspec);
  EXPECT_EQ(degraded.num_demands, demands.size());
  EXPECT_EQ(degraded.num_failed, 1u);
  ASSERT_EQ(degraded.errors.size(), 1u);
  EXPECT_EQ(degraded.errors[0].index, 2u);
  EXPECT_EQ(degraded.errors[0].code, ErrorCode::kWorkerFault);
  ASSERT_EQ(degraded.reports.size(), demands.size());
  EXPECT_EQ(degraded.reports[2].congestion, 0.0);  // default slot

  // Surviving loads are bit-identical to a clean batch that never
  // contained the victim.
  std::vector<Demand> survivors;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (i != 2) survivors.push_back(demands[i]);
  }
  SorEngine clean = batch_engine(demands, 1);  // same installed paths
  const BatchReport reference = clean.route_batch(survivors);
  EXPECT_EQ(degraded.global_edge_load, reference.global_edge_load);
  EXPECT_EQ(degraded.global_congestion, reference.global_congestion);
  EXPECT_EQ(degraded.max_congestion, reference.max_congestion);
}

TEST(FaultBatch, SkipSurvivingLoadsInvariantAcrossThreadsAndShards) {
  const auto demands = batch_demands(10, 33);
  BatchReport first;
  bool have_first = false;
  for (int threads : {1, 2}) {
    SorEngine engine = batch_engine(demands, threads);
    engine.set_fault_plan(plan_or_die("worker_throw@2;worker_throw@7"));
    scale::SpanDemandSource source(demands);
    BatchSpec bspec;
    bspec.on_error = OnError::kSkipAndReport;
    const BatchReport report = engine.route_batch(source, {}, bspec);
    EXPECT_EQ(report.num_failed, 2u);
    ASSERT_EQ(report.errors.size(), 2u);
    EXPECT_EQ(report.errors[0].index, 1u);
    EXPECT_EQ(report.errors[1].index, 6u);
    if (!have_first) {
      first = report;
      have_first = true;
      continue;
    }
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(report.global_edge_load, first.global_edge_load) << what;
    EXPECT_EQ(report.global_congestion, first.global_congestion) << what;
    EXPECT_EQ(report.max_congestion, first.max_congestion) << what;
  }
}

TEST(FaultBatch, FailFastSurfacesTheLowestFailingUnit) {
  const auto demands = batch_demands(8, 5);
  for (int threads : {1, 2}) {
    SorEngine engine = batch_engine(demands, threads);
    engine.set_fault_plan(plan_or_die("worker_throw@2;worker_throw@6"));
    scale::SpanDemandSource source(demands);
    try {
      engine.route_batch(source, {}, BatchSpec{});  // default: fail fast
      FAIL() << "expected SorError (threads=" << threads << ")";
    } catch (const SorError& err) {
      EXPECT_EQ(err.code(), ErrorCode::kWorkerFault);
      EXPECT_EQ(err.site(), "worker");
    }
  }
}

TEST(FaultBatch, PoisonedIngestIsRecordedAtItsPullIndex) {
  // Middle line malformed: under skip_and_report it becomes an error
  // record and the surviving demands route as if it never existed.
  const std::string text = "0 1 1\n0 1 bogus\n2 3 1\n";
  std::vector<Demand> good;
  Demand a;
  a.set(0, 1, 1.0);
  Demand b;
  b.set(2, 3, 1.0);
  good = {a, b};

  SorEngine engine = batch_engine(good, 1);
  std::istringstream in(text);
  io::DemandTextSource source(in);
  BatchSpec bspec;
  bspec.on_error = OnError::kSkipAndReport;
  const BatchReport report = engine.route_batch(source, {}, bspec);
  EXPECT_EQ(report.num_demands, 3u);
  EXPECT_EQ(report.num_failed, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].index, 1u);
  EXPECT_EQ(report.errors[0].code, ErrorCode::kMalformedDemand);

  SorEngine clean = batch_engine(good, 1);
  const BatchReport reference = clean.route_batch(good);
  EXPECT_EQ(report.global_edge_load, reference.global_edge_load);

  // Fail-fast keeps the historical loud throw with the line number.
  SorEngine strict = batch_engine(good, 1);
  std::istringstream in2(text);
  io::DemandTextSource source2(in2);
  try {
    strict.route_batch(source2, {}, BatchSpec{});
    FAIL() << "expected SorError";
  } catch (const SorError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kMalformedDemand);
    EXPECT_NE(std::string(err.what()).find("line 2"), std::string::npos);
  }
}

TEST(FaultBatch, UninstalledPairSkipsUnderSkipAndReport) {
  Demand covered;
  covered.set(0, 1, 1.0);
  Demand uncovered;
  uncovered.set(4, 11, 1.0);
  SorEngine engine = small_engine();
  engine.install_paths(SamplingSpec::for_demand(covered, 3));
  const std::vector<Demand> batch = {covered, uncovered};
  scale::SpanDemandSource source(batch);
  BatchSpec bspec;
  bspec.on_error = OnError::kSkipAndReport;
  const BatchReport report = engine.route_batch(source, {}, bspec);
  EXPECT_EQ(report.num_failed, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].index, 1u);
  EXPECT_EQ(report.errors[0].code, ErrorCode::kUninstalledPair);
}

TEST(FaultBatch, TruncatedFileStreamCompletesWithARecord) {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 8) + " 1\n";
  }
  const std::string path = temp_file("chaos_truncate.demands", text);
  const auto all = [&] {
    std::vector<Demand> out;
    for (int i = 0; i < 6; ++i) {
      Demand d;
      d.set(i, i + 8, 1.0);
      out.push_back(d);
    }
    return out;
  }();

  GlobalPlanGuard guard("io_truncate@4");
  SorEngine engine = batch_engine(all, 1);
  io::FileDemandSource source(path);
  BatchSpec bspec;
  bspec.on_error = OnError::kSkipAndReport;
  const BatchReport report = engine.route_batch(source, {}, bspec);
  // Three good pulls, then the truncation record ends the stream.
  EXPECT_EQ(report.num_demands, 4u);
  EXPECT_EQ(report.num_failed, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].code, ErrorCode::kStreamTruncated);
  EXPECT_EQ(report.errors[0].index, 3u);

  fault::set_global_plan(nullptr);
  SorEngine clean = batch_engine(all, 1);
  const std::vector<Demand> first3(all.begin(), all.begin() + 3);
  const BatchReport reference = clean.route_batch(first3);
  EXPECT_EQ(report.global_edge_load, reference.global_edge_load);
  std::remove(path.c_str());
}

TEST(FaultBatch, ChaosStreamIsDeterministicAcrossConfigs) {
  // A long poisoned stream: periodic read faults (counter-based, global
  // plan) plus periodic worker faults (index-keyed, engine plan). Every
  // thread count must produce the identical report.
  constexpr int kDemands = 400;
  std::string text;
  Rng gen_rng(77);
  std::vector<Demand> all;
  for (int i = 0; i < kDemands; ++i) {
    const Demand d = gen::random_pairs_demand(16, 1, gen_rng);
    all.push_back(d);
    for (const auto& [pair, value] : d.entries()) {
      text += std::to_string(pair.first) + " " + std::to_string(pair.second) +
              " 1\n";
    }
  }
  const std::string path = temp_file("chaos_long.demands", text);

  RouteSpec rspec;
  rspec.mwu.rounds = 8;  // keep 400 solves fast; determinism is the point

  BatchReport first;
  bool have_first = false;
  GlobalPlanGuard guard("stream_read%97");
  for (int threads : {1, 2}) {
    guard.reset("stream_read%97");  // rewind the fire_next counter
    SorEngine engine = batch_engine(all, threads);
    engine.set_fault_plan(plan_or_die("seed=3;stream_read%97;worker_throw~0.05"));
    io::FileDemandSource source(path);
    BatchSpec bspec;
    bspec.on_error = OnError::kSkipAndReport;
    const BatchReport report = engine.route_batch(source, rspec, bspec);
    // Accounting: every pull is a slot; read faults occupy extra slots.
    std::size_t read_faults = 0;
    for (const DemandError& err : report.errors) {
      EXPECT_TRUE(err.code == ErrorCode::kStreamRead ||
                  err.code == ErrorCode::kWorkerFault)
          << error_code_name(err.code);
      if (err.code == ErrorCode::kStreamRead) ++read_faults;
    }
    EXPECT_EQ(report.num_demands, kDemands + read_faults);
    // Identical demands aggregate: a failed group's one error record
    // accounts for every member, so num_failed >= errors.size().
    EXPECT_GE(report.num_failed, report.errors.size());
    EXPECT_GT(read_faults, 0u);
    EXPECT_GT(report.errors.size(), read_faults);  // worker faults too
    if (!have_first) {
      first = report;
      have_first = true;
      continue;
    }
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(report.num_demands, first.num_demands) << what;
    EXPECT_EQ(report.num_failed, first.num_failed) << what;
    ASSERT_EQ(report.errors.size(), first.errors.size()) << what;
    for (std::size_t i = 0; i < report.errors.size(); ++i) {
      EXPECT_EQ(report.errors[i].index, first.errors[i].index) << what;
      EXPECT_EQ(report.errors[i].code, first.errors[i].code) << what;
    }
    EXPECT_EQ(report.global_edge_load, first.global_edge_load) << what;
    EXPECT_EQ(report.global_congestion, first.global_congestion) << what;
  }
  std::remove(path.c_str());
}

// ---- FaultScenario ------------------------------------------------------

scenario::ScenarioSpec robustness_spec(int epochs) {
  scenario::ScenarioSpec spec;
  spec.name = "chaos";
  spec.topology = "torus";
  spec.size = 4;
  spec.backend = "racke:num_trees=4";
  spec.seed = 13;
  spec.epochs = epochs;
  spec.alpha = 2;
  spec.solve.rounds = 16;
  spec.measure_ratio = false;
  spec.model = *scenario::TrafficModelSpec::parse(
      "diurnal_gravity:total=16,amplitude=0.4,max_pairs=12");
  spec.reinstall = *scenario::ReinstallPolicy::parse("every_k:2");
  return spec;
}

TEST(FaultScenario, DegradePolicyParses) {
  EXPECT_EQ(scenario::parse_degrade_policy("fail"),
            scenario::DegradePolicy::kFail);
  EXPECT_EQ(scenario::parse_degrade_policy("skip_epoch"),
            scenario::DegradePolicy::kSkipEpoch);
  EXPECT_EQ(scenario::parse_degrade_policy("stale_route"),
            scenario::DegradePolicy::kStaleRoute);
  EXPECT_FALSE(scenario::parse_degrade_policy("explode").has_value());
  EXPECT_STREQ(scenario::to_string(scenario::DegradePolicy::kStaleRoute),
               "stale_route");
}

TEST(FaultScenario, SpecRoundTripsRobustnessKnobs) {
  scenario::ScenarioSpec spec = robustness_spec(4);
  spec.degrade = scenario::DegradePolicy::kStaleRoute;
  spec.solve = {.rounds = 32, .target_gap = 1.25, .deadline_ms = 12.5};
  std::ostringstream out;
  io::write_scenario(out, spec);
  EXPECT_NE(out.str().find("\nsolve rounds=32,target_gap=1.25,deadline_ms=12.5\n"),
            std::string::npos);
  std::istringstream in(out.str());
  const auto loaded = io::read_scenario(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, spec);

  // Knobs at their defaults are not written.
  scenario::ScenarioSpec plain = robustness_spec(4);
  plain.solve = {};
  std::ostringstream out2;
  io::write_scenario(out2, plain);
  EXPECT_EQ(out2.str().find("degrade"), std::string::npos);
  EXPECT_EQ(out2.str().find("\nsolve "), std::string::npos);
}

TEST(FaultScenario, FailPolicyRethrowsInstallFaults) {
  scenario::ScenarioSpec spec = robustness_spec(6);
  SorEngine engine = scenario::build_scenario_engine(spec, 1);
  engine.set_fault_plan(plan_or_die("install@2"));
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  EXPECT_THROW(scenario::run_scenario(engine, spec, trace), SorError);
}

TEST(FaultScenario, SkipEpochAbsorbsInstallFaults) {
  scenario::ScenarioSpec spec = robustness_spec(6);
  spec.degrade = scenario::DegradePolicy::kSkipEpoch;
  SorEngine engine = scenario::build_scenario_engine(spec, 1);
  engine.set_fault_plan(plan_or_die("install@2"));  // first reinstall fails
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  const scenario::ScenarioReport report =
      scenario::run_scenario(engine, spec, trace);
  ASSERT_EQ(report.epochs.size(), 6u);
  EXPECT_EQ(report.degraded_epochs, 1);
  int degraded = -1;
  for (const scenario::EpochReport& row : report.epochs) {
    if (row.degraded) degraded = row.epoch;
  }
  ASSERT_GE(degraded, 0);
  const scenario::EpochReport& row =
      report.epochs[static_cast<std::size_t>(degraded)];
  EXPECT_EQ(row.error_code, static_cast<int>(ErrorCode::kInstallFault));
  EXPECT_EQ(row.routed, 0.0);  // the epoch served nothing
  EXPECT_EQ(row.coverage, row.offered > 0.0 ? 0.0 : 1.0);
  EXPECT_FALSE(row.stale);
  // Later epochs recovered and served again.
  EXPECT_GT(report.epochs.back().routed, 0.0);
}

TEST(FaultScenario, StaleRouteKeepsServingFrozenPaths) {
  scenario::ScenarioSpec spec = robustness_spec(6);
  spec.degrade = scenario::DegradePolicy::kStaleRoute;
  SorEngine engine = scenario::build_scenario_engine(spec, 1);
  engine.set_fault_plan(plan_or_die("install@2"));
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  const scenario::ScenarioReport report =
      scenario::run_scenario(engine, spec, trace);
  EXPECT_EQ(report.degraded_epochs, 1);
  bool saw_stale = false;
  for (const scenario::EpochReport& row : report.epochs) {
    if (!row.degraded) continue;
    saw_stale = true;
    EXPECT_TRUE(row.stale);
    EXPECT_EQ(row.error_code, static_cast<int>(ErrorCode::kInstallFault));
    // The diurnal model keeps a fixed support, so the frozen paths cover
    // the epoch completely: stale serving loses nothing here.
    EXPECT_EQ(row.coverage, 1.0);
    EXPECT_GT(row.routed, 0.0);
    EXPECT_GT(row.congestion, 0.0);
  }
  EXPECT_TRUE(saw_stale);
}

TEST(FaultScenario, AnytimeBudgetFlowsIntoEpochRoutes) {
  scenario::ScenarioSpec spec = robustness_spec(4);
  spec.solve.rounds = 4;
  SorEngine engine = scenario::build_scenario_engine(spec, 1);
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  const scenario::ScenarioReport report =
      scenario::run_scenario(engine, spec, trace);
  for (const scenario::EpochReport& row : report.epochs) {
    EXPECT_TRUE(std::isfinite(row.optimality_gap)) << row.epoch;
    EXPECT_GE(row.optimality_gap, 0.0) << row.epoch;
    EXPECT_LE(row.mwu_rounds, 4) << row.epoch;
  }
}

TEST(FaultScenario, ChurnTraceUnder500EpochsOfFaultsStaysAccounted) {
  scenario::ScenarioSpec spec = robustness_spec(500);
  spec.solve.rounds = 4;
  spec.reinstall = *scenario::ReinstallPolicy::parse("every_k:10");
  spec.churn = {.rate = 0.3, .down_factor = 0.1, .mean_outage = 2};
  spec.degrade = scenario::DegradePolicy::kStaleRoute;
  SorEngine engine = scenario::build_scenario_engine(spec, 1);
  engine.set_fault_plan(plan_or_die("seed=11;install%5;edge_capacity%9"));
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  const scenario::ScenarioReport report =
      scenario::run_scenario(engine, spec, trace);

  ASSERT_EQ(report.epochs.size(), 500u);
  int degraded = 0;
  for (const scenario::EpochReport& row : report.epochs) {
    // Coverage accounting stays exact under churn + faults: the served
    // volume never exceeds the offered volume, fractions stay in [0, 1].
    EXPECT_LE(row.routed, row.offered + 1e-9) << row.epoch;
    EXPECT_GE(row.coverage, 0.0) << row.epoch;
    EXPECT_LE(row.coverage, 1.0 + 1e-12) << row.epoch;
    EXPECT_GE(row.optimality_gap, 0.0) << row.epoch;
    if (row.degraded) {
      ++degraded;
      EXPECT_GE(row.error_code, 0) << row.epoch;
    } else {
      EXPECT_EQ(row.error_code, -1) << row.epoch;
    }
  }
  EXPECT_EQ(degraded, report.degraded_epochs);
  EXPECT_GT(degraded, 0);          // the plan really fired
  EXPECT_LT(degraded, 500);        // and the service really survived
  EXPECT_GT(report.epochs.back().routed, 0.0);
}

}  // namespace
}  // namespace sor

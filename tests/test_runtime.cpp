// The service-runtime memory subsystem: PathSystem reinstalls (clear()
// keeps the arena's capacity, so reinstalling one batch never grows it),
// the engine scratch arenas (warm route calls perform zero heap
// allocations), the allocation observability layer (alloc_stats counters),
// and the buffer-reusing route_into / run_scenario paths against their
// allocating originals.
#include "runtime/scratch.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "core/path_store.h"
#include "core/path_system.h"
#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"
#include "runtime/alloc_stats.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace sor {
namespace {

/// `count` valid random paths over g (random shortest-path draws between
/// random distinct pairs).
std::vector<Path> random_paths(const Graph& g, int count, Rng& rng) {
  RandomShortestPathRouting routing(g);
  std::vector<Path> paths;
  paths.reserve(static_cast<std::size_t>(count));
  const int n = g.num_vertices();
  for (int i = 0; i < count; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = s;
    while (t == s) t = rng.uniform_int(0, n - 1);
    paths.push_back(routing.sample_path(s, t, rng));
  }
  return paths;
}

// ---- PathSystem reinstall ---------------------------------------------

TEST(PathStoreCompact, ReinstallCycleKeepsPathSystemArenaFlat) {
  Rng rng(11);
  const Graph g = gen::grid(4, 4, /*wrap=*/true);
  const std::vector<Path> batch = random_paths(g, 60, rng);
  std::map<std::pair<int, int>, std::vector<Path>> inserted;
  for (const Path& p : batch) inserted[{p.front(), p.back()}].push_back(p);
  PathSystem ps(g);
  std::size_t first_size = 0, first_capacity = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    SCOPED_TRACE(cycle);
    ps.clear();
    for (const Path& p : batch) {
      ps.add_path(p.front(), p.back(), p);
    }
    // The arena reads back exactly the inserted batch, per pair in
    // insertion order.
    ASSERT_EQ(ps.num_pairs(), inserted.size());
    ASSERT_EQ(ps.total_paths(), batch.size());
    for (const auto& [pair, paths] : inserted) {
      EXPECT_EQ(ps.paths(pair.first, pair.second), paths);
    }
    if (cycle == 0) {
      first_size = ps.store().arena_size();
      first_capacity = ps.store().arena_capacity();
      continue;
    }
    // clear() keeps the capacity and the arena only ever holds one
    // generation, so reinstalling the same batch neither grows nor
    // reallocates it.
    EXPECT_EQ(ps.store().arena_size(), first_size);
    EXPECT_EQ(ps.store().arena_capacity(), first_capacity);
  }
}

// ---- alloc_stats --------------------------------------------------------

TEST(Runtime, AllocCountersObserveThisThreadsAllocations) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  runtime::AllocProbe probe;
  {
    std::vector<int> v(1024, 1);
    ASSERT_EQ(v.back(), 1);
  }
  const runtime::AllocCounters d = probe.delta();
  EXPECT_GE(d.allocs, 1u);
  EXPECT_GE(d.frees, 1u);
  EXPECT_GE(d.alloc_bytes, 1024u * sizeof(int));
}

TEST(Runtime, AllocCountersAreThreadLocal) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  runtime::AllocProbe probe;
  std::thread worker([] {
    std::vector<double> noise(4096, 0.5);
    ASSERT_EQ(noise.size(), 4096u);
  });
  worker.join();
  // The worker's churn is invisible to this thread's probe. (thread's own
  // bookkeeping allocations happen on the spawning thread before the probe
  // could see anything from the worker — assert only alloc symmetry.)
  const runtime::AllocCounters d = probe.delta();
  EXPECT_LT(d.alloc_bytes, 4096u * sizeof(double));
}

TEST(Runtime, RssGaugeReadsPositive) {
  EXPECT_GT(runtime::rss_bytes(), 0u);
}

// ---- engine scratch arenas ---------------------------------------------

SorEngine small_engine(int threads = 1) {
  return SorEngine::build(gen::hypercube(4), "valiant", /*seed=*/5, threads);
}

TEST(Runtime, RouteIntoMatchesRouteBitForBit) {
  SorEngine engine = small_engine();
  Rng rng(3);
  const Demand d = gen::random_permutation_demand(16, rng);
  engine.install_paths(SamplingSpec::for_demand(d, 4));

  const RouteReport a = engine.route(d);
  RouteReport b;
  engine.route_into(d, {}, b);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.competitive_ratio, b.competitive_ratio);
  EXPECT_EQ(a.opt_lower_bound, b.opt_lower_bound);
  ASSERT_TRUE(a.optimum && b.optimum);
  EXPECT_EQ(a.optimum->lower, b.optimum->lower);
  EXPECT_EQ(a.optimum->upper, b.optimum->upper);
  EXPECT_EQ(a.solution.edge_load, b.solution.edge_load);
  EXPECT_EQ(a.solution.weights, b.solution.weights);
  EXPECT_EQ(a.solution.candidates, b.solution.candidates);
  EXPECT_EQ(a.solution.max_hops, b.solution.max_hops);
}

TEST(Runtime, WarmRouteIntoIsAllocationFree) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  SorEngine engine = small_engine();
  Rng rng(9);
  const Demand d = gen::random_permutation_demand(16, rng);
  engine.install_paths(SamplingSpec::for_demand(d, 4));

  RouteReport report;
  engine.route_into(d, {}, report);  // warm-up: arenas grow to fit
  engine.route_into(d, {}, report);
  EXPECT_EQ(report.mem.allocs, 0u);
  EXPECT_EQ(report.mem.alloc_bytes, 0u);
  // A different demand of the same shape stays warm too.
  const Demand d2 = gen::random_permutation_demand(16, rng);
  engine.install_paths(SamplingSpec::for_demands({&d2, 1}, 4));
  engine.route_into(d2, {}, report);
  engine.route_into(d2, {}, report);
  EXPECT_EQ(report.mem.allocs, 0u);

  // A capacity edit changes the distance bound's key: the next route
  // recomputes every pair into the memo's kept capacity, the one after it
  // looks every pair up. With the optimum off, opt_lower_bound is that
  // bound, so it must equal a fresh engine's bit for bit. The edit
  // shortens edge 0, which moves d2's bound (halving its capacity would
  // leave every d2 distance as it was, and a stale memo unnoticed).
  RouteSpec bound_only;
  bound_only.compute_optimum = false;
  engine.route_into(d2, bound_only, report);
  const double unedited = report.opt_lower_bound;
  SorEngine fresh = small_engine();
  fresh.install_paths(SamplingSpec::for_demands({&d2, 1}, 4));
  fresh.set_edge_capacity(0, 2.0);
  const RouteReport expected = fresh.route(d2, bound_only);
  ASSERT_NE(expected.opt_lower_bound, unedited);
  engine.set_edge_capacity(0, 2.0);
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    engine.route_into(d2, bound_only, report);
    EXPECT_EQ(report.mem.allocs, 0u);
    EXPECT_EQ(report.opt_lower_bound, expected.opt_lower_bound);
  }
}

TEST(Runtime, AlternatingCommodityCountsStayAllocationFree) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  // Two demands on different pairs, one with k commodities and one with
  // k - 1, routed in turn with the default spec (route + optimum). A shrink
  // must not free the per-commodity rows the next, larger demand refills.
  SorEngine engine = small_engine();
  Demand wide;
  Demand narrow;
  for (int v = 0; v < 6; ++v) wide.add(v, 15 - v, 1.0);
  for (int v = 0; v < 5; ++v) narrow.add(v, 8 + v, 1.0);
  const Demand both[] = {wide, narrow};
  engine.install_paths(SamplingSpec::for_demands(both, 4));

  RouteReport report;
  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE(cycle);
    for (const Demand& d : both) {
      engine.route_into(d, {}, report);
      if (cycle == 2) {
        EXPECT_EQ(report.mem.allocs, 0u);
        EXPECT_EQ(report.mem.alloc_bytes, 0u);
      }
    }
  }
}

TEST(Runtime, RouteBatchMatchesSerialRoutesThroughTheScratchPool) {
  SorEngine engine = small_engine(/*threads=*/4);
  Rng rng(17);
  std::vector<Demand> demands;
  for (int i = 0; i < 8; ++i) {
    demands.push_back(gen::random_permutation_demand(16, rng));
  }
  engine.install_paths(SamplingSpec::for_demands(demands, 4));

  // With rounding/simulation off, the batch equals a serial route() loop
  // (api/sor_engine.h); the pool hands each call SOME warm scratch, and
  // scratch contents must never leak into results.
  const BatchReport batch = engine.route_batch(demands);
  ASSERT_EQ(batch.reports.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    SCOPED_TRACE(i);
    const RouteReport serial = engine.route(demands[i]);
    EXPECT_EQ(batch.reports[i].congestion, serial.congestion);
    EXPECT_EQ(batch.reports[i].solution.edge_load, serial.solution.edge_load);
    EXPECT_EQ(batch.reports[i].solution.weights, serial.solution.weights);
  }
}

TEST(Runtime, MemStatsReflectTheInstalledSystem) {
  SorEngine engine = small_engine();
  Rng rng(21);
  const Demand d = gen::random_permutation_demand(16, rng);
  engine.install_paths(SamplingSpec::for_demand(d, 4));
  const SorEngine::MemStats ms = engine.mem_stats();
  EXPECT_EQ(ms.live_paths, engine.paths().total_paths());
  EXPECT_EQ(ms.installed_pairs, engine.paths().num_pairs());
  EXPECT_GT(ms.arena_ints, 0u);
  EXPECT_LE(ms.arena_ints, ms.arena_capacity);
  EXPECT_GT(ms.rss_bytes, 0u);
}

// ---- cached CSR snapshots ----------------------------------------------

TEST(Runtime, ReusedScratchFollowsANewGraphAtTheSameAddress) {
  // Scratch-held CSR snapshots are keyed on the topology stamp, not on the
  // graph's address or shape: the 4-cycles 0-1-2-3-0 and 0-2-1-3-0, built
  // in turn in one std::optional slot, must each solve exactly as with a
  // fresh scratch — the optimum and the distance bound alike.
  Demand d;
  d.set(0, 2, 1.0);
  d.set(1, 3, 2.0);
  d.set(0, 1, 1.5);
  std::optional<Graph> slot;
  const Graph* address = nullptr;
  OptimumScratch optimum;
  DistanceBoundScratch bound;
  for (const std::vector<int>& cycle :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 2, 1, 3}}) {
    Graph& g = slot.emplace(4);
    if (address == nullptr) address = &g;
    ASSERT_EQ(&g, address);
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      g.add_edge(cycle[i], cycle[(i + 1) % cycle.size()],
                 1.0 + static_cast<double>(i));
    }
    OptimumScratch fresh_optimum;
    const OptimalCongestion fresh =
        optimal_congestion(g, d, {}, fresh_optimum);
    const OptimalCongestion reused = optimal_congestion(g, d, {}, optimum);
    EXPECT_EQ(reused.upper, fresh.upper);
    EXPECT_EQ(reused.lower, fresh.lower);
    EXPECT_EQ(optimum.result.edge_load, fresh_optimum.result.edge_load);
    EXPECT_EQ(optimum.result.rounds_used, fresh_optimum.result.rounds_used);
    EXPECT_EQ(distance_lower_bound(g, d, bound), distance_lower_bound(g, d));
  }
}

// ---- the steady-state serving loop -------------------------------------

scenario::ScenarioSpec steady_spec(int epochs) {
  scenario::ScenarioSpec spec;
  spec.name = "steady";
  spec.topology = "torus";
  spec.size = 5;
  spec.backend = "racke:num_trees=4";
  spec.seed = 13;
  spec.epochs = epochs;
  spec.solve.rounds = 60;
  spec.model = *scenario::TrafficModelSpec::parse(
      "diurnal_gravity:total=32,amplitude=0.5,period=8,max_pairs=24");
  spec.reinstall = *scenario::ReinstallPolicy::parse("never");
  return spec;
}

TEST(Runtime, ScenarioSteadyStateRoutesWithZeroAllocations) {
  if (!runtime::counting_compiled()) {
    GTEST_SKIP() << "built without SOR_ALLOC_STATS";
  }
  const scenario::ScenarioSpec spec = steady_spec(/*epochs=*/1000);
  SorEngine engine = scenario::build_scenario_engine(spec);
  const scenario::ScenarioTrace trace =
      scenario::generate_trace(engine.graph(), spec);
  const scenario::ScenarioReport report =
      scenario::run_scenario(engine, spec, trace);
  ASSERT_EQ(report.epochs.size(), 1000u);
  // Epoch 0 warms the arenas; every later epoch must route on the heap's
  // steady state — zero allocations, flat path arena.
  const std::size_t arena = report.epochs[0].arena_ints;
  for (const scenario::EpochReport& row : report.epochs) {
    SCOPED_TRACE(row.epoch);
    EXPECT_EQ(row.coverage, 1.0);
    EXPECT_EQ(row.arena_ints, arena);
    if (row.epoch == 0) continue;
    EXPECT_EQ(row.route_allocs, 0u);
  }
}

TEST(Runtime, ScenarioReportsUnchangedByBufferReuse) {
  // The reuse refactor (route_into + skip-filtered-copy) must be invisible
  // in reported numbers: identical across thread counts AND across runs.
  scenario::ScenarioSpec spec = steady_spec(/*epochs=*/10);
  spec.reinstall = *scenario::ReinstallPolicy::parse("every_k:3");
  std::vector<scenario::ScenarioReport> reports;
  for (int threads : {1, 2}) {
    SorEngine engine = scenario::build_scenario_engine(spec, threads);
    const scenario::ScenarioTrace trace =
        scenario::generate_trace(engine.graph(), spec);
    reports.push_back(scenario::run_scenario(engine, spec, trace));
  }
  ASSERT_EQ(reports[0].epochs.size(), reports[1].epochs.size());
  for (std::size_t i = 0; i < reports[0].epochs.size(); ++i) {
    const scenario::EpochReport& x = reports[0].epochs[i];
    const scenario::EpochReport& y = reports[1].epochs[i];
    EXPECT_EQ(x.congestion, y.congestion);
    EXPECT_EQ(x.ratio, y.ratio);
    EXPECT_EQ(x.coverage, y.coverage);
    EXPECT_EQ(x.routed, y.routed);
    EXPECT_EQ(x.installed_paths, y.installed_paths);
    EXPECT_EQ(x.arena_ints, y.arena_ints);
  }
}

}  // namespace
}  // namespace sor

// The determinism contract of the parallel layer (api/sor_engine.h):
// with a fixed seed, every thread count must produce BIT-IDENTICAL
// results — seed-split per-item streams, never a shared generator. Checked
// end to end for racke/frt/valiant: backend construction, path
// installation, and route_batch against a serial route() loop.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "graph/generators.h"
#include "oblivious/racke.h"
#include "util/thread_pool.h"

namespace sor {
namespace {

std::vector<Demand> permutation_batch(int n, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    demands.push_back(gen::random_permutation_demand(n, rng));
  }
  return demands;
}

/// A system's contents as vertex paths per pair, independent of where the
/// arena placed them.
std::map<std::pair<int, int>, std::vector<Path>> path_contents(
    const PathSystem& ps) {
  std::map<std::pair<int, int>, std::vector<Path>> out;
  for (const auto& [pair, refs] : ps.entries()) {
    out[pair] = ps.paths(pair.first, pair.second);
  }
  return out;
}

class RouteBatchDeterminism : public ::testing::TestWithParam<const char*> {};

// route_batch on k threads == a serial route() loop, for every backend,
// down to the last bit (the fractional stages draw no randomness, so the
// two consume identical inputs; equality is exact, not approximate).
TEST_P(RouteBatchDeterminism, ParallelBatchEqualsSerialRouteLoop) {
  const std::string backend = GetParam();
  const std::uint64_t seed = 321;
  const int dim = 4;  // the 4-cube suits valiant and any-graph backends
  const auto demands = permutation_batch(1 << dim, 6, 77);

  SorEngine parallel =
      SorEngine::build(gen::hypercube(dim), backend, seed, /*threads=*/4);
  parallel.install_paths(SamplingSpec::for_demands(demands, 3));

  SorEngine serial =
      SorEngine::build(gen::hypercube(dim), backend, seed, /*threads=*/1);
  serial.install_paths(SamplingSpec::for_demands(demands, 3));

  // Identical installs first: same seed => same PathSystem, regardless of
  // the thread count the sampling fan-out ran with.
  ASSERT_EQ(parallel.paths().total_paths(), serial.paths().total_paths());
  ASSERT_EQ(path_contents(parallel.paths()), path_contents(serial.paths()));

  const BatchReport batch = parallel.route_batch(demands);
  ASSERT_EQ(batch.reports.size(), demands.size());
  EXPECT_EQ(batch.threads, 4);

  double max_congestion = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const RouteReport loop = serial.route(demands[i]);
    const RouteReport& report = batch.reports[i];
    EXPECT_EQ(report.congestion, loop.congestion) << "demand " << i;
    EXPECT_EQ(report.solution.edge_load, loop.solution.edge_load);
    EXPECT_EQ(report.solution.weights, loop.solution.weights);
    EXPECT_EQ(report.opt_lower_bound, loop.opt_lower_bound);
    EXPECT_EQ(report.competitive_ratio, loop.competitive_ratio);
    max_congestion = std::max(max_congestion, report.congestion);
  }
  EXPECT_EQ(batch.max_congestion, max_congestion);
  EXPECT_GE(batch.wall_ms, 0.0);
  EXPECT_GE(batch.total_route_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, RouteBatchDeterminism,
                         ::testing::Values("racke:num_trees=6", "frt",
                                           "valiant"));

TEST(RouteBatch, RoundingAndSimulationAreThreadCountInvariant) {
  // With rounding + packet simulation on, the per-demand seed-split
  // streams carry ALL the randomness: 1-thread and 4-thread batches must
  // still agree exactly.
  const int dim = 4;
  const auto demands = permutation_batch(1 << dim, 5, 13);
  RouteSpec spec;
  spec.simulate_packets = true;

  BatchReport reports[2];
  const int thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    SorEngine engine =
        SorEngine::build(gen::hypercube(dim), "valiant", 7, thread_counts[k]);
    engine.install_paths(SamplingSpec::for_demands(demands, 4));
    reports[k] = engine.route_batch(demands, spec);
  }
  ASSERT_EQ(reports[0].reports.size(), reports[1].reports.size());
  for (std::size_t i = 0; i < reports[0].reports.size(); ++i) {
    const RouteReport& a = reports[0].reports[i];
    const RouteReport& b = reports[1].reports[i];
    EXPECT_EQ(a.congestion, b.congestion);
    ASSERT_EQ(a.integral.has_value(), b.integral.has_value());
    if (a.integral) {
      EXPECT_EQ(a.integral->congestion, b.integral->congestion);
      EXPECT_EQ(a.integral->choices, b.integral->choices);
    }
    ASSERT_EQ(a.simulation.has_value(), b.simulation.has_value());
    if (a.simulation) {
      EXPECT_EQ(a.simulation->makespan, b.simulation->makespan);
    }
  }
}

TEST(RouteBatch, DistanceMemoMatchesFreshSerialRoutes) {
  // Each leased scratch remembers the pair distances of the demands it
  // routed. Whichever scratch a demand lands on, across repeated batches
  // and capacity edits, its distance bound (with the optimum off, the
  // report's opt_lower_bound) equals a fresh serial engine's bit for bit.
  const int dim = 4;
  const auto demands = permutation_batch(1 << dim, 8, 29);
  const std::pair<int, double> edits[] = {{1, 0.5}, {7, 2.0}, {20, 0.25}};
  RouteSpec spec;
  spec.compute_optimum = false;
  auto make_engine = [&](int threads) {
    SorEngine engine =
        SorEngine::build(gen::hypercube(dim), "valiant", 19, threads);
    engine.install_paths(SamplingSpec::for_demands(demands, 3));
    return engine;
  };
  auto serial_reports = [&](bool edited) {
    SorEngine serial = make_engine(1);
    if (edited) {
      for (const auto& [e, capacity] : edits) {
        serial.set_edge_capacity(e, capacity);
      }
    }
    std::vector<RouteReport> reports;
    for (const Demand& d : demands) reports.push_back(serial.route(d, spec));
    return reports;
  };
  auto expect_same = [](const BatchReport& batch,
                        const std::vector<RouteReport>& serial) {
    ASSERT_EQ(batch.reports.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(batch.reports[i].opt_lower_bound, serial[i].opt_lower_bound);
      EXPECT_EQ(batch.reports[i].competitive_ratio,
                serial[i].competitive_ratio);
    }
  };

  SorEngine engine = make_engine(4);
  const std::vector<RouteReport> before = serial_reports(false);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    expect_same(engine.route_batch(demands, spec), before);
  }
  for (const auto& [e, capacity] : edits) engine.set_edge_capacity(e, capacity);
  expect_same(engine.route_batch(demands, spec), serial_reports(true));
}

TEST(RouteBatch, CutSamplingIsThreadCountInvariant) {
  const auto demands = permutation_batch(16, 3, 5);
  SamplingSpec sampling = SamplingSpec::for_demands(demands, 2);
  sampling.with_cut = true;

  SorEngine a = SorEngine::build(gen::grid(4, 4), "racke:num_trees=4", 11, 1);
  SorEngine b = SorEngine::build(gen::grid(4, 4), "racke:num_trees=4", 11, 4);
  a.install_paths(sampling);
  b.install_paths(sampling);
  EXPECT_EQ(path_contents(a.paths()), path_contents(b.paths()));
}

TEST(RouteBatch, ValidatesTheWholeBatchUpFront) {
  SorEngine engine = SorEngine::build(gen::hypercube(3), "valiant", 1, 2);
  Demand installed;
  installed.set(0, 7, 1.0);
  engine.install_paths(SamplingSpec::for_demand(installed, 2));

  Demand missing;
  missing.set(1, 6, 1.0);
  const std::vector<Demand> batch = {installed, missing};
  EXPECT_THROW(engine.route_batch(batch), std::invalid_argument);

  const std::vector<Demand> ok = {installed, installed};
  const BatchReport report = engine.route_batch(ok);
  EXPECT_EQ(report.reports.size(), 2u);
  EXPECT_GT(report.max_congestion, 0.0);
  EXPECT_GE(report.max_competitive_ratio, 1.0 - 1e-9);
}

TEST(RouteBatch, EmptyBatchYieldsEmptyReport) {
  SorEngine engine = SorEngine::build(gen::hypercube(3), "valiant", 1, 2);
  engine.install_paths({.alpha = 1});
  const BatchReport report = engine.route_batch({});
  EXPECT_TRUE(report.reports.empty());
  EXPECT_EQ(report.max_congestion, 0.0);
}

TEST(RackeParallel, ConstructionIsThreadCountInvariant) {
  // Same seed, serial vs a 4-wide pool: every tree must route every probe
  // pair identically (the per-wave trees draw from seed-split streams
  // fixed before the fan-out).
  Rng graph_rng(9);
  const Graph g = gen::random_regular(24, 4, graph_rng);
  RackeOptions options;
  options.num_trees = 10;

  Rng rng_a(2024);
  RackeRouting serial(g, options, rng_a, nullptr);
  Rng rng_b(2024);
  util::ThreadPool pool(4);
  RackeRouting parallel(g, options, rng_b, &pool);
  EXPECT_EQ(rng_a.next(), rng_b.next());

  ASSERT_EQ(serial.num_trees(), parallel.num_trees());
  EXPECT_EQ(serial.max_relative_embedding_load(),
            parallel.max_relative_embedding_load());
  for (int tree = 0; tree < serial.num_trees(); ++tree) {
    for (int s = 0; s < g.num_vertices(); s += 3) {
      for (int t = 1; t < g.num_vertices(); t += 5) {
        if (s == t) continue;
        ASSERT_EQ(serial.tree_route(tree, s, t), parallel.tree_route(tree, s, t))
            << "tree " << tree << " pair (" << s << "," << t << ")";
      }
    }
  }
}

TEST(RackeParallel, EngineThreadsFlowIntoBackendConstruction) {
  // racke builds on the engine's pool: a 4-thread engine and a serial one
  // build the same trees, and so do their rebuilds after set_threads
  // swaps the widths.
  const std::uint64_t seed = 55;
  SorEngine wide = SorEngine::build(gen::grid(4, 4), "racke:num_trees=8",
                                    seed, /*threads=*/4);
  SorEngine serial = SorEngine::build(gen::grid(4, 4), "racke:num_trees=8",
                                      seed, /*threads=*/1);
  const auto expect_same_trees = [&] {
    const auto& a = dynamic_cast<const RackeRouting&>(wide.backend());
    const auto& b = dynamic_cast<const RackeRouting&>(serial.backend());
    ASSERT_EQ(a.num_trees(), b.num_trees());
    for (int tree = 0; tree < a.num_trees(); ++tree) {
      for (int t = 1; t < 16; t += 2) {
        EXPECT_EQ(a.tree_route(tree, 0, t), b.tree_route(tree, 0, t));
      }
    }
    EXPECT_EQ(a.max_relative_embedding_load(),
              b.max_relative_embedding_load());
  };
  expect_same_trees();
  EXPECT_EQ(wide.backend_spec().to_string(), "racke:num_trees=8");

  wide.set_threads(1);
  serial.set_threads(4);
  wide.rebuild_backend();
  serial.rebuild_backend();
  expect_same_trees();
}

}  // namespace
}  // namespace sor

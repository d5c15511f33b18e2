// Pins the flat free-path MWU (min_congestion_free) to the pre-change
// reference loop: a verbatim replica of the old implementation (shared
// run_mwu template + naive Dijkstra best response, per-round allocations
// and all) is kept in bench/legacy_free_path_mwu.h, and the library
// solver's outputs must be BIT-IDENTICAL — congestion, dual bound, rounds
// used, and every edge load.
//
// The certificate sweep below checks both MWU solvers against the exact
// simplex LPs: dual lower bound <= LP optimum <= congestion.
#include "lp/min_congestion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "../bench/legacy_free_path_mwu.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "util/rng.h"

namespace sor {
namespace {

// The verbatim pre-change reference lives in bench/legacy_free_path_mwu.h
// (one canonical "before", shared with bench_m5_free_path's speedup
// control).
namespace reference = sor::legacy_free_path;

// Random sparse commodity list (distinct sources shared by several pairs,
// the shape the by-source Dijkstra grouping must preserve).
std::vector<Commodity> random_commodities(int n, int pairs, Rng& rng) {
  std::vector<Commodity> commodities;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    commodities.push_back({s, t, 0.5 + rng.uniform_double() * 2.0});
  }
  return commodities;
}

/// Capacitated random graph: unit structure with varied capacities so the
/// capacity divisions and tie patterns differ from the unit-cap case.
Graph random_capacitated(int n, double p, Rng& rng) {
  const Graph base = gen::erdos_renyi_connected(n, p, rng);
  Graph g(n);
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, 0.5 + rng.uniform_double() * 3.0);
  }
  return g;
}

void expect_bit_identical(const CongestionResult& flat,
                          const CongestionResult& ref) {
  EXPECT_EQ(flat.congestion, ref.congestion);
  EXPECT_EQ(flat.lower_bound, ref.lower_bound);
  EXPECT_EQ(flat.rounds_used, ref.rounds_used);
  ASSERT_EQ(flat.edge_load.size(), ref.edge_load.size());
  for (std::size_t e = 0; e < flat.edge_load.size(); ++e) {
    EXPECT_EQ(flat.edge_load[e], ref.edge_load[e]) << "edge " << e;
  }
}

class FreePathFlatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FreePathFlatSweep, BitIdenticalToReferenceLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  const Graph g = (GetParam() % 2 == 0)
                      ? gen::erdos_renyi_connected(24, 0.2, rng)
                      : random_capacitated(20, 0.25, rng);
  const auto commodities = random_commodities(g.num_vertices(), 8, rng);
  MinCongestionOptions options;
  options.rounds = 300;
  options.min_rounds = 30;
  const auto flat = min_congestion_free(g, commodities, options);
  const auto ref = reference::min_congestion_free(g, commodities, options);
  expect_bit_identical(flat, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreePathFlatSweep, ::testing::Range(0, 8));

TEST(FreePathFlat, BitIdenticalOnHypercubeTies) {
  // Hypercube + unit capacities maximizes length ties (many equal-hop
  // shortest paths): the tie-breaking of the heap walk must match exactly.
  const Graph g = gen::hypercube(5);
  Rng rng(42);
  const auto commodities = random_commodities(g.num_vertices(), 10, rng);
  MinCongestionOptions options;
  options.rounds = 400;
  const auto flat = min_congestion_free(g, commodities, options);
  const auto ref = reference::min_congestion_free(g, commodities, options);
  expect_bit_identical(flat, ref);
}

TEST(FreePathFlat, ZeroAmountCommoditiesAndEmptyInput) {
  const Graph g = gen::complete(5);
  const auto empty = min_congestion_free(g, {});
  EXPECT_DOUBLE_EQ(empty.congestion, 0.0);

  // Zero-amount commodities are skipped by both loops identically.
  std::vector<Commodity> commodities = {{0, 1, 0.0}, {1, 4, 2.0}, {2, 3, 0.0}};
  const auto flat = min_congestion_free(g, commodities);
  const auto ref = reference::min_congestion_free(g, commodities, {});
  expect_bit_identical(flat, ref);
}

// ---------------------------------------------------------------------------
// Certificate sandwich against the exact LPs (dense simplex): on seeded
// random instances, each MWU solve's dual lower bound and congestion must
// bracket the optimum of the LP it approximates.
// ---------------------------------------------------------------------------

// a <= b up to the 1e-9 relative slack between two independently rounded
// solvers.
void expect_le_rel(double a, double b) { EXPECT_LE(a, b * (1.0 + 1e-9)); }

class CertificateSandwichSweep : public ::testing::TestWithParam<int> {};

TEST_P(CertificateSandwichSweep, FreeSolverBracketsExactOptimum) {
  // Small unit-capacity graphs only: the edge-flow LP has 2 * m variables
  // per commodity, and min_congestion_free_exact does not finish within
  // minutes on unit-capacity graphs with n = 22, nor on random_capacitated
  // graphs even at n = 6.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 5);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  const auto commodities = random_commodities(g.num_vertices(), 6, rng);
  MinCongestionOptions options;
  options.rounds = 300;
  const auto mwu = min_congestion_free(g, commodities, options);
  const double exact = min_congestion_free_exact(g, commodities);
  expect_le_rel(mwu.lower_bound, exact);
  expect_le_rel(exact, mwu.congestion);
}

TEST_P(CertificateSandwichSweep, RestrictedSolverBracketsExactOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 23);
  const Graph g = gen::erdos_renyi_connected(16, 0.25, rng);
  ShortestPathSampler sampler(g);
  std::vector<Commodity> commodities;
  std::vector<std::vector<Path>> paths;
  for (int i = 0; i < 6; ++i) {
    const int s = rng.uniform_int(0, g.num_vertices() - 1);
    int t = rng.uniform_int(0, g.num_vertices() - 1);
    if (s == t) continue;
    commodities.push_back({s, t, 1.0 + rng.uniform_double()});
    std::vector<Path> cands;
    for (int c = 0; c < 4; ++c) cands.push_back(sampler.sample(s, t, rng));
    paths.push_back(std::move(cands));
  }
  ASSERT_FALSE(commodities.empty());
  MinCongestionOptions options;
  options.rounds = 400;
  const auto mwu = min_congestion_over_paths(g, commodities, paths, options);
  const auto exact = min_congestion_over_paths_exact(g, commodities, paths);
  expect_le_rel(mwu.lower_bound, exact.congestion);
  expect_le_rel(exact.congestion, mwu.congestion);
  // The MWU weights are a feasible routing of the full demand.
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    double sum = 0.0;
    for (double w : mwu.path_weights[j]) sum += w;
    EXPECT_NEAR(sum, commodities[j].amount, 1e-9 * commodities[j].amount);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateSandwichSweep,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace sor

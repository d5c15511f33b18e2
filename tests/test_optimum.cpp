// The offline optimum (optimal_congestion: column generation over the flat
// restricted solve, priced by one early-exit CSR Dijkstra per source run)
// and its certificates.
//
// FreePathFlat* pin it bit for bit to a self-contained reference loop
// written the textbook way:
//  * the pricer runs the plain binary-heap dijkstra() once per commodity,
//    a full sweep, and walks its parent edges back to the source;
//  * the columns are one vector of edge-id paths per commodity, and each
//    master solve gets a freshly built FlatCandidates;
//  * the iteration bound, the master round cap, the warm seed (the
//    previous master's weights, 0 on new columns), the pricing lengths
//    (the master's captured final lengths), the duality bound and both
//    stop rules follow the documented contract
//    (min_congestion_by_columns_into).
// Upper and lower bound, status, rounds and every edge load must match to
// the bit, through a scratch another demand has already shaped.
//
// The sandwich sweeps check certificates against the exact LPs (dense
// simplex): each solver's dual lower bound and congestion must bracket
// the optimum of the LP it approximates — the offline optimum, the h-hop
// optimum at h = n (the same loop with the hop DP pricer, whose optimum is
// then the offline one) and the restricted solve. The optimum's lower
// bound also never falls below the distance bound it starts from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/sor_engine.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "lp/hop_bounded.h"
#include "lp/min_congestion.h"
#include "util/rng.h"

namespace sor {
namespace {

// `pairs` random ordered pairs with amounts in [0.5, 2.5], distinct
// sources shared by several pairs; a repeated pair adds up, so the
// demand's commodities are the exact LP's too.
Demand random_demand(int n, int pairs, Rng& rng) {
  Demand d;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    int t = rng.uniform_int(0, n - 1);
    if (s == t) t = (t + 1) % n;
    d.add(s, t, 0.5 + rng.uniform_double() * 2.0);
  }
  return d;
}

// An Erdős–Rényi graph with capacities drawn from U[0.5, 3] plus 0-3
// parallel copies of random edges with capacities of their own.
Graph random_multigraph(int n, double p, Rng& rng) {
  const Graph base = gen::erdos_renyi_connected(n, p, rng);
  Graph g(n);
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, 0.5 + rng.uniform_double() * 2.5);
  }
  const int parallel = rng.uniform_int(0, 3);
  for (int i = 0; i < parallel; ++i) {
    const Edge& e = base.edge(rng.uniform_int(0, base.num_edges() - 1));
    g.add_edge(e.u, e.v, 0.5 + rng.uniform_double() * 2.5);
  }
  return g;
}

struct Reference {
  OptimalCongestion opt;
  CongestionResult final_solve;
};

// Prices every commodity under `lengths`: its shortest path (s to t) and
// sum_j d_j * dist_j.
double reference_price(const Graph& g, const std::vector<Commodity>& cs,
                       const std::vector<double>& lengths,
                       std::vector<std::vector<int>>& paths) {
  double numerator = 0.0;
  paths.assign(cs.size(), {});
  for (std::size_t j = 0; j < cs.size(); ++j) {
    std::vector<int> parent;
    const std::vector<double> dist = dijkstra(g, cs[j].s, lengths, &parent);
    numerator += cs[j].amount * dist[static_cast<std::size_t>(cs[j].t)];
    for (int v = cs[j].t; v != cs[j].s;) {
      const int e = parent[static_cast<std::size_t>(v)];
      paths[j].push_back(e);
      v = g.edge(e).other(v);
    }
    std::reverse(paths[j].begin(), paths[j].end());
  }
  return numerator;
}

Reference reference_optimum(const Graph& g, const Demand& d,
                            const MinCongestionOptions& options) {
  Reference ref;
  if (d.empty()) return ref;
  const std::vector<Commodity> cs = d.commodities();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  std::vector<double> lengths(m);
  for (std::size_t e = 0; e < m; ++e) {
    lengths[e] = 1.0 / g.edge(static_cast<int>(e)).capacity;
  }
  std::vector<std::vector<int>> priced;
  double lower =
      reference_price(g, cs, lengths, priced) / static_cast<double>(m);
  std::vector<std::vector<std::vector<int>>> columns(cs.size());
  for (std::size_t j = 0; j < cs.size(); ++j) columns[j].push_back(priced[j]);
  const auto flat = [&] {
    FlatCandidates out;
    for (const auto& paths : columns) {
      for (const auto& path : paths) out.add_path(path);
      out.end_commodity();
    }
    return out;
  };

  MinCongestionOptions master = options;
  master.rounds = std::min(options.rounds, 50);
  std::vector<std::vector<double>> seed;
  for (int iteration = 0; iteration < 16; ++iteration) {
    MwuHooks hooks;
    if (iteration > 0) hooks.warm = &seed;
    hooks.capture_lengths = &lengths;
    MinCongestionScratch scratch;
    CongestionResult result;
    min_congestion_over_paths_into(g, cs, flat(), master, hooks, scratch,
                                   result);
    double denominator = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      denominator += g.edge(static_cast<int>(e)).capacity * lengths[e];
    }
    const double numerator = reference_price(g, cs, lengths, priced);
    lower = std::max(lower, numerator / denominator);
    bool added = false;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (std::find(columns[j].begin(), columns[j].end(), priced[j]) ==
          columns[j].end()) {
        columns[j].push_back(priced[j]);
        added = true;
      }
    }
    seed = result.path_weights;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      seed[j].resize(columns[j].size(), 0.0);
    }
    if (!added || result.congestion <= lower * options.target_gap) break;
  }
  {
    MwuHooks hooks;
    hooks.warm = &seed;
    MinCongestionScratch scratch;
    min_congestion_over_paths_into(g, cs, flat(), options, hooks, scratch,
                                   ref.final_solve);
  }
  ref.opt.lower = std::max(lower, d.size() / g.total_capacity());
  ref.opt.upper = std::max(ref.final_solve.congestion, ref.opt.lower);
  ref.opt.status = ref.final_solve.status;
  return ref;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Solves `d` through `scratch` (after a decoy demand has shaped it) and
// compares with the reference loop.
void expect_matches_reference(const Graph& g, const Demand& d,
                              const MinCongestionOptions& options) {
  OptimumScratch scratch;
  Rng decoy_rng(99);
  (void)optimal_congestion(
      g, gen::random_pairs_demand(g.num_vertices(), 5, decoy_rng), options,
      scratch);
  const OptimalCongestion opt = optimal_congestion(g, d, options, scratch);
  const Reference ref = reference_optimum(g, d, options);
  EXPECT_EQ(bits(opt.upper), bits(ref.opt.upper));
  EXPECT_EQ(bits(opt.lower), bits(ref.opt.lower));
  EXPECT_EQ(opt.status, ref.opt.status);
  if (d.empty()) return;  // no solve ran
  EXPECT_EQ(scratch.result.rounds_used, ref.final_solve.rounds_used);
  ASSERT_EQ(scratch.result.edge_load.size(), ref.final_solve.edge_load.size());
  for (std::size_t e = 0; e < ref.final_solve.edge_load.size(); ++e) {
    EXPECT_EQ(bits(scratch.result.edge_load[e]),
              bits(ref.final_solve.edge_load[e]))
        << "edge " << e;
  }
}

class FreePathFlatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FreePathFlatSweep, BitIdenticalToReferenceLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  const Graph g = (GetParam() % 2 == 0)
                      ? gen::erdos_renyi_connected(24, 0.2, rng)
                      : random_multigraph(20, 0.25, rng);
  const Demand d = random_demand(g.num_vertices(), 8, rng);
  MinCongestionOptions options;
  options.rounds = 300;
  expect_matches_reference(g, d, options);
  // A tighter target gap stops the iterations and the final solve at
  // different points.
  options.target_gap = 1.2;
  expect_matches_reference(g, d, options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreePathFlatSweep, ::testing::Range(0, 8));

TEST(FreePathFlat, BitIdenticalOnHypercubeTies) {
  // Hypercube + unit capacities maximizes length ties (many equal-hop
  // shortest paths): the early-exit CSR kernel must walk back exactly the
  // reference heap's parents.
  const Graph g = gen::hypercube(5);
  Rng rng(42);
  const Demand d = random_demand(g.num_vertices(), 10, rng);
  MinCongestionOptions options;
  options.rounds = 400;
  expect_matches_reference(g, d, options);
}

TEST(FreePathFlat, ZeroAmountCommoditiesAndEmptyInput) {
  const Graph g = gen::complete(5);
  const OptimalCongestion empty = optimal_congestion(g, Demand{});
  EXPECT_DOUBLE_EQ(empty.upper, 0.0);
  EXPECT_DOUBLE_EQ(empty.lower, 0.0);
  expect_matches_reference(g, Demand{}, {});

  // The column-generation loop skips zero-amount commodities: they get no
  // column and change no bit of the solve.
  const std::vector<Commodity> with_zeros = {
      {0, 1, 0.0}, {1, 4, 2.0}, {2, 3, 0.0}};
  const std::vector<Commodity> without = {{1, 4, 2.0}};
  const CongestionResult a = min_congestion_hop_bounded(g, with_zeros, 3);
  const CongestionResult b = min_congestion_hop_bounded(g, without, 3);
  EXPECT_EQ(bits(a.congestion), bits(b.congestion));
  EXPECT_EQ(bits(a.lower_bound), bits(b.lower_bound));
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.edge_load, b.edge_load);
}

// a <= b up to the 1e-9 relative slack between two independently rounded
// solvers.
void expect_le_rel(double a, double b) { EXPECT_LE(a, b * (1.0 + 1e-9)); }

// The offline optimum and the h-hop optimum at h = n bracket the exact
// edge-flow LP, and the optimum's lower bound is at least the distance
// bound.
void expect_optima_bracket(const Graph& g, const Demand& d) {
  const std::vector<Commodity> commodities = d.commodities();
  const double exact = min_congestion_free_exact(g, commodities);
  MinCongestionOptions options;
  options.rounds = 300;
  const OptimalCongestion opt = optimal_congestion(g, d, options);
  expect_le_rel(opt.lower, exact);
  expect_le_rel(exact, opt.upper);
  EXPECT_GE(opt.lower, distance_lower_bound(g, d));
  const CongestionResult hop =
      min_congestion_hop_bounded(g, commodities, g.num_vertices(), options);
  expect_le_rel(hop.lower_bound, exact);
  expect_le_rel(exact, hop.congestion);
}

// The restricted solve brackets the exact restricted LP, and its weights
// are a feasible routing of the full demand.
void expect_restricted_brackets(const Graph& g,
                                const std::vector<Commodity>& commodities,
                                const std::vector<std::vector<Path>>& paths) {
  MinCongestionOptions options;
  options.rounds = 400;
  const auto mwu = min_congestion_over_paths(g, commodities, paths, options);
  const auto exact = min_congestion_over_paths_exact(
      g, commodities, flatten_candidates(g, paths));
  expect_le_rel(mwu.lower_bound, exact.congestion);
  expect_le_rel(exact.congestion, mwu.congestion);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    double sum = 0.0;
    for (double w : mwu.path_weights[j]) sum += w;
    EXPECT_NEAR(sum, commodities[j].amount, 1e-9 * commodities[j].amount);
  }
}

class CertificateSandwichSweep : public ::testing::TestWithParam<int> {};

TEST_P(CertificateSandwichSweep, FreeSolverBracketsExactOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 5);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  expect_optima_bracket(g, random_demand(g.num_vertices(), 6, rng));
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
  expect_restricted_brackets(g, commodities, paths);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateSandwichSweep,
                         ::testing::Range(0, 6));

// The sweep's recipe at n = 20 (seed 1) and n = 22 (seed 2), where the
// dense simplex used to report an optimum of 0.0: phase 2 pivoted on
// round-off-sized entries and walked the basis off the feasible region.
// The exact LP must land inside the certified bracket or throw.
TEST(CertificateSandwich, ExactLpLandsInsideTheBracketOrThrows) {
  for (const auto& [n, seed] : {std::pair{20, 1}, std::pair{22, 2}}) {
    SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
    Rng rng(static_cast<std::uint64_t>(seed) * 613 + 5);
    const Graph g = gen::erdos_renyi_connected(n, 0.3, rng);
    const Demand d = random_demand(g.num_vertices(), 6, rng);
    const OptimalCongestion opt = optimal_congestion(g, d);
    double exact = 0.0;
    try {
      exact = min_congestion_free_exact(g, d.commodities());
    } catch (const std::runtime_error&) {
      continue;  // a refusal is allowed, a wrong optimum is not
    }
    expect_le_rel(opt.lower, exact);
    expect_le_rel(exact, opt.upper);
  }
}

// Capacitated multigraphs: each seed sweeps n = 6, 8 and 12 with four
// instances each, 5 random pairs apiece.
class CapacitatedSandwichSweep : public ::testing::TestWithParam<int> {};

TEST_P(CapacitatedSandwichSweep, EverySolverBracketsExactOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2971 + 41);
  for (const int n : {6, 8, 12}) {
    for (int instance = 0; instance < 4; ++instance) {
      SCOPED_TRACE(testing::Message() << "n " << n << " instance "
                                      << instance);
      const Graph g = random_multigraph(n, 0.4, rng);
      const Demand d = random_demand(n, 5, rng);
      expect_optima_bracket(g, d);
      const std::vector<Commodity> commodities = d.commodities();
      ShortestPathSampler sampler(g);
      std::vector<std::vector<Path>> paths;
      for (const Commodity& c : commodities) {
        paths.emplace_back();
        for (int i = 0; i < 3; ++i) {
          paths.back().push_back(sampler.sample(c.s, c.t, rng));
        }
      }
      expect_restricted_brackets(g, commodities, paths);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacitatedSandwichSweep,
                         ::testing::Range(0, 10));

// The certificates through the engine at 1 and 4 threads: route_batch over
// a capacitated multigraph with the optimum on. Every deterministic field
// of every report must match across thread counts bit for bit, and both
// the optimum's and the restricted route's certificates bracket their
// exact LPs.
class CertificateThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(CertificateThreadSweep, BatchCertificatesMatchAcrossThreadsAndBracket) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4099 + 7);
  const int n = 8 + 2 * (GetParam() % 2);
  const Graph g = random_multigraph(n, 0.4, rng);
  std::vector<Demand> demands;
  for (int i = 0; i < 4; ++i) demands.push_back(random_demand(n, 4, rng));
  RouteSpec spec;
  spec.compute_optimum = true;

  std::vector<RouteReport> by_threads[2];
  for (const int slot : {0, 1}) {
    SorEngine engine = SorEngine::build(g, "shortest_path", 5,
                                        slot == 0 ? 1 : 4);
    engine.install_paths(SamplingSpec::for_demands(demands, 3));
    by_threads[slot] = engine.route_batch(demands, spec).reports;
  }
  ASSERT_EQ(by_threads[0].size(), demands.size());
  ASSERT_EQ(by_threads[1].size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "demand " << i);
    const RouteReport& a = by_threads[0][i];
    const RouteReport& b = by_threads[1][i];
    EXPECT_EQ(bits(a.congestion), bits(b.congestion));
    EXPECT_EQ(bits(a.solution.lower_bound), bits(b.solution.lower_bound));
    EXPECT_EQ(a.solution.rounds_used, b.solution.rounds_used);
    EXPECT_EQ(a.solution.weights, b.solution.weights);
    EXPECT_EQ(a.solution.edge_load, b.solution.edge_load);
    ASSERT_TRUE(a.optimum.has_value());
    ASSERT_TRUE(b.optimum.has_value());
    EXPECT_EQ(bits(a.optimum->lower), bits(b.optimum->lower));
    EXPECT_EQ(bits(a.optimum->upper), bits(b.optimum->upper));
    EXPECT_EQ(bits(a.opt_lower_bound), bits(b.opt_lower_bound));
    EXPECT_EQ(bits(a.competitive_ratio), bits(b.competitive_ratio));

    const std::vector<Commodity> commodities = demands[i].commodities();
    const double exact_opt = min_congestion_free_exact(g, commodities);
    expect_le_rel(a.optimum->lower, exact_opt);
    expect_le_rel(exact_opt, a.optimum->upper);
    const CongestionResult exact_route = min_congestion_over_paths_exact(
        g, a.solution.commodities, a.solution.candidates);
    expect_le_rel(a.solution.lower_bound, exact_route.congestion);
    expect_le_rel(exact_route.congestion, a.congestion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateThreadSweep, ::testing::Range(0, 6));

// Hypercube bit-reversal, where the optimum's upper bound used to stay
// loose (1.121 and 1.371 times the lower bound of 1 at d = 6 and d = 8)
// while the restricted solve behind it converged like 1/sqrt(rounds).
TEST(OptimumBracket, HypercubeBitReversalIsTight) {
  for (const auto& [dim, bound] : {std::pair{6, 1.06}, std::pair{8, 1.20}}) {
    SCOPED_TRACE(testing::Message() << "d " << dim);
    const OptimalCongestion opt = optimal_congestion(
        gen::hypercube(dim), gen::bit_reversal_demand(dim));
    EXPECT_GT(opt.lower, 0.0);
    EXPECT_LE(opt.upper / opt.lower, bound);
  }
}

}  // namespace
}  // namespace sor

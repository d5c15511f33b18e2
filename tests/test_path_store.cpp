// The flat-memory path substrate: interning round-trips, ref stability
// across append/merge, edge-id spans vs path_edge_ids, and routing over the
// interned arena against the vertex-path solver entry point on random
// graphs (the bit-identity contract the hot loops rely on).
#include "core/path_store.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "api/sor_engine.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

Graph triangle_plus() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(PathStore, InternRoundTripsAndPrecomputesEdges) {
  const Graph g = triangle_plus();
  PathStore store(g);
  const Path p = {0, 1, 2, 3};
  const PathRef ref = store.intern(p);
  EXPECT_EQ(ref.hops, 3);
  EXPECT_EQ(store.num_paths(), 1u);

  const auto verts = store.vertices(ref);
  ASSERT_EQ(verts.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(verts[i], p[i]);
  EXPECT_EQ(store.to_path(ref), p);

  const auto expected = path_edge_ids(g, p);
  const auto edges = store.edge_ids(ref);
  ASSERT_EQ(edges.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(edges[i], expected[i]);
  }
}

TEST(PathStore, RefsStableAcrossAppends) {
  const Graph g = triangle_plus();
  PathStore store(g);
  const Path first = {0, 2, 3};
  const PathRef ref = store.intern(first);
  // Append enough to force arena reallocation; the old ref must still
  // resolve to the same content (offsets, not pointers).
  for (int i = 0; i < 1000; ++i) store.intern({1, 2, 3});
  EXPECT_EQ(store.to_path(ref), first);
  EXPECT_EQ(store.edge_ids(ref).size(), 2u);
  EXPECT_EQ(store.edge_ids(ref)[0], path_edge_ids(g, first)[0]);
}

TEST(PathStore, AdoptCopiesSlabsAcrossStores) {
  const Graph g = triangle_plus();
  PathStore a(g);
  PathStore b(g);
  const Path p = {3, 2, 0, 1};
  const PathRef in_a = a.intern(p);
  const PathRef in_b = b.adopt(a, in_a);
  EXPECT_EQ(b.to_path(in_b), p);
  const auto ea = a.edge_ids(in_a);
  const auto eb = b.edge_ids(in_b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
}

TEST(PathSystemFlat, BoundSystemsInternEveryPath) {
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Rng rng(7);
  const PathSystem ps = sample_path_system_all_pairs(routing, 3, rng);
  EXPECT_EQ(ps.store().graph(), &g);
  EXPECT_EQ(ps.store().num_paths(), ps.total_paths());

  for (const auto& [pair, refs] : ps.entries()) {
    const std::vector<Path> list = ps.paths(pair.first, pair.second);
    ASSERT_EQ(refs.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_TRUE(is_valid_path(g, list[i], pair.first, pair.second));
      EXPECT_EQ(ps.store().to_path(refs[i]), list[i]);
      const auto expected = path_edge_ids(g, list[i]);
      const auto edges = ps.store().edge_ids(refs[i]);
      ASSERT_EQ(edges.size(), expected.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(edges[e], expected[e]);
      }
    }
  }
}

TEST(PathSystemFlat, CountersMatchRecount) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(11);
  PathSystem ps = sample_path_system_all_pairs(routing, 2, rng);
  std::size_t total = 0;
  std::size_t widest = 0;
  for (const auto& [pair, list] : ps.entries()) {
    total += list.size();
    widest = std::max(widest, list.size());
  }
  EXPECT_EQ(ps.total_paths(), total);
  EXPECT_EQ(ps.sparsity(), widest);
}

TEST(PathSystemFlat, MergeKeepsRefsValidAndAdopts) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(3);
  PathSystem a = sample_path_system(routing, 2, {{0, 8}, {1, 7}}, rng);
  const PathSystem b = sample_path_system(routing, 3, {{0, 8}, {2, 6}}, rng);
  // Expected contents: a's paths, then b's, per pair.
  std::map<std::pair<int, int>, std::vector<Path>> expected;
  const auto collect = [&expected](const PathSystem& ps) {
    for (const auto& [pair, refs] : ps.entries()) {
      for (PathRef ref : refs) expected[pair].push_back(ps.store().to_path(ref));
    }
  };
  collect(a);
  collect(b);
  a.merge(b);
  EXPECT_EQ(a.paths(0, 8).size(), 5u);
  EXPECT_EQ(a.refs(0, 8).size(), 5u);
  EXPECT_EQ(a.store().num_paths(), a.total_paths());
  // Every ref (old and adopted) resolves to its source path, in order.
  ASSERT_EQ(a.num_pairs(), expected.size());
  for (const auto& [pair, list] : expected) {
    EXPECT_EQ(a.paths(pair.first, pair.second), list);
  }
}

TEST(PathStore, InternRejectsNonAdjacentVerticesInEveryBuildType) {
  const Graph g = triangle_plus();  // has no (1, 3) edge
  PathStore store(g);
  EXPECT_THROW(store.intern({0, 1, 3}), std::invalid_argument);
  // The failed intern leaves the arena unchanged.
  EXPECT_EQ(store.num_paths(), 0u);
  EXPECT_EQ(store.arena_size(), 0u);
}

TEST(PathSystemFlat, CrossGraphMergeOfUntransferablePathThrows) {
  Graph a(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  Graph b(3);
  b.add_edge(0, 2);
  PathSystem on_b(b);
  on_b.add_path(0, 2, {0, 2});
  PathSystem on_a(a);  // bound to a DIFFERENT graph with no (0,2) edge
  EXPECT_THROW(on_a.merge(on_b), std::invalid_argument);
}

/// Routing over a path system (zero-hashing gather from interned spans)
/// gives EXACTLY the same output as the vertex-path solver entry point over
/// the materialized candidates (edge ids re-resolved through the
/// flatten_candidates hash bridge), on random graphs and demands.
TEST(PathSystemFlat, FlatAndLegacyRoutingBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Graph g = gen::random_regular(24, 4, rng);
    ASSERT_TRUE(g.is_connected());
    RandomShortestPathRouting routing(g);
    const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
    const PathSystem ps =
        sample_path_system(routing, 4, support_pairs(d), rng);

    const std::vector<Commodity> commodities = d.commodities();
    std::vector<std::vector<Path>> candidates;
    for (const Commodity& c : commodities) {
      candidates.push_back(ps.paths(c.s, c.t));
    }
    const auto fast = route_fractional(g, ps, d);
    const CongestionResult slow =
        min_congestion_over_paths(g, commodities, candidates);
    EXPECT_EQ(fast.candidates, flatten_candidates(g, candidates));
    EXPECT_EQ(fast.congestion, slow.congestion);
    EXPECT_EQ(fast.lower_bound, slow.lower_bound);
    EXPECT_EQ(fast.edge_load, slow.edge_load);
    EXPECT_EQ(fast.weights, slow.path_weights);
    EXPECT_EQ(fast.status, slow.status);
    EXPECT_EQ(fast.optimality_gap, slow.optimality_gap);
    EXPECT_EQ(fast.rounds_used, slow.rounds_used);
  }
}

/// route_batch over the new substrate: still bit-identical across thread
/// counts and equal to a serial route() loop (re-check of the PR 2
/// contract on top of the flat representation).
TEST(PathSystemFlat, RouteBatchBitIdenticalOverFlatSubstrate) {
  const int n = 32;
  Rng rng(17);
  Graph g = gen::random_regular(n, 4, rng);
  std::vector<Demand> demands;
  for (int b = 0; b < 6; ++b) {
    demands.push_back(gen::random_permutation_demand(n, rng));
  }

  auto run = [&](int threads) {
    SorEngine engine =
        SorEngine::build(Graph(g), "shortest_path", /*seed=*/5, threads);
    engine.install_paths(SamplingSpec::for_demands(demands, 3));
    RouteSpec spec;
    spec.compute_optimum = false;
    return engine.route_batch(demands, spec);
  };
  const BatchReport serial = run(1);
  const BatchReport wide = run(4);
  ASSERT_EQ(serial.reports.size(), wide.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].congestion, wide.reports[i].congestion);
    EXPECT_EQ(serial.reports[i].solution.edge_load,
              wide.reports[i].solution.edge_load);
  }
}

}  // namespace
}  // namespace sor

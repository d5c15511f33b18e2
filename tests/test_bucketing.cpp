#include "core/bucketing.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

TEST(Bucketing, DyadicBucketsPartitionTheDemand) {
  Demand d;
  d.set(0, 1, 1.0);
  d.set(1, 2, 3.0);
  d.set(2, 3, 4.0);
  d.set(3, 4, 17.0);
  const auto buckets = dyadic_buckets(d, [](int, int) { return 1.0; });
  double total = 0.0;
  std::size_t pairs = 0;
  for (const auto& b : buckets) {
    total += b.demand.size();
    pairs += b.demand.support_size();
    for (const auto& [pair, value] : b.demand.entries()) {
      const double ratio = value;  // scale = 1
      EXPECT_GE(ratio, std::pow(2.0, b.exponent));
      EXPECT_LT(ratio, std::pow(2.0, b.exponent + 1));
    }
  }
  EXPECT_DOUBLE_EQ(total, d.size());
  EXPECT_EQ(pairs, d.support_size());
  // 1 -> bucket 0; 3 -> bucket 1; 4 -> bucket 2; 17 -> bucket 4.
  EXPECT_EQ(buckets.size(), 4u);
}

TEST(Bucketing, ScaleChangesBucketing) {
  Demand d;
  d.set(0, 1, 4.0);
  const auto raw = dyadic_buckets(d, [](int, int) { return 1.0; });
  const auto scaled = dyadic_buckets(d, [](int, int) { return 4.0; });
  ASSERT_EQ(raw.size(), 1u);
  ASSERT_EQ(scaled.size(), 1u);
  EXPECT_EQ(raw[0].exponent, 2);
  EXPECT_EQ(scaled[0].exponent, 0);
}

TEST(Bucketing, CombineRoutingsSumsLoads) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<std::vector<double>> loads = {{1.0, 0.5}, {2.0, 0.25}};
  const auto combined = combine_routings(g, loads);
  EXPECT_EQ(combined.parts, 2);
  EXPECT_DOUBLE_EQ(combined.edge_load[0], 3.0);
  EXPECT_DOUBLE_EQ(combined.edge_load[1], 0.75);
  EXPECT_DOUBLE_EQ(combined.congestion, 1.5);  // max(3/2, 0.75/1)
}

TEST(Bucketing, SubadditivityLemma515) {
  // cong(combined) <= sum of part congestions, with equality only when the
  // same edge is the bottleneck everywhere.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<std::vector<double>> loads = {{2.0, 0.0}, {0.0, 3.0}};
  const auto combined = combine_routings(g, loads);
  EXPECT_LE(combined.congestion, 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(combined.congestion, 3.0);
}

TEST(Bucketing, RouteViaBucketsServesWholeDemand) {
  Rng rng(1);
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  // A spread of demand values across several dyadic scales.
  Demand d;
  d.set(0, 15, 0.5);
  d.set(1, 14, 2.0);
  d.set(2, 13, 7.0);
  d.set(4, 11, 25.0);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto result = route_via_buckets(g, ps, d, /*alpha=*/4);
  EXPECT_EQ(result.buckets_used, 4);  // four distinct scales wrt alpha+cut
  EXPECT_GT(result.congestion, 0.0);
  // Lemma 5.9 mechanism: combined congestion is bounded by the number of
  // buckets times the worst bucket.
  EXPECT_LE(result.congestion,
            result.max_bucket_congestion * result.buckets_used + 1e-9);
  // Total routed load accounts for all demand (each unit crosses >= 1 edge).
  double total_load = 0.0;
  for (double l : result.edge_load) total_load += l;
  EXPECT_GE(total_load, d.size() - 1e-6);
}

TEST(Bucketing, BucketsCountIsLogarithmic) {
  // Polynomially bounded demands produce O(log) nonempty buckets.
  Rng rng(2);
  const Graph g = gen::grid(5, 5);
  RandomShortestPathRouting routing(g);
  Demand d;
  for (int i = 0; i < 20; ++i) {
    const double value = std::pow(1.7, i % 10) * (1 + i % 3);
    d.set(i / 5, 20 + i % 5, d.at(i / 5, 20 + i % 5) + value);
  }
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng);
  const auto result = route_via_buckets(g, ps, d, /*alpha=*/3);
  EXPECT_LE(result.buckets_used, 12);
  EXPECT_GE(result.buckets_used, 2);
}

TEST(Bucketing, ReductionBoundHoldsAgainstDirectRouting) {
  // Lemma 5.9's mechanism gives cong <= O(log m) * per-bucket quality; on
  // real instances the bucketed routing should be within a small factor of
  // routing the whole demand directly (it is the same LP split log-ways).
  Rng rng(7);
  const Graph g = gen::grid(4, 4);
  RandomShortestPathRouting routing(g);
  Demand d;
  d.set(0, 15, 0.7);
  d.set(1, 14, 3.0);
  d.set(5, 10, 11.0);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto direct = route_fractional(g, ps, d);
  const auto bucketed = route_via_buckets(g, ps, d, /*alpha=*/4);
  EXPECT_GE(bucketed.congestion, direct.lower_bound - 1e-6);
  EXPECT_LE(bucketed.congestion,
            direct.congestion * (bucketed.buckets_used + 1.0));
}

TEST(Bucketing, EmptyDemand) {
  const Graph g = gen::grid(2, 2);
  const auto result = route_via_buckets(g, PathSystem(g), Demand{}, 2);
  EXPECT_DOUBLE_EQ(result.congestion, 0.0);
  EXPECT_EQ(result.buckets_used, 0);
}

}  // namespace
}  // namespace sor

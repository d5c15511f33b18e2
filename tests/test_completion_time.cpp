#include "core/completion_time.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sor {
namespace {

TEST(CompletionTime, GeometricScalesAreIncreasingAndCapped) {
  const auto scales = geometric_hop_scales(100, 3.0);
  ASSERT_FALSE(scales.empty());
  EXPECT_EQ(scales.front(), 1);
  EXPECT_EQ(scales.back(), 100);
  for (std::size_t i = 1; i < scales.size(); ++i) {
    EXPECT_GT(scales[i], scales[i - 1]);
  }
}

TEST(CompletionTime, MultiScaleSparsity) {
  const Graph g = gen::grid(3, 4);
  Rng rng(1);
  const std::vector<std::pair<int, int>> pairs = {{0, 11}, {2, 9}};
  const auto scales = geometric_hop_scales(g.num_vertices(), 4.0);
  const int alpha = 3;
  const PathSystem ps =
      sample_multi_scale_path_system(g, alpha, scales, pairs, rng);
  EXPECT_EQ(ps.sparsity(), static_cast<std::size_t>(alpha) * scales.size());
}

TEST(CompletionTime, PrefersShortPathsWhenCongestionAllows) {
  // Dilation trap with light demand: the direct edge wins (dilation 1).
  const Graph g = gen::dilation_trap(8, 2, 5.0);
  Rng rng(2);
  Demand d;
  d.set(0, 1, 1.0);
  const auto scales = geometric_hop_scales(g.num_vertices(), 3.0);
  const PathSystem ps = sample_multi_scale_path_system(
      g, 3, scales, support_pairs(d), rng);
  const auto solution = route_completion_time(g, ps, d);
  EXPECT_EQ(solution.dilation, 1);
  EXPECT_NEAR(solution.objective, 2.0, 0.2);  // cong 1 + dil 1
}

TEST(CompletionTime, BalancesCongestionAgainstDilation) {
  // Heavy demand on the trap: all-direct gives cong = demand; spreading
  // over the detours costs dilation but wins overall.
  const int demand_units = 40;
  const Graph g = gen::dilation_trap(/*detour_length=*/6, /*num_detours=*/4,
                                     /*detour_capacity=*/20.0);
  Rng rng(3);
  Demand d;
  d.set(0, 1, static_cast<double>(demand_units));
  const auto scales = geometric_hop_scales(g.num_vertices(), 2.0);
  const PathSystem ps = sample_multi_scale_path_system(
      g, 4, scales, support_pairs(d), rng);
  const auto solution = route_completion_time(g, ps, d);
  // All-direct objective would be 40 + 1 = 41; balancing should beat it.
  EXPECT_LT(solution.objective, 41.0);
  EXPECT_GT(solution.dilation, 1);
}

TEST(CompletionTime, ObjectiveIsCongestionPlusDilation) {
  const Graph g = gen::grid(3, 3);
  Rng rng(4);
  Demand d;
  d.set(0, 8, 2.0);
  const auto scales = geometric_hop_scales(g.num_vertices(), 2.0);
  const PathSystem ps = sample_multi_scale_path_system(
      g, 2, scales, support_pairs(d), rng);
  const auto solution = route_completion_time(g, ps, d);
  EXPECT_NEAR(solution.objective,
              solution.congestion + static_cast<double>(solution.dilation),
              1e-9);
  EXPECT_EQ(solution.dilation, solution.routing.max_hops);
}

TEST(CompletionTime, EmptyDemandIsZero) {
  const Graph g = gen::grid(2, 2);
  const auto solution = route_completion_time(g, PathSystem(g), Demand{});
  EXPECT_DOUBLE_EQ(solution.objective, 0.0);
}

}  // namespace
}  // namespace sor

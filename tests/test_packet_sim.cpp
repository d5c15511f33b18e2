#include "sim/packet_sim.h"

#include <gtest/gtest.h>

#include "core/rounding.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "oblivious/valiant.h"

namespace sor {
namespace {

TEST(PacketSim, SinglePacketTakesItsPathLength) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Rng rng(1);
  const auto result =
      simulate_packets(g, {{0, 1, 2, 3}}, SchedulePolicy::kFifo, rng);
  EXPECT_EQ(result.makespan, 3);
  EXPECT_EQ(result.dilation, 3);
  EXPECT_DOUBLE_EQ(result.congestion, 1.0);
  ASSERT_EQ(result.traces.size(), 1u);
  EXPECT_EQ(result.traces[0].delivered_at, 3);
  EXPECT_EQ(result.traces[0].waited, 0);
}

TEST(PacketSim, ContentionSerializesOnSharedEdge) {
  // k packets over the same single edge: makespan = k.
  Graph g(2);
  g.add_edge(0, 1);
  Rng rng(2);
  const std::vector<Path> paths(5, Path{0, 1});
  const auto result = simulate_packets(g, paths, SchedulePolicy::kFifo, rng);
  EXPECT_EQ(result.makespan, 5);
  EXPECT_DOUBLE_EQ(result.congestion, 5.0);
  EXPECT_EQ(result.dilation, 1);
}

TEST(PacketSim, CapacityGivesParallelSlots) {
  // Same five packets but capacity 5: one step.
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  Rng rng(3);
  const std::vector<Path> paths(5, Path{0, 1});
  const auto result = simulate_packets(g, paths, SchedulePolicy::kFifo, rng);
  EXPECT_EQ(result.makespan, 1);
}

TEST(PacketSim, ZeroHopPacketsDeliverImmediately) {
  Graph g(2);
  g.add_edge(0, 1);
  Rng rng(4);
  const auto result =
      simulate_packets(g, {Path{0}, Path{0, 1}}, SchedulePolicy::kFifo, rng);
  EXPECT_EQ(result.traces[0].delivered_at, 0);
  EXPECT_EQ(result.traces[1].delivered_at, 1);
}

class PacketSimPolicySweep : public ::testing::TestWithParam<SchedulePolicy> {};

TEST_P(PacketSimPolicySweep, MakespanWithinConstantOfCPlusD) {
  // [LMR94]: schedules achieving O(C + D) exist; all three policies should
  // stay within a small constant on hypercube permutation routing.
  const int dim = 6;
  const Graph g = gen::hypercube(dim);
  ValiantRouting routing(g, dim);
  Rng rng(5);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const PathSystem ps =
      sample_path_system(routing, 4, support_pairs(d), rng);
  const auto fractional = route_fractional(g, ps, d);
  const auto integral = round_randomized(g, fractional, rng, 4);

  std::vector<Path> paths;
  for (std::size_t j = 0; j < integral.choices.size(); ++j) {
    for (int idx : integral.choices[j]) {
      paths.push_back(integral.paths[j][static_cast<std::size_t>(idx)]);
    }
  }
  const auto result = simulate_packets(g, paths, GetParam(), rng);
  EXPECT_GE(result.makespan, result.dilation);  // cannot beat the path length
  EXPECT_LE(result.makespan_over_cd(), 3.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, PacketSimPolicySweep,
                         ::testing::Values(SchedulePolicy::kFifo,
                                           SchedulePolicy::kFurthestToGo,
                                           SchedulePolicy::kRandomPriority));

TEST(PacketSim, ParallelEdgesChargeTheCanonicalEdge) {
  // Two parallel (0,1) edges; the canonical one has capacity 3, so five
  // packets over 0->1 finish in ceil(5/3) = 2 steps, and the static
  // congestion is 5/3 — both only correct if resolution picked the
  // max-capacity parallel edge.
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 3.0);  // canonical
  Rng rng(8);
  const std::vector<Path> paths(5, Path{0, 1});
  const auto result = simulate_packets(g, paths, SchedulePolicy::kFifo, rng);
  EXPECT_EQ(result.makespan, 2);
  EXPECT_DOUBLE_EQ(result.congestion, 5.0 / 3.0);
}

TEST(PacketSim, TracesAreConsistent) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Rng rng(6);
  const std::vector<Path> paths = {{0, 1, 2}, {0, 1, 2}, {1, 2}};
  const auto result =
      simulate_packets(g, paths, SchedulePolicy::kFurthestToGo, rng);
  for (const auto& trace : result.traces) {
    EXPECT_GE(trace.delivered_at, trace.hops);  // one hop per step at best
    EXPECT_EQ(trace.delivered_at, trace.hops + trace.waited);
  }
  // Edge (1,2) carries 3 packets; C goes first, then A, then B => 3 steps.
  EXPECT_EQ(result.makespan, 3);
}

}  // namespace
}  // namespace sor

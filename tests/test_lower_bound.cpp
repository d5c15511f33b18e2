#include "core/lower_bound.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/semi_oblivious.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

/// Builds the Section 8 setting: C(n, k) with an alpha-sample of the
/// natural uniform-middle oblivious routing on all left-to-right leaf pairs.
/// Constructed in place and never copied: `ps` is bound to `graph`.
struct GadgetInstance {
  GadgetInstance(int n, int alpha, Rng& rng)
      : layout{n, gen::lower_bound_k(n, alpha)},
        graph(gen::lower_bound_gadget(n, layout.k)),
        ps(sample(graph, layout, alpha, rng)) {}
  GadgetInstance(const GadgetInstance&) = delete;
  GadgetInstance& operator=(const GadgetInstance&) = delete;

  gen::GadgetLayout layout;
  Graph graph;
  PathSystem ps;

 private:
  static PathSystem sample(const Graph& graph, const gen::GadgetLayout& layout,
                           int alpha, Rng& rng) {
    RandomShortestPathRouting routing(graph);
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < layout.n; ++i) {
      for (int j = 0; j < layout.n; ++j) {
        pairs.emplace_back(layout.left_leaf(i), layout.right_leaf(j));
      }
    }
    return sample_path_system(routing, alpha, pairs, rng);
  }
};

TEST(LowerBound, AdversaryFindsFullMatching) {
  Rng rng(1);
  const int n = 64;   // k = floor(64^(1/4)) = 2 for alpha = 2
  const int alpha = 2;
  GadgetInstance inst(n, alpha, rng);
  ASSERT_EQ(inst.layout.k, 2);
  const auto adversary = find_adversarial_demand(
      inst.graph, inst.layout, inst.ps, alpha, inst.layout.k);
  EXPECT_EQ(adversary.matching_size, inst.layout.k);
  EXPECT_EQ(static_cast<int>(adversary.middle_set.size()), alpha);
  EXPECT_DOUBLE_EQ(adversary.congestion_lower_bound,
                   static_cast<double>(inst.layout.k) / alpha);
}

TEST(LowerBound, EveryCandidatePathCrossesTheCover) {
  Rng rng(2);
  const int n = 81;
  const int alpha = 2;  // k = floor(81^(1/4)) = 3
  GadgetInstance inst(n, alpha, rng);
  const auto adversary = find_adversarial_demand(
      inst.graph, inst.layout, inst.ps, alpha, inst.layout.k);
  ASSERT_GT(adversary.matching_size, 0);
  for (const auto& [pair, value] : adversary.demand.entries()) {
    for (const Path& p : inst.ps.paths(pair.first, pair.second)) {
      const bool crosses =
          std::any_of(p.begin(), p.end(), [&](int v) {
            return std::find(adversary.middle_set.begin(),
                             adversary.middle_set.end(),
                             v) != adversary.middle_set.end();
          });
      EXPECT_TRUE(crosses) << "candidate path avoids the cover set";
    }
  }
}

TEST(LowerBound, AdversarialDemandIsPermutation) {
  Rng rng(3);
  GadgetInstance inst(64, 2, rng);
  const auto adversary = find_adversarial_demand(
      inst.graph, inst.layout, inst.ps, 2, inst.layout.k);
  std::vector<int> out_count(static_cast<std::size_t>(inst.graph.num_vertices()), 0);
  std::vector<int> in_count(static_cast<std::size_t>(inst.graph.num_vertices()), 0);
  for (const auto& [pair, value] : adversary.demand.entries()) {
    EXPECT_DOUBLE_EQ(value, 1.0);
    EXPECT_LE(++out_count[static_cast<std::size_t>(pair.first)], 1);
    EXPECT_LE(++in_count[static_cast<std::size_t>(pair.second)], 1);
  }
}

TEST(LowerBound, MeasuredCongestionMeetsTheBound) {
  // Lemma 8.1: the best routing of the adversarial demand on the sampled
  // path system has congestion >= k / alpha while the offline optimum is 1.
  Rng rng(4);
  const int n = 256;  // k = 4 for alpha = 2
  const int alpha = 2;
  GadgetInstance inst(n, alpha, rng);
  ASSERT_EQ(inst.layout.k, 4);
  const auto adversary = find_adversarial_demand(
      inst.graph, inst.layout, inst.ps, alpha, inst.layout.k);
  ASSERT_EQ(adversary.matching_size, inst.layout.k);

  const auto solution =
      route_fractional_exact(inst.graph, inst.ps, adversary.demand);
  EXPECT_GE(solution.congestion, adversary.congestion_lower_bound - 1e-6);
  EXPECT_DOUBLE_EQ(gadget_optimal_congestion(inst.layout, adversary), 1.0);
}

TEST(LowerBound, LargerAlphaWeakensTheBound) {
  // The guaranteed bound k/alpha decreases in alpha (with k adjusted as in
  // the construction): the "power of a few random choices."
  Rng rng(5);
  GadgetInstance inst1(256, 1, rng);   // k = 16, bound 16
  GadgetInstance inst2(256, 2, rng);   // k = 4, bound 2
  const auto adv1 = find_adversarial_demand(inst1.graph, inst1.layout,
                                            inst1.ps, 1, inst1.layout.k);
  const auto adv2 = find_adversarial_demand(inst2.graph, inst2.layout,
                                            inst2.ps, 2, inst2.layout.k);
  EXPECT_GT(adv1.congestion_lower_bound, adv2.congestion_lower_bound);
}

}  // namespace
}  // namespace sor

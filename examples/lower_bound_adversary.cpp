// The Section 8 lower bound, executed.
//
// On the gadget C(n, k) with k = floor(n^(1/2 alpha)), EVERY alpha-sparse
// path system admits a permutation demand that it can only route with
// congestion >= k/alpha, although the offline optimum routes it with
// congestion 1. This program builds the gadget, samples an alpha-sparse
// path system from the natural oblivious routing (the registry's
// "shortest_path" backend — uniform over the k middle vertices here), runs
// the paper's pigeonhole + Hall-matching adversary, and verifies the bound
// by actually solving the optimal adaptive routing on the sampled paths.
#include <cstdio>

#include "api/sor_engine.h"
#include "core/lower_bound.h"
#include "graph/generators.h"

int main() {
  const int n = 256;
  const int alpha = 2;
  const int k = sor::gen::lower_bound_k(n, alpha);  // 256^(1/4) = 4
  const sor::gen::GadgetLayout layout{n, k};

  sor::SorEngine engine = sor::SorEngine::build(
      sor::gen::lower_bound_gadget(n, k), "shortest_path", /*seed=*/8);
  std::printf("gadget C(%d, %d): %d vertices, %d edges; alpha = %d\n", n, k,
              engine.graph().num_vertices(), engine.graph().num_edges(),
              alpha);

  // Sample alpha candidate paths per left-leaf/right-leaf pair.
  sor::SamplingSpec sampling;
  sampling.alpha = alpha;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      sampling.pairs.emplace_back(layout.left_leaf(i), layout.right_leaf(j));
    }
  }
  const sor::PathSystem& ps = engine.install_paths(sampling);
  std::printf("sampled %zu candidate paths over %zu pairs\n",
              ps.total_paths(), ps.num_pairs());

  // The adversary: pigeonhole a popular middle-set S', Hall-match k pairs.
  const auto adversary = sor::find_adversarial_demand(engine.graph(), layout,
                                                      ps, alpha, k);
  std::printf("adversary matched %d pairs, cover S' = {",
              adversary.matching_size);
  for (std::size_t i = 0; i < adversary.middle_set.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", adversary.middle_set[i]);
  }
  std::printf("}\n");
  std::printf("guaranteed congestion >= k/alpha = %.2f (optimum = %.0f)\n",
              adversary.congestion_lower_bound,
              sor::gadget_optimal_congestion(layout, adversary));

  // Verify by solving the best adaptive routing on the sampled paths
  // exactly (the frozen PathSystem serves the adversarial demand too).
  const sor::SemiObliviousSolution best =
      sor::route_fractional_exact(engine.graph(), ps, adversary.demand);
  std::printf("best adaptive routing on the sampled paths: congestion %.3f\n",
              best.congestion);
  std::printf("=> measured competitive ratio %.2f against optimum 1\n",
              best.congestion);
  return 0;
}

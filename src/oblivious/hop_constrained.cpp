#include "oblivious/hop_constrained.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "api/backend_registry.h"

namespace sor {
namespace {

/// Recursive budgeted Valiant sampling: pick a uniform waypoint w from the
/// hop lens { w : d(s,w) + d(w,t) <= budget }, split the leftover slack
/// between the two legs, and recurse. Budgets are conserved exactly
/// (b1 + b2 == budget), so the produced walk has at most `budget` hops
/// before simplification. Base cases take a uniformly random shortest path.
void recursive_sample(const ShortestPathSampler& sampler, int s, int t,
                      int budget, int depth, Path& walk, Rng& rng) {
  assert(!walk.empty() && walk.back() == s);
  if (s == t) return;
  assert(sampler.hop_distance(s, t) <= budget);
  // Even adjacent pairs detour through a waypoint while budget remains —
  // that is the Valiant-style spreading an h-hop routing needs.
  if (depth == 0 || budget <= 2) {
    const Path leg = sampler.sample(s, t, rng);
    walk.insert(walk.end(), leg.begin() + 1, leg.end());
    return;
  }

  // Reservoir-sample a waypoint from the lens (excluding the endpoints so
  // the recursion always makes progress).
  const Graph& g = sampler.graph();
  int chosen = -1;
  int count = 0;
  for (int w = 0; w < g.num_vertices(); ++w) {
    if (w == s || w == t) continue;
    if (sampler.hop_distance(s, w) + sampler.hop_distance(w, t) <= budget) {
      ++count;
      if (rng.uniform_u64(static_cast<std::uint64_t>(count)) == 0) chosen = w;
    }
  }
  if (chosen < 0) {
    const Path leg = sampler.sample(s, t, rng);
    walk.insert(walk.end(), leg.begin() + 1, leg.end());
    return;
  }

  const int d1 = sampler.hop_distance(s, chosen);
  const int d2 = sampler.hop_distance(chosen, t);
  const int slack = budget - d1 - d2;
  assert(slack >= 0);
  const int b1 = d1 + slack / 2;
  const int b2 = budget - b1;
  assert(b2 >= d2);
  recursive_sample(sampler, s, chosen, b1, depth - 1, walk, rng);
  recursive_sample(sampler, chosen, t, b2, depth - 1, walk, rng);
}

}  // namespace

HopConstrainedRouting::HopConstrainedRouting(
    const Graph& g, int hop_bound,
    std::shared_ptr<const ShortestPathSampler> sampler)
    : g_(&g), hop_bound_(hop_bound), sampler_(std::move(sampler)) {
  assert(hop_bound >= 1);
}

int HopConstrainedRouting::dilation_bound(int s, int t) const {
  return 2 * std::max(hop_bound_, sampler_->hop_distance(s, t));
}

Path HopConstrainedRouting::sample_path(int s, int t, Rng& rng) const {
  assert(s != t);
  const int direct = sampler_->hop_distance(s, t);
  assert(direct != kUnreachable);
  const int budget = std::max(hop_bound_, direct);
  // Depth ~ log2(budget) puts waypoints every couple of hops, which is what
  // makes long alternative routes (not just shortest paths) reachable.
  const int depth = std::min(
      6, std::max(1, static_cast<int>(std::ceil(std::log2(budget + 1)))));

  Path walk = {s};
  recursive_sample(*sampler_, s, t, budget, depth, walk, rng);
  Path p = simplify_walk(walk);
  assert(p.front() == s && p.back() == t);
  if (hop_count(p) > dilation_bound(s, t)) {
    // Safety net (budget conservation makes this unreachable in practice).
    return sampler_->sample(s, t, rng);
  }
  return p;
}

namespace detail {

void register_hop_constrained_backends(BackendRegistry& registry) {
  registry.add(
      "hop_constrained",
      {"recursive budgeted-Valiant routing with bounded dilation "
       "(param hops = hop budget h)",
       {"hops"},
       [](const Graph& g, const BackendSpec& spec, Rng&,
          util::ThreadPool*) -> std::unique_ptr<ObliviousRouting> {
         const int hops = spec.param_int("hops", 8);
         if (hops < 1) {
           throw std::invalid_argument("hop_constrained: hops must be >= 1");
         }
         return std::make_unique<HopConstrainedRouting>(g, hops);
       }});
}

}  // namespace detail

}  // namespace sor

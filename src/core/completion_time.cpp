#include "core/completion_time.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>

#include "oblivious/hop_constrained.h"

namespace sor {

std::vector<int> geometric_hop_scales(int n, double factor) {
  assert(n >= 1 && factor > 1.0);
  std::vector<int> scales;
  double h = 1.0;
  for (;;) {
    const int hi = std::min(n, static_cast<int>(std::ceil(h)));
    if (scales.empty() || scales.back() != hi) scales.push_back(hi);
    if (hi >= n) break;
    h *= factor;
  }
  return scales;
}

PathSystem sample_multi_scale_path_system(
    const Graph& g, int alpha, const std::vector<int>& scales,
    const std::vector<std::pair<int, int>>& pairs, Rng& rng) {
  assert(alpha >= 1 && !scales.empty());
  auto sampler = std::make_shared<const ShortestPathSampler>(g);
  PathSystem ps(g);
  for (int h : scales) {
    HopConstrainedRouting routing(g, h, sampler);
    ps.merge(sample_path_system(routing, alpha, pairs, rng));
  }
  return ps;
}

CompletionTimeSolution route_completion_time(
    const Graph& g, const PathSystem& ps, const Demand& d,
    const MinCongestionOptions& options) {
  CompletionTimeSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  if (d.empty()) {
    best.objective = 0.0;
    return best;
  }

  // Candidate dilation caps: the distinct hop counts of candidate paths on
  // the demand's support (any other cap is equivalent to the next one down).
  std::set<int> caps;
  for (const auto& [pair, value] : d.entries()) {
    for (PathRef ref : ps.refs(pair.first, pair.second)) caps.insert(ref.hops);
  }
  assert(!caps.empty() && "path system does not cover the demand support");

  for (int cap : caps) {
    // Restrict the path system to paths within the cap; skip caps that
    // leave some pair uncovered.
    PathSystem restricted(g);
    bool covered = true;
    for (const auto& [pair, value] : d.entries()) {
      bool any = false;
      for (PathRef ref : ps.refs(pair.first, pair.second)) {
        if (ref.hops <= cap) {
          restricted.add_path(pair.first, pair.second, ps.store().to_path(ref));
          any = true;
        }
      }
      if (!any) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;

    SemiObliviousSolution routed = route_fractional(g, restricted, d, options);
    const double objective =
        routed.congestion + static_cast<double>(routed.max_hops);
    if (objective < best.objective) {
      best.objective = objective;
      best.congestion = routed.congestion;
      best.dilation = routed.max_hops;
      best.chosen_cap = cap;
      best.routing = std::move(routed);
    }
  }
  assert(std::isfinite(best.objective));
  return best;
}

}  // namespace sor

#include "core/rounding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "core/path_store.h"

namespace sor {
namespace {

std::vector<double> loads_of_choices(const Graph& g,
                                     const FlatCandidates& flat,
                                     const IntegralSolution& solution) {
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t j = 0; j < solution.choices.size(); ++j) {
    for (int idx : solution.choices[j]) {
      for (int e : flat.edges(j, static_cast<std::size_t>(idx))) {
        load[static_cast<std::size_t>(e)] += 1.0;
      }
    }
  }
  return load;
}

double max_congestion(const Graph& g, const std::vector<double>& load) {
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  return congestion;
}

double integral_congestion(const Graph& g, const FlatCandidates& flat,
                           IntegralSolution& solution) {
  solution.edge_load = loads_of_choices(g, flat, solution);
  solution.congestion = max_congestion(g, solution.edge_load);
  return solution.congestion;
}

// The vertex form of each candidate, walked from its commodity's source
// along the candidate's edges.
std::vector<std::vector<Path>> vertex_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates) {
  std::vector<std::vector<Path>> paths(commodities.size());
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    paths[j].reserve(candidates.num_paths(j));
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      const auto edges = candidates.edges(j, i);
      Path& path = paths[j].emplace_back();
      path.reserve(edges.size() + 1);
      path.push_back(commodities[j].s);
      for (int e : edges) path.push_back(g.edge(e).other(path.back()));
    }
  }
  return paths;
}

}  // namespace

double integral_congestion(const Graph& g, IntegralSolution& solution) {
  assert(solution.candidates.num_commodities() == solution.choices.size());
  return integral_congestion(g, solution.candidates, solution);
}

IntegralSolution round_randomized(const Graph& g,
                                  const SemiObliviousSolution& fractional,
                                  Rng& rng, int trials,
                                  const std::vector<std::vector<int>>* seed_choices) {
  if (trials < 1) {
    throw std::invalid_argument("round_randomized: trials must be >= 1, got " +
                                std::to_string(trials));
  }
  // Trials carry only choices, loads and congestion; the winner gets the
  // candidate set once, on return.
  IntegralSolution best;
  best.congestion = std::numeric_limits<double>::infinity();

  const FlatCandidates& flat = fractional.candidates;
  assert(flat.num_commodities() == fractional.commodities.size());

  // Warm-start seed candidate (no rng consumed; see header contract). The
  // random trials below start from this as the incumbent, so the returned
  // solution is never worse than the seeded previous-epoch assignment.
  if (seed_choices != nullptr) {
    IntegralSolution seeded;
    seeded.choices.resize(fractional.commodities.size());
    for (std::size_t j = 0; j < fractional.commodities.size(); ++j) {
      const int units = static_cast<int>(
          std::llround(fractional.commodities[j].amount));
      const int num_cands = static_cast<int>(flat.num_paths(j));
      if (units > 0 && num_cands == 0) continue;
      // Deterministic fallback for unseeded/invalid units: the
      // highest-fractional-weight candidate (first index on ties).
      int fallback = 0;
      for (int i = 1; i < num_cands; ++i) {
        if (fractional.weights[j][static_cast<std::size_t>(i)] >
            fractional.weights[j][static_cast<std::size_t>(fallback)]) {
          fallback = i;
        }
      }
      seeded.choices[j].reserve(static_cast<std::size_t>(units));
      for (int u = 0; u < units; ++u) {
        int pick = fallback;
        if (j < seed_choices->size() &&
            static_cast<std::size_t>(u) < (*seed_choices)[j].size()) {
          const int prev = (*seed_choices)[j][static_cast<std::size_t>(u)];
          if (prev >= 0 && prev < num_cands) pick = prev;
        }
        seeded.choices[j].push_back(pick);
      }
    }
    integral_congestion(g, flat, seeded);
    best = std::move(seeded);
  }

  for (int trial = 0; trial < trials; ++trial) {
    IntegralSolution candidate;
    candidate.choices.resize(fractional.commodities.size());
    for (std::size_t j = 0; j < fractional.commodities.size(); ++j) {
      const int units = static_cast<int>(
          std::llround(fractional.commodities[j].amount));
      assert(std::abs(fractional.commodities[j].amount -
                      static_cast<double>(units)) <= kIntegralTolerance &&
             "randomized rounding requires an integral demand");
      candidate.choices[j].reserve(static_cast<std::size_t>(units));
      for (int u = 0; u < units; ++u) {
        candidate.choices[j].push_back(
            rng.weighted_index(fractional.weights[j]));
      }
    }
    integral_congestion(g, flat, candidate);
    if (candidate.congestion < best.congestion) best = std::move(candidate);
  }
  best.commodities = fractional.commodities;
  best.candidates = flat;
  best.paths = vertex_paths(g, best.commodities, flat);
  return best;
}

namespace {

struct BranchState {
  const Graph* g;
  const FlatCandidates* flat;
  std::vector<std::pair<std::size_t, int>> units;  // (commodity, unit idx)
  std::vector<double> load;
  double best;
  long work;
  long work_limit;
};

void branch(BranchState& st, std::size_t unit_index, double current_max) {
  if (current_max >= st.best) return;  // cannot improve
  if (st.work++ > st.work_limit) return;
  if (unit_index == st.units.size()) {
    st.best = current_max;
    return;
  }
  const std::size_t j = st.units[unit_index].first;
  for (std::size_t i = 0; i < st.flat->num_paths(j); ++i) {
    const auto edges = st.flat->edges(j, i);
    double new_max = current_max;
    for (int e : edges) {
      st.load[static_cast<std::size_t>(e)] += 1.0;
      new_max = std::max(new_max, st.load[static_cast<std::size_t>(e)] /
                                      st.g->edge(e).capacity);
    }
    branch(st, unit_index + 1, new_max);
    for (int e : edges) st.load[static_cast<std::size_t>(e)] -= 1.0;
  }
}

}  // namespace

double exact_integral_congestion(const Graph& g,
                                 const std::vector<Commodity>& commodities,
                                 const std::vector<std::vector<Path>>& paths,
                                 long work_limit) {
  const FlatCandidates flat = flatten_candidates(g, paths);
  BranchState st;
  st.g = &g;
  st.flat = &flat;
  st.load.assign(static_cast<std::size_t>(g.num_edges()), 0.0);
  st.best = std::numeric_limits<double>::infinity();
  st.work = 0;
  st.work_limit = work_limit;
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const int units = static_cast<int>(std::llround(commodities[j].amount));
    assert(units == 0 || !paths[j].empty());
    for (int u = 0; u < units; ++u) st.units.emplace_back(j, u);
  }
  if (st.units.empty()) return 0.0;
  branch(st, 0, 0.0);
  return st.best;
}

void local_search_improve(const Graph& g, IntegralSolution& solution,
                          int max_moves) {
  const FlatCandidates& flat = solution.candidates;
  assert(flat.num_commodities() == solution.choices.size());
  integral_congestion(g, flat, solution);
  auto& load = solution.edge_load;

  auto contains = [](std::span<const int> edges, int e) {
    return std::find(edges.begin(), edges.end(), e) != edges.end();
  };

  for (int move = 0; move < max_moves; ++move) {
    // Find the most congested edge.
    int hot = -1;
    double hot_cong = 0.0;
    for (int e = 0; e < g.num_edges(); ++e) {
      const double c = load[static_cast<std::size_t>(e)] / g.edge(e).capacity;
      if (c > hot_cong) {
        hot_cong = c;
        hot = e;
      }
    }
    if (hot < 0) return;

    // Try to reroute one unit crossing `hot` to an alternative whose
    // bottleneck (after the move) is strictly below hot_cong.
    bool improved = false;
    for (std::size_t j = 0; j < solution.choices.size() && !improved; ++j) {
      for (std::size_t u = 0; u < solution.choices[j].size() && !improved;
           ++u) {
        const int current = solution.choices[j][u];
        const auto current_edges =
            flat.edges(j, static_cast<std::size_t>(current));
        if (!contains(current_edges, hot)) continue;
        for (std::size_t alt = 0; alt < flat.num_paths(j); ++alt) {
          if (static_cast<int>(alt) == current) continue;
          const auto alt_edges = flat.edges(j, alt);
          // Congestion of alternative's edges if the unit moved there.
          double alt_peak = 0.0;
          for (int e : alt_edges) {
            double l = load[static_cast<std::size_t>(e)] + 1.0;
            // Discount edges shared with the current path (unit leaves them).
            if (contains(current_edges, e)) l -= 1.0;
            alt_peak = std::max(alt_peak, l / g.edge(e).capacity);
          }
          if (alt_peak < hot_cong) {
            for (int e : current_edges) load[static_cast<std::size_t>(e)] -= 1.0;
            for (int e : alt_edges) load[static_cast<std::size_t>(e)] += 1.0;
            solution.choices[j][u] = static_cast<int>(alt);
            improved = true;
            break;
          }
        }
      }
    }
    if (!improved) break;
  }
  solution.congestion = max_congestion(g, load);
}

}  // namespace sor

// Integral semi-oblivious routing (Section 6).
//
// The rounding lemma (Lemma 6.3) turns any fractional routing into an
// integral one supported on the same paths with congestion at most
// 2 * cong + 3 ln m, by sampling d(s,t) paths per pair proportionally to
// the fractional weights. We implement exactly that (best of `trials`
// draws, which is how the positive-probability argument is realized
// computationally) plus a local-search polish pass. "The same paths" is
// literal: rounding and local search read the fractional solution's
// interned edge ids (SemiObliviousSolution::candidates), never a re-resolved
// vertex path.
#pragma once

#include "core/semi_oblivious.h"
#include "util/rng.h"

namespace sor {

/// An integral routing: for commodity j with integer demand d_j, `choices[j]`
/// holds d_j candidate-path indices (into `candidates`' commodity j), one
/// per unit.
struct IntegralSolution {
  std::vector<Commodity> commodities;
  /// The fractional solution's candidates (the interned edge ids): loads,
  /// local search and the engine's packet simulation read these.
  FlatCandidates candidates;
  /// The same candidates as vertex paths, for callers outside the engine:
  /// walked once from `candidates`, never re-resolved.
  std::vector<std::vector<Path>> paths;
  std::vector<std::vector<int>> choices;
  std::vector<double> edge_load;
  double congestion = 0.0;
};

/// Exact congestion of an integral assignment over `candidates`
/// (recomputes edge loads). Requires one candidate list per commodity of
/// `choices`.
double integral_congestion(const Graph& g, IntegralSolution& solution);

/// How far a demand amount may lie from an integer and still count as
/// integral: SorEngine rounds a demand only when every amount is within
/// this of a positive integer, and round_randomized asserts the same bound.
inline constexpr double kIntegralTolerance = 1e-6;

/// Lemma 6.3 randomized rounding: each demand unit independently picks a
/// candidate proportional to the fractional weights; the best of `trials`
/// independent roundings is returned (std::invalid_argument when
/// trials < 1, in every build type). Requires an integral demand (amounts
/// are rounded to nearest integers; each must lie within
/// kIntegralTolerance of one).
///
/// `seed_choices` (optional, warm start): per-commodity per-unit candidate
/// indices from a previous epoch's integral solution. When non-null, one
/// extra deterministic candidate is evaluated BEFORE the random trials —
/// each unit takes its seeded index when it is still a valid candidate,
/// else the argmax-fractional-weight candidate — and the random trials must
/// strictly beat it. No rng draw is spent on the seed, and a null seed is
/// bit-identical to a build without this parameter.
IntegralSolution round_randomized(
    const Graph& g, const SemiObliviousSolution& fractional, Rng& rng,
    int trials = 8,
    const std::vector<std::vector<int>>* seed_choices = nullptr);

/// Greedy local search over `candidates`: repeatedly move one unit off a
/// maximum-congestion edge onto an alternative candidate if that strictly
/// reduces the load profile. Terminates; improves the rounding in practice.
void local_search_improve(const Graph& g, IntegralSolution& solution,
                          int max_moves = 10000);

/// Exact optimal integral congestion cong_Z(P, d) (Definition 6.1) by
/// branch-and-bound over per-unit path choices. Exponential; intended for
/// tiny instances (total units * candidates small) to validate rounding
/// and local search. `work_limit` caps explored nodes; returns the best
/// congestion found (optimal if the limit was not hit).
double exact_integral_congestion(const Graph& g,
                                 const std::vector<Commodity>& commodities,
                                 const std::vector<std::vector<Path>>& paths,
                                 long work_limit = 2000000);

}  // namespace sor

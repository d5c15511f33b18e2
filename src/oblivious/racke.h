// Räcke-style tree-based oblivious routing for general graphs.
//
// Räcke [Räc08] proves every graph admits an O(log n)-competitive oblivious
// routing given by a distribution over hierarchical decomposition trees. We
// build that distribution by multiplicative-weight iteration over FRT tree
// embeddings (the construction SMORE [KYY+18] deploys in practice, and the
// practical realization of Räcke's scheme; see DESIGN.md substitutions):
//
//   repeat num_trees times, in waves of `wave` trees:
//     lengths_e <- (1 / cap_e) * exp(eta * relative_embedding_load_e)
//     T <- random FRT tree w.r.t. lengths
//     charge T's cluster-boundary capacities to its embedded paths
//
// (the lengths are re-derived once per wave, so a wave's trees share one
// all-pairs shortest-path table, FrtTable).
//
// Routing R(s, t): pick one of the trees uniformly at random, walk the tree
// from s to t, replace tree edges by their embedded graph paths, remove
// loops. The iteration steers later trees away from edges earlier trees
// congest, which is what drives the empirically-logarithmic competitiveness.
#pragma once

#include <memory>

#include "oblivious/frt.h"
#include "oblivious/routing.h"

namespace sor {

namespace util {
class ThreadPool;
}  // namespace util

struct RackeOptions {
  int num_trees = 12;
  /// MWU aggressiveness; the exponent is eta * (rel load / max rel load).
  double eta = 6.0;
  /// MWU update granularity: edge lengths are re-derived from the
  /// accumulated embedding loads once per wave of this many trees. A
  /// wave's trees therefore share one all-pairs table (FrtTable), whose
  /// rows fan out over the pool before the trees are built; the trees are
  /// then built independently from per-tree seed-split Rng streams. That
  /// independence is what makes the construction parallelizable; the wave
  /// size (not the thread count) is what defines the output, so results
  /// are bit-identical with or without a pool.
  int wave = 4;
};

class RackeRouting final : public ObliviousRouting {
 public:
  /// Builds each wave's table rows and then its trees concurrently on
  /// `pool` (the caller's; at most `wave` trees run at once), or serially
  /// when `pool` is null. Throws std::invalid_argument when a wave's table
  /// does (see FrtTable): a disconnected graph, or an `eta` whose lengths
  /// overflow or vanish.
  RackeRouting(const Graph& g, const RackeOptions& options, Rng& rng,
               util::ThreadPool* pool = nullptr);

  Path sample_path(int s, int t, Rng& rng) const override;
  std::string name() const override { return "racke-trees"; }
  const Graph& graph() const override { return *g_; }

  int num_trees() const { return static_cast<int>(trees_.size()); }
  /// Routes s -> t through tree `index` deterministically.
  Path tree_route(int index, int s, int t) const {
    return trees_[static_cast<std::size_t>(index)].route(s, t);
  }

  /// Max relative embedding load over edges, a diagnostic for how balanced
  /// the tree distribution is (lower is better).
  double max_relative_embedding_load() const { return max_rel_load_; }

 private:
  const Graph* g_;
  std::vector<FrtTree> trees_;
  double max_rel_load_ = 0.0;
};

}  // namespace sor

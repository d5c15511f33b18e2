#include "oblivious/racke.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include <optional>

#include "api/backend_registry.h"
#include "util/thread_pool.h"

namespace sor {

RackeRouting::RackeRouting(const Graph& g, const RackeOptions& options,
                           Rng& rng, util::ThreadPool* pool)
    : g_(&g) {
  assert(options.num_trees >= 1);
  assert(options.wave >= 1);
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  std::vector<double> load(m, 0.0);
  std::vector<double> lengths(m, 0.0);
  trees_.reserve(static_cast<std::size_t>(options.num_trees));
  for (int base = 0; base < options.num_trees; base += options.wave) {
    const int count = std::min(options.wave, options.num_trees - base);
    double max_rel = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      max_rel = std::max(max_rel,
                         load[e] / g.edge(static_cast<int>(e)).capacity);
    }
    for (std::size_t e = 0; e < m; ++e) {
      const double cap = g.edge(static_cast<int>(e)).capacity;
      const double rel = max_rel > 0.0 ? (load[e] / cap) / max_rel : 0.0;
      lengths[e] = std::exp(options.eta * rel) / cap;
    }
    // The wave's trees share one length vector, hence one all-pairs table
    // (its rows fan out over the pool; it throws unless every distance is
    // positive and finite). Then one seed-split stream per tree and an
    // independent partition + embedding per tree: the wave's output is
    // invariant to thread count.
    const FrtTable table(g, lengths, pool);
    std::vector<Rng> streams = rng.split(static_cast<std::size_t>(count));
    std::vector<std::optional<FrtTree>> wave(static_cast<std::size_t>(count));
    const auto build_tree = [&](std::size_t i) {
      wave[i].emplace(g, table, streams[i]);
    };
    if (pool) {
      pool->parallel_for(wave.size(), build_tree);
    } else {
      for (std::size_t i = 0; i < wave.size(); ++i) build_tree(i);
    }
    for (std::optional<FrtTree>& tree : wave) {
      trees_.push_back(std::move(*tree));
      trees_.back().accumulate_embedding_load(g, load);
    }
  }
  double max_rel = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    max_rel = std::max(max_rel, load[e] / (g.edge(static_cast<int>(e)).capacity *
                                           static_cast<double>(trees_.size())));
  }
  max_rel_load_ = max_rel;
}

Path RackeRouting::sample_path(int s, int t, Rng& rng) const {
  assert(s != t);
  const std::size_t index = rng.uniform_u64(trees_.size());
  return trees_[index].route(s, t);
}

namespace detail {

void register_racke_backends(BackendRegistry& registry) {
  registry.add(
      "racke",
      {"Raecke-style distribution over MWU-reweighted FRT trees "
       "(general connected graphs)",
       {"num_trees", "eta", "wave"},
       [](const Graph& g, const BackendSpec& spec, Rng& rng,
          util::ThreadPool* pool) -> std::unique_ptr<ObliviousRouting> {
         RackeOptions options;
         options.num_trees = spec.param_int("num_trees", options.num_trees);
         options.eta = spec.param("eta", options.eta);
         options.wave = spec.param_int("wave", options.wave);
         if (options.num_trees < 1) {
           throw std::invalid_argument("racke: num_trees must be >= 1");
         }
         if (options.wave < 1) {
           throw std::invalid_argument("racke: wave must be >= 1");
         }
         return std::make_unique<RackeRouting>(g, options, rng, pool);
       }});
  registry.add(
      "frt",
      {"single random FRT tree embedding (racke with num_trees = 1)",
       {},
       [](const Graph& g, const BackendSpec&, Rng& rng,
          util::ThreadPool* pool) -> std::unique_ptr<ObliviousRouting> {
         return std::make_unique<RackeRouting>(
             g, RackeOptions{.num_trees = 1, .eta = 0.0}, rng, pool);
       }});
}

}  // namespace detail

}  // namespace sor

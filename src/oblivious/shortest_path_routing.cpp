// Backend-registry hooks for the (header-only) shortest-path routings.
#include "oblivious/shortest_path_routing.h"

#include "api/backend_registry.h"

namespace sor::detail {

void register_shortest_path_backends(BackendRegistry& registry) {
  registry.add(
      "shortest_path",
      {"uniform random tight-predecessor walk over shortest paths only",
       {},
       [](const Graph& g, const BackendSpec&, Rng&,
          util::ThreadPool*) -> std::unique_ptr<ObliviousRouting> {
         return std::make_unique<RandomShortestPathRouting>(g);
       }});
  registry.add(
      "shortest_path_det",
      {"deterministic 1-sparse shortest-path baseline (same path per pair)",
       {},
       [](const Graph& g, const BackendSpec&, Rng&,
          util::ThreadPool*) -> std::unique_ptr<ObliviousRouting> {
         return std::make_unique<DeterministicShortestPathRouting>(g);
       }});
}

}  // namespace sor::detail

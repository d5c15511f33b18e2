// Pinned identity of Stages 1–2: the installed systems of three fixed
// (graph, backend, seed) cases hash to values recorded while every FRT
// tree still computed its own all-pairs table and edge_between still read
// a std::unordered_map, so sharing the table per wave and the flat table
// moved no installed byte. Any change to a sampled path, an edge id or an
// arena offset moves the hash; a deliberate re-pin must say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "api/sor_engine.h"
#include "graph/generators.h"

namespace sor {
namespace {

std::uint64_t installed_fingerprint(Graph g, const std::string& backend,
                                    std::uint64_t seed, int threads) {
  SorEngine engine = SorEngine::build(std::move(g), backend, seed, threads);
  return fingerprint(engine.install_paths(SamplingSpec{}));
}

/// Ring of 10 with chords, doubled and tripled links of unequal capacity:
/// the canonical edge of a pair is sometimes a later, larger parallel edge
/// and sometimes the first of equal ones.
Graph capacitated_multigraph() {
  Graph g(10);
  for (int v = 0; v < 10; ++v) g.add_edge(v, (v + 1) % 10, 1.0 + v % 3);
  g.add_edge(0, 5, 2.0);
  g.add_edge(2, 7, 1.5);
  g.add_edge(1, 2, 4.0);  // beats the ring's (1, 2) of capacity 2
  g.add_edge(3, 4, 1.0);  // ties the ring's (3, 4): the ring's stays
  g.add_edge(0, 5, 2.0);  // ties the chord: the chord stays
  g.add_edge(6, 7, 0.5);
  g.add_edge(6, 7, 3.0);  // beats both earlier (6, 7) links
  return g;
}

TEST(InstallIdentity, TorusRackeOnTwoThreads) {
  EXPECT_EQ(installed_fingerprint(gen::grid(6, 6, /*wrap=*/true),
                                  "racke:num_trees=6", 29, 2),
            0x264e1013d300ba19ull);
}

TEST(InstallIdentity, HypercubeValiant) {
  EXPECT_EQ(installed_fingerprint(gen::hypercube(6), "valiant", 29, 1),
            0xf1bf675b8d9d622eull);
}

TEST(InstallIdentity, CapacitatedMultigraphRacke) {
  EXPECT_EQ(installed_fingerprint(capacitated_multigraph(), "racke", 29, 1),
            0x8f37e1d78f389115ull);
}

}  // namespace
}  // namespace sor

#include "graph/generators.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/path_system.h"
#include "graph/maxflow.h"
#include "graph/shortest_path.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

TEST(Generators, HypercubeStructure) {
  for (int dim : {1, 2, 3, 5}) {
    const Graph g = gen::hypercube(dim);
    EXPECT_EQ(g.num_vertices(), 1 << dim);
    EXPECT_EQ(g.num_edges(), dim * (1 << (dim - 1)));
    EXPECT_TRUE(g.is_connected());
    for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), dim);
  }
}

TEST(Generators, HypercubeDistancesAreHamming) {
  const Graph g = gen::hypercube(4);
  const auto dist = bfs_distances(g, 0b0000);
  EXPECT_EQ(dist[0b1111], 4);
  EXPECT_EQ(dist[0b0101], 2);
  EXPECT_EQ(dist[0b1000], 1);
}

TEST(Generators, GridStructure) {
  const Graph g = gen::grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, TorusIsRegular) {
  const Graph g = gen::grid(4, 5, /*wrap=*/true);
  EXPECT_EQ(g.num_vertices(), 20);
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

class RandomRegularSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RandomRegularSweep, DegreesAndConnectivity) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + d));
  const Graph g = gen::random_regular(n, d, rng);
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_TRUE(g.is_connected());
  for (int v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), d);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomRegularSweep,
                         ::testing::Values(std::pair{8, 3}, std::pair{16, 4},
                                           std::pair{32, 3}, std::pair{64, 6},
                                           std::pair{100, 4}));

TEST(Generators, ErdosRenyiConnected) {
  Rng rng(4);
  for (double p : {0.01, 0.1, 0.5}) {
    const Graph g = gen::erdos_renyi_connected(40, p, rng);
    EXPECT_EQ(g.num_vertices(), 40);
    EXPECT_TRUE(g.is_connected());
  }
}

TEST(Generators, CompleteGraph) {
  const Graph g = gen::complete(6);
  EXPECT_EQ(g.num_edges(), 15);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5);
}

TEST(Generators, TwoCliquesCutEqualsBridges) {
  const Graph g = gen::two_cliques(6, 3);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_TRUE(g.is_connected());
  // Min cut between non-bridge vertices of opposite cliques is #bridges.
  EXPECT_EQ(cut_value(g, 4, 6 + 4), 3);
}

TEST(Generators, LowerBoundGadgetStructure) {
  const int n = 16;
  const int k = 3;
  const Graph g = gen::lower_bound_gadget(n, k);
  gen::GadgetLayout layout{n, k};
  EXPECT_EQ(g.num_vertices(), 2 * n + 2 + k);
  EXPECT_EQ(g.num_edges(), 2 * n + 2 * k);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(layout.left_center()), n + k);
  EXPECT_EQ(g.degree(layout.right_center()), n + k);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(g.degree(layout.left_leaf(i)), 1);
    EXPECT_EQ(g.degree(layout.right_leaf(i)), 1);
  }
  for (int i = 0; i < k; ++i) EXPECT_EQ(g.degree(layout.middle(i)), 2);
  // Leaf-to-leaf min cut across the gadget is 1 (the leaf edge).
  EXPECT_EQ(cut_value(g, layout.left_leaf(0), layout.right_leaf(0)), 1);
  // Center-to-center min cut is k.
  EXPECT_EQ(cut_value(g, layout.left_center(), layout.right_center()), k);
}

TEST(Generators, LowerBoundK) {
  EXPECT_EQ(gen::lower_bound_k(256, 1), 16);  // 256^(1/2)
  EXPECT_EQ(gen::lower_bound_k(256, 2), 4);   // 256^(1/4)
  EXPECT_EQ(gen::lower_bound_k(256, 4), 2);   // 256^(1/8)
  EXPECT_EQ(gen::lower_bound_k(256, 8), 1);
}

TEST(Generators, LowerBoundFamilyConnected) {
  std::vector<int> offsets;
  const Graph g = gen::lower_bound_family(64, &offsets);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(static_cast<int>(offsets.size()), 6);  // floor(log2 64) copies
  // First copy has k = 8 (64^(1/2)).
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[1], 2 * 64 + 2 + 8);
}

TEST(Generators, FatTreeStructure) {
  const Graph g = gen::fat_tree(4);
  // k=4: 8 edge + 8 aggregation + 4 core switches.
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_TRUE(g.is_connected());
}

// Sizes reach these generators from scenario files and the CLI, so an
// argument outside the documented domain throws in every build type,
// before anything is allocated.
TEST(Generators, RejectArgumentsOutsideTheirDomain) {
  Rng rng(1);
  EXPECT_THROW(gen::hypercube(0), std::invalid_argument);
  EXPECT_THROW(gen::hypercube(21), std::invalid_argument);
  EXPECT_THROW(gen::grid(0, 4), std::invalid_argument);
  EXPECT_THROW(gen::grid(4, -1), std::invalid_argument);
  EXPECT_THROW(gen::grid(65536, 65536), std::invalid_argument);
  EXPECT_THROW(gen::grid(2147483647, 2147483647, /*wrap=*/true),
               std::invalid_argument);
  EXPECT_THROW(gen::random_regular(7, 3, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_regular(4, 4, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_regular(1, 0, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_regular(2147483646, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(gen::fat_tree(3), std::invalid_argument);
  EXPECT_THROW(gen::fat_tree(0), std::invalid_argument);
  EXPECT_THROW(gen::fat_tree(2048), std::invalid_argument);  // 2^32 links
  EXPECT_THROW(gen::fat_tree(2147483646), std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_gadget(0, 1), std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_gadget(4, 0), std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_gadget(1073741824, 1),  // 2^31 + 3 vertices
               std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_gadget(1, 2147483647),  // 2^32 edges
               std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_k(0, 1), std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_k(4, 0), std::invalid_argument);
  EXPECT_THROW(gen::lower_bound_family(1), std::invalid_argument);
  // Every copy fits, their sum does not.
  EXPECT_THROW(gen::lower_bound_family(268435456), std::invalid_argument);
  // The domains' edges still build.
  EXPECT_EQ(gen::hypercube(1).num_vertices(), 2);
  EXPECT_EQ(gen::grid(1, 1).num_vertices(), 1);
  EXPECT_EQ(gen::random_regular(8, 3, rng).num_edges(), 12);
  EXPECT_EQ(gen::fat_tree(2).num_vertices(), 5);
  EXPECT_EQ(gen::lower_bound_gadget(1, 1).num_vertices(), 5);
  EXPECT_EQ(gen::lower_bound_family(2).num_vertices(), 7);
}

TEST(Generators, AbileneStructure) {
  const Graph g = gen::abilene(2.5);
  EXPECT_EQ(g.num_vertices(), 11);
  EXPECT_TRUE(g.is_connected());
  for (const Edge& e : g.edges()) EXPECT_DOUBLE_EQ(e.capacity, 2.5);
}

TEST(Generators, RandomGeometricConnected) {
  Rng rng(77);
  const Graph g = gen::random_geometric(50, 0.18, rng);
  EXPECT_EQ(g.num_vertices(), 50);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, DilationTrapStructure) {
  const Graph g = gen::dilation_trap(/*detour_length=*/5, /*num_detours=*/3,
                                     /*detour_capacity=*/10.0);
  EXPECT_TRUE(g.is_connected());
  // Direct edge means distance 1.
  EXPECT_EQ(bfs_distances(g, 0)[1], 1);
  // Each detour contributes detour_length - 1 interior vertices.
  EXPECT_EQ(g.num_vertices(), 2 + 3 * 4);
  EXPECT_EQ(g.num_edges(), 1 + 3 * 5);
}

TEST(Generators, AuxiliaryPairSplitCutsAreOne) {
  // Corollary 6.2: the auxiliary vertices see min-cut exactly 1 regardless
  // of the connectivity between the original endpoints.
  const Graph g = gen::complete(6);  // cut between originals is 5
  std::vector<std::pair<int, int>> aux;
  const Graph g2 = gen::auxiliary_pair_split(g, {{0, 5}, {2, 3}}, &aux);
  ASSERT_EQ(aux.size(), 2u);
  EXPECT_EQ(g2.num_vertices(), 6 + 4);
  EXPECT_EQ(g2.num_edges(), g.num_edges() + 4);
  for (const auto& [a, b] : aux) {
    EXPECT_EQ(cut_value(g2, a, b), 1);
    EXPECT_EQ(g2.degree(a), 1);
    EXPECT_EQ(g2.degree(b), 1);
  }
  // Original structure untouched: cut(0,5) is still the 5 clique edges
  // (the degree-1 auxiliary vertices ride along with their endpoints).
  EXPECT_EQ(cut_value(g2, 0, 5), 5);
}

TEST(Generators, AuxiliaryPairSplitReducesAlphaSample) {
  // An (alpha-1+cut)-sample between auxiliary vertices has exactly alpha
  // paths, and stripping the auxiliary endpoints yields s-t paths in G —
  // the Corollary 6.2 reduction, end to end.
  Rng rng(9);
  const Graph g = gen::grid(3, 3);
  std::vector<std::pair<int, int>> aux;
  const Graph g2 = gen::auxiliary_pair_split(g, {{0, 8}}, &aux);
  RandomShortestPathRouting routing(g2);
  const int alpha = 3;
  const PathSystem ps2 =
      sample_path_system_with_cut(routing, alpha - 1, {aux[0]}, rng);
  const auto& paths = ps2.paths(aux[0].first, aux[0].second);
  ASSERT_EQ(paths.size(), static_cast<std::size_t>(alpha));  // alpha-1+1
  for (const Path& p : paths) {
    ASSERT_GE(p.size(), 3u);
    const Path inner(p.begin() + 1, p.end() - 1);
    EXPECT_TRUE(is_valid_path(g, inner, 0, 8));
  }
}

TEST(Generators, PathOfCliquesDistances) {
  const Graph g = gen::path_of_cliques(4, 4);
  EXPECT_TRUE(g.is_connected());
  // End-to-end distance is one hop per clique.
  EXPECT_EQ(bfs_distances(g, 0)[g.num_vertices() - 1], 4);
}

}  // namespace
}  // namespace sor

// Graph generators: classic parallel-computing topologies, synthetic WAN-like
// traffic-engineering topologies, and the paper's lower-bound gadgets.
//
// hypercube, grid, random_regular, fat_tree and the lower-bound gadgets
// take sizes straight from scenario files and the CLI, so they throw
// std::invalid_argument, in every build type, for arguments outside their
// stated domain.
#pragma once

#include "graph/graph.h"
#include "util/rng.h"

namespace sor::gen {

/// d-dimensional hypercube: 2^d vertices, vertex ids are bit strings, edges
/// between ids differing in one bit. Requires 1 <= dim <= 20.
Graph hypercube(int dim);

/// rows x cols 2D grid (4-neighbour). If `wrap` is true, a torus. Requires
/// rows, cols >= 1 and 2 * rows * cols <= INT_MAX (every edge id an int).
Graph grid(int rows, int cols, bool wrap = false);

/// Random d-regular multigraph via the configuration model, with self-loops
/// removed by re-pairing; for d >= 3 this is an expander with high
/// probability. Requires 1 <= d < n, n*d even and n*d <= INT_MAX.
Graph random_regular(int n, int d, Rng& rng);

/// Erdos-Renyi G(n, p) conditioned on connectivity: edges sampled i.i.d.,
/// then any disconnected component is attached by a uniformly random edge.
Graph erdos_renyi_connected(int n, double p, Rng& rng);

/// Complete graph K_n.
Graph complete(int n);

/// Two n-cliques joined by `bridges` disjoint edges between them (the
/// Section 2.1 example showing alpha-sparsity alone cannot work: the optimal
/// s-t congestion uses all `bridges` parallel routes).
Graph two_cliques(int n, int bridges);

/// The paper's lower-bound gadget C(n, k) (Section 8, Figure 1): two stars
/// with n leaves each, whose centers are joined through k middle vertices.
/// Vertex layout: [0, n) left leaves, n = left center, n+1 = right center,
/// [n+2, n+2+k) middle vertices K, [n+2+k, 2n+2+k) right leaves.
/// 2n + 2 + k vertices, 2n + 2k edges. Requires n, k >= 1 with
/// 2n + 2k + 2 <= INT_MAX.
Graph lower_bound_gadget(int n, int k);

/// Vertex-role accessors for lower_bound_gadget.
struct GadgetLayout {
  int n = 0;
  int k = 0;
  int left_center() const { return n; }
  int right_center() const { return n + 1; }
  int left_leaf(int i) const { return i; }
  int right_leaf(int i) const { return n + 2 + k + i; }
  int middle(int i) const { return n + 2 + i; }
  int num_vertices() const { return 2 * n + 2 + k; }
};

/// The paper's full lower-bound family G(n) (Lemma 8.2): one copy of
/// C(n, floor(n^(1/2a))) for every a in [floor(log2 n)], chained together by
/// bridge edges. `copy_offsets` (if non-null) receives the vertex offset of
/// each copy, in order a = 1, 2, .... Requires n >= 2 with the copies'
/// 2n + 2k + 2 summing to at most INT_MAX.
Graph lower_bound_family(int n, std::vector<int>* copy_offsets = nullptr);

/// k = floor(n^(1/(2*alpha))) as used by the lower-bound construction.
/// Requires n, alpha >= 1.
int lower_bound_k(int n, int alpha);

/// Three-level fat-tree (k-ary) as used in data-center topologies:
/// k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 core switches.
/// Capacities grow towards the core. Requires an even k >= 2 with
/// k^3 / 2 (the link count) <= INT_MAX.
Graph fat_tree(int k);

/// Abilene-inspired 11-node US research WAN backbone (a standard topology in
/// the traffic-engineering literature the paper cites, e.g. SMORE). Unit
/// capacities scaled by `capacity`.
Graph abilene(double capacity = 1.0);

/// Random geometric graph on the unit square: n vertices, edges within
/// `radius`, conditioned on connectivity by attaching stragglers to their
/// nearest neighbour. Capacity of an edge is 1.
Graph random_geometric(int n, double radius, Rng& rng);

/// "Dilation trap" (Section 7 motivation, after [GHZ21]): a single direct
/// unit-capacity edge from s=0 to t=1, plus `detour_length` long disjoint
/// chains of high capacity connecting them. Congestion-only optimization
/// routes over the long chains; completion time must balance.
Graph dilation_trap(int detour_length, int num_detours, double detour_capacity);

/// Path of `num_cliques` cliques of size `clique_size`, consecutive cliques
/// sharing one cut vertex. Useful for hop-constrained routing tests.
Graph path_of_cliques(int num_cliques, int clique_size);

/// The Corollary 6.2 auxiliary construction, for a list of pairs: for each
/// pair (s_i, t_i) add two fresh vertices a_i, b_i with unit edges (a_i, s_i)
/// and (t_i, b_i). Then cut(a_i, b_i) = 1, so an (alpha-1+cut)-sample
/// between the auxiliary vertices is exactly an alpha-sample between the
/// original endpoints — the reduction the paper uses to drop the cut term
/// for {0,1}-demands. `aux`, if non-null, receives (a_i, b_i) per pair.
Graph auxiliary_pair_split(const Graph& g,
                           const std::vector<std::pair<int, int>>& pairs,
                           std::vector<std::pair<int, int>>* aux = nullptr);

}  // namespace sor::gen

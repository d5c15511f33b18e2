#include "oblivious/valiant.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "api/backend_registry.h"

namespace sor {

void append_bit_fix_walk(Path& walk, int from, int to,
                         const std::vector<int>& dims) {
  assert(!walk.empty() && walk.back() == from);
  int current = from;
  for (int d : dims) {
    const int bit = 1 << d;
    if ((current & bit) != (to & bit)) {
      current ^= bit;
      walk.push_back(current);
    }
  }
  assert(current == to);
}

ValiantRouting::ValiantRouting(const Graph& g, int dim) : g_(&g), dim_(dim) {
  assert(g.num_vertices() == (1 << dim));
}

Path ValiantRouting::sample_path(int s, int t, Rng& rng) const {
  assert(s != t);
  const int w = static_cast<int>(rng.uniform_u64(
      static_cast<std::uint64_t>(g_->num_vertices())));
  std::vector<int> dims(static_cast<std::size_t>(dim_));
  for (int d = 0; d < dim_; ++d) dims[static_cast<std::size_t>(d)] = d;

  Path walk = {s};
  rng.shuffle(dims);
  append_bit_fix_walk(walk, s, w, dims);
  rng.shuffle(dims);
  append_bit_fix_walk(walk, w, t, dims);
  return simplify_walk(walk);
}

GreedyBitFixRouting::GreedyBitFixRouting(const Graph& g, int dim)
    : g_(&g), dim_(dim) {
  assert(g.num_vertices() == (1 << dim));
}

Path GreedyBitFixRouting::path(int s, int t) const {
  assert(s != t);
  std::vector<int> dims(static_cast<std::size_t>(dim_));
  for (int d = 0; d < dim_; ++d) dims[static_cast<std::size_t>(d)] = d;
  Path walk = {s};
  append_bit_fix_walk(walk, s, t, dims);
  return walk;  // bit-fixing along distinct dimensions is already simple
}

Path GreedyBitFixRouting::sample_path(int s, int t, Rng& /*rng*/) const {
  return path(s, t);
}

namespace detail {
namespace {

/// Verifies `g` is the dim-dimensional hypercube (vertex ids are bit
/// strings, every edge flips exactly one bit) and returns dim. The edge
/// check matters: a 4x4 torus has the same vertex and edge counts as the
/// 4-cube but bit-fixing walks are not paths in it.
int hypercube_dim_or_throw(const Graph& g, const BackendSpec& spec,
                           const char* backend) {
  int dim = spec.param_int("dim", 0);
  if (dim == 0) {
    while (dim < 24 && (1 << dim) < g.num_vertices()) ++dim;
  }
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(std::string(backend) + ": " + why +
                                " (backend requires gen::hypercube)");
  };
  if (dim < 1 || dim > 20 || g.num_vertices() != (1 << dim)) {
    fail("graph does not have 2^dim vertices");
  }
  if (g.num_edges() != dim * (1 << (dim - 1))) {
    fail("graph does not have dim * 2^(dim-1) edges");
  }
  for (const Edge& e : g.edges()) {
    const int diff = e.u ^ e.v;
    if (diff == 0 || (diff & (diff - 1)) != 0) {
      fail("an edge does not flip exactly one bit");
    }
  }
  return dim;
}

}  // namespace

void register_hypercube_backends(BackendRegistry& registry) {
  registry.add(
      "valiant",
      {"Valiant-Brebner two-leg random-waypoint bit fixing (hypercubes)",
       {"dim"},
       [](const Graph& g, const BackendSpec& spec, Rng&,
          util::ThreadPool*) -> std::unique_ptr<ObliviousRouting> {
         return std::make_unique<ValiantRouting>(
             g, hypercube_dim_or_throw(g, spec, "valiant"));
       }});
  registry.add(
      "greedy_bitfix",
      {"deterministic greedy bit fixing, the 1-path baseline (hypercubes)",
       {"dim"},
       [](const Graph& g, const BackendSpec& spec, Rng&,
          util::ThreadPool*) -> std::unique_ptr<ObliviousRouting> {
         return std::make_unique<GreedyBitFixRouting>(
             g, hypercube_dim_or_throw(g, spec, "greedy_bitfix"));
       }});
}

}  // namespace detail

}  // namespace sor

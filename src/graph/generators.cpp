#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace sor::gen {

namespace {

// Vertex and edge ids are ints: every count a generator builds must fit.
constexpr std::int64_t kMaxIds = std::numeric_limits<int>::max();

/// The argument check of a generator with a documented domain, in every
/// build type: outside it, the generator would index past its buffers or
/// overflow its vertex count.
void require(bool ok, const char* generator, const char* domain) {
  if (!ok) {
    throw std::invalid_argument(std::string("gen::") + generator +
                                ": requires " + domain);
  }
}

}  // namespace

Graph hypercube(int dim) {
  require(dim >= 1 && dim <= 20, "hypercube", "1 <= dim <= 20");
  const int n = 1 << dim;
  Graph g(n);
  for (int v = 0; v < n; ++v) {
    for (int b = 0; b < dim; ++b) {
      const int w = v ^ (1 << b);
      if (v < w) g.add_edge(v, w);
    }
  }
  return g;
}

Graph grid(int rows, int cols, bool wrap) {
  require(rows >= 1 && cols >= 1 &&
              static_cast<std::int64_t>(rows) * cols <= kMaxIds / 2,
          "grid", "rows, cols >= 1 and 2 * rows * cols <= INT_MAX");
  Graph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      else if (wrap && cols > 2) g.add_edge(id(r, c), id(r, 0));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
      else if (wrap && rows > 2) g.add_edge(id(r, c), id(0, c));
    }
  }
  return g;
}

Graph random_regular(int n, int d, Rng& rng) {
  require(n >= 2 && d >= 1 && d < n && (n % 2 == 0 || d % 2 == 0) &&
              static_cast<std::int64_t>(n) * d <= kMaxIds,
          "random_regular", "1 <= d < n, n * d even and n * d <= INT_MAX");
  // Configuration model: pair up n*d half-edge stubs uniformly; redraw
  // pairings that would create a self-loop by swapping with a random stub.
  std::vector<int> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  for (int attempt = 0; attempt < 200; ++attempt) {
    rng.shuffle(stubs);
    bool ok = true;
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      if (stubs[i] == stubs[i + 1]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    Graph g(n);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      g.add_edge(stubs[i], stubs[i + 1]);
    }
    if (g.is_connected()) return g;
  }
  // Overwhelmingly unlikely for d >= 3; fall back to a Hamiltonian-cycle
  // based d-regular-ish construction that is always connected.
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  for (int j = 2; j <= d - 1; ++j) {
    for (int v = 0; v < n; ++v) {
      const int w = (v + j) % n;
      if (v < w) g.add_edge(v, w);
    }
  }
  return g;
}

Graph erdos_renyi_connected(int n, double p, Rng& rng) {
  assert(n >= 1);
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v);
    }
  }
  // Attach any disconnected component to a random already-reached vertex.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  std::vector<int> reached = {0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int e : g.incident(v)) {
      const int w = g.edge(e).other(v);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        reached.push_back(w);
        stack.push_back(w);
      }
    }
  }
  for (int v = 0; v < n; ++v) {
    if (!seen[static_cast<std::size_t>(v)]) {
      const int anchor =
          reached[static_cast<std::size_t>(rng.uniform_u64(reached.size()))];
      g.add_edge(v, anchor);
      seen[static_cast<std::size_t>(v)] = 1;
      reached.push_back(v);
      // Pull in v's whole component.
      std::vector<int> comp_stack = {v};
      while (!comp_stack.empty()) {
        const int x = comp_stack.back();
        comp_stack.pop_back();
        for (int e : g.incident(x)) {
          const int w = g.edge(e).other(x);
          if (!seen[static_cast<std::size_t>(w)]) {
            seen[static_cast<std::size_t>(w)] = 1;
            reached.push_back(w);
            comp_stack.push_back(w);
          }
        }
      }
    }
  }
  return g;
}

Graph complete(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph two_cliques(int n, int bridges) {
  assert(n >= 2 && bridges >= 1 && bridges <= n);
  Graph g(2 * n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      g.add_edge(u, v);
      g.add_edge(n + u, n + v);
    }
  }
  for (int i = 0; i < bridges; ++i) g.add_edge(i, n + i);
  return g;
}

Graph lower_bound_gadget(int n, int k) {
  // 2n + 2 + k vertices and 2n + 2k edges, both at most 2n + 2k + 2.
  require(n >= 1 && k >= 1 &&
              2 * (std::int64_t{n} + k) + 2 <= kMaxIds,
          "lower_bound_gadget", "n, k >= 1 and 2n + 2k + 2 <= INT_MAX");
  GadgetLayout layout{n, k};
  Graph g(layout.num_vertices());
  for (int i = 0; i < n; ++i) {
    g.add_edge(layout.left_leaf(i), layout.left_center());
    g.add_edge(layout.right_leaf(i), layout.right_center());
  }
  for (int i = 0; i < k; ++i) {
    g.add_edge(layout.left_center(), layout.middle(i));
    g.add_edge(layout.middle(i), layout.right_center());
  }
  return g;
}

int lower_bound_k(int n, int alpha) {
  require(n >= 1 && alpha >= 1, "lower_bound_k", "n, alpha >= 1");
  const double value = std::pow(static_cast<double>(n),
                                1.0 / (2.0 * static_cast<double>(alpha)));
  // Guard against floating point landing just under an integer.
  return std::max(1, static_cast<int>(std::floor(value + 1e-9)));
}

Graph lower_bound_family(int n, std::vector<int>* copy_offsets) {
  require(n >= 2, "lower_bound_family", "n >= 2");
  const int max_alpha = static_cast<int>(std::floor(std::log2(n)));
  // Copy alpha has 2n + 2 + k vertices and 2n + 2k edges plus the bridge
  // from the previous copy, both at most 2n + 2k + 2.
  std::int64_t ids = 0;
  for (int alpha = 1; alpha <= max_alpha; ++alpha) {
    ids += 2 * (std::int64_t{n} + lower_bound_k(n, alpha)) + 2;
  }
  require(ids <= kMaxIds, "lower_bound_family",
          "n >= 2 with the copies' 2n + 2k + 2 summing to <= INT_MAX");
  std::vector<std::pair<int, int>> copies;  // (offset, size)
  int total = 0;
  for (int alpha = 1; alpha <= max_alpha; ++alpha) {
    const int k = lower_bound_k(n, alpha);
    copies.emplace_back(total, 2 * n + 2 + k);
    total += 2 * n + 2 + k;
  }
  Graph g(total);
  if (copy_offsets) copy_offsets->clear();
  for (int alpha = 1; alpha <= max_alpha; ++alpha) {
    const int k = lower_bound_k(n, alpha);
    const int off = copies[static_cast<std::size_t>(alpha - 1)].first;
    if (copy_offsets) copy_offsets->push_back(off);
    GadgetLayout layout{n, k};
    for (int i = 0; i < n; ++i) {
      g.add_edge(off + layout.left_leaf(i), off + layout.left_center());
      g.add_edge(off + layout.right_leaf(i), off + layout.right_center());
    }
    for (int i = 0; i < k; ++i) {
      g.add_edge(off + layout.left_center(), off + layout.middle(i));
      g.add_edge(off + layout.middle(i), off + layout.right_center());
    }
    if (alpha > 1) {
      // Bridge the previous copy's right center to this copy's left center.
      const int prev_off = copies[static_cast<std::size_t>(alpha - 2)].first;
      const int prev_k = lower_bound_k(n, alpha - 1);
      GadgetLayout prev{n, prev_k};
      g.add_edge(prev_off + prev.right_center(), off + layout.left_center());
    }
  }
  return g;
}

Graph fat_tree(int k) {
  // k^3/2 links, more than the 5k^2/4 switches; bounding k^2 first keeps
  // k^3 in range.
  const std::int64_t wide = k;
  require(k >= 2 && k % 2 == 0 && wide * wide <= kMaxIds &&
              wide * wide * wide / 2 <= kMaxIds,
          "fat_tree", "an even k >= 2 with k^3 / 2 <= INT_MAX");
  const int half = k / 2;
  const int num_edge = k * half;   // edge switches
  const int num_aggr = k * half;   // aggregation switches
  const int num_core = half * half;
  Graph g(num_edge + num_aggr + num_core);
  auto edge_sw = [&](int pod, int i) { return pod * half + i; };
  auto aggr_sw = [&](int pod, int i) { return num_edge + pod * half + i; };
  auto core_sw = [&](int i, int j) { return num_edge + num_aggr + i * half + j; };
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        g.add_edge(edge_sw(pod, e), aggr_sw(pod, a), 1.0);
      }
    }
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        g.add_edge(aggr_sw(pod, a), core_sw(a, c), 2.0);
      }
    }
  }
  return g;
}

Graph abilene(double capacity) {
  // 11 PoPs: 0 Seattle, 1 Sunnyvale, 2 Los Angeles, 3 Denver, 4 Kansas City,
  // 5 Houston, 6 Chicago, 7 Indianapolis, 8 Atlanta, 9 Washington DC,
  // 10 New York.
  Graph g(11);
  const int links[][2] = {{0, 1}, {0, 3}, {1, 2}, {1, 3}, {2, 5},  {3, 4},
                          {4, 5}, {4, 6}, {5, 8}, {6, 7}, {7, 8},  {7, 4},
                          {8, 9}, {9, 10}, {6, 10}};
  for (const auto& link : links) g.add_edge(link[0], link[1], capacity);
  return g;
}

Graph random_geometric(int n, double radius, Rng& rng) {
  assert(n >= 1 && radius > 0.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = rng.uniform_double();
    y[static_cast<std::size_t>(v)] = rng.uniform_double();
  }
  auto dist2 = [&](int u, int v) {
    const double dx = x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
    const double dy = y[static_cast<std::size_t>(u)] - y[static_cast<std::size_t>(v)];
    return dx * dx + dy * dy;
  };
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (dist2(u, v) <= radius * radius) g.add_edge(u, v);
    }
  }
  // Ensure connectivity: repeatedly connect the closest cross-component pair.
  while (!g.is_connected()) {
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::vector<int> stack = {0};
    seen[0] = 1;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int e : g.incident(v)) {
        const int w = g.edge(e).other(v);
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          stack.push_back(w);
        }
      }
    }
    int best_u = -1;
    int best_v = -1;
    double best = 1e18;
    for (int u = 0; u < n; ++u) {
      if (!seen[static_cast<std::size_t>(u)]) continue;
      for (int v = 0; v < n; ++v) {
        if (seen[static_cast<std::size_t>(v)]) continue;
        if (dist2(u, v) < best) {
          best = dist2(u, v);
          best_u = u;
          best_v = v;
        }
      }
    }
    g.add_edge(best_u, best_v);
  }
  return g;
}

Graph dilation_trap(int detour_length, int num_detours,
                    double detour_capacity) {
  assert(detour_length >= 2 && num_detours >= 1 && detour_capacity > 0.0);
  // Vertices: 0 = s, 1 = t, then num_detours chains of detour_length - 1
  // interior vertices each.
  Graph g(2 + num_detours * (detour_length - 1));
  g.add_edge(0, 1, 1.0);
  int next = 2;
  for (int c = 0; c < num_detours; ++c) {
    int prev = 0;
    for (int i = 0; i < detour_length - 1; ++i) {
      g.add_edge(prev, next, detour_capacity);
      prev = next;
      ++next;
    }
    g.add_edge(prev, 1, detour_capacity);
  }
  return g;
}

Graph path_of_cliques(int num_cliques, int clique_size) {
  assert(num_cliques >= 1 && clique_size >= 2);
  // Consecutive cliques share one vertex.
  const int n = num_cliques * (clique_size - 1) + 1;
  Graph g(n);
  for (int c = 0; c < num_cliques; ++c) {
    const int base = c * (clique_size - 1);
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        g.add_edge(base + i, base + j);
      }
    }
  }
  return g;
}

Graph auxiliary_pair_split(const Graph& g,
                           const std::vector<std::pair<int, int>>& pairs,
                           std::vector<std::pair<int, int>>* aux) {
  const int n = g.num_vertices();
  Graph out(n + 2 * static_cast<int>(pairs.size()));
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.v, e.capacity);
  if (aux) aux->clear();
  int next = n;
  for (const auto& [s, t] : pairs) {
    const int a = next++;
    const int b = next++;
    out.add_edge(a, s, 1.0);
    out.add_edge(t, b, 1.0);
    if (aux) aux->emplace_back(a, b);
  }
  return out;
}

}  // namespace sor::gen

#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sor {

Graph::Graph(int num_vertices) : n_(num_vertices) {
  assert(num_vertices >= 0);
  incident_.resize(static_cast<std::size_t>(num_vertices));
}

std::uint64_t Graph::next_topology_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::size_t Graph::find_pair_slot(int u, int v) const {
  const std::size_t mask = pair_slots_.size() - 1;
  const std::uint64_t key =
      (std::uint64_t{static_cast<std::uint32_t>(u)} << 32) |
      static_cast<std::uint32_t>(v);
  const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;  // Fibonacci hashing
  std::size_t at = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
  while (pair_slots_[at].u >= 0 &&
         (pair_slots_[at].u != u || pair_slots_[at].v != v)) {
    at = (at + 1) & mask;
  }
  return at;
}

int Graph::add_edge(int u, int v, double capacity) {
  assert(u >= 0 && u < n_);
  assert(v >= 0 && v < n_);
  assert(u != v);
  assert(capacity > 0.0);
  const int id = static_cast<int>(edges_.size());
  edges_.push_back(Edge{u, v, capacity});
  incident_[static_cast<std::size_t>(u)].push_back(id);
  incident_[static_cast<std::size_t>(v)].push_back(id);
  if (2 * (num_pairs_ + 1) > pair_slots_.size()) {
    // Keep the load at most 1/2: double and re-insert every pair.
    const std::size_t size = std::max<std::size_t>(16, 2 * pair_slots_.size());
    const std::vector<PairSlot> previous =
        std::exchange(pair_slots_, std::vector<PairSlot>(size));
    for (const PairSlot& slot : previous) {
      if (slot.u >= 0) pair_slots_[find_pair_slot(slot.u, slot.v)] = slot;
    }
  }
  const int lo = std::min(u, v);
  const int hi = std::max(u, v);
  PairSlot& slot = pair_slots_[find_pair_slot(lo, hi)];
  if (slot.u < 0) {
    slot = PairSlot{lo, hi, id};
    ++num_pairs_;
  } else if (edges_[static_cast<std::size_t>(slot.edge)].capacity < capacity) {
    slot.edge = id;
  }
  topology_stamp_ = next_topology_stamp();
  return id;
}

void Graph::set_capacity(int e, double capacity) {
  // Real validation, not assert-only: a zero/NaN capacity would silently
  // poison every congestion ratio computed afterwards, so reject it in
  // release builds too.
  if (e < 0 || e >= num_edges()) {
    throw std::invalid_argument("Graph::set_capacity: edge id out of range");
  }
  if (!std::isfinite(capacity) || !(capacity > 0.0)) {
    throw std::invalid_argument(
        "Graph::set_capacity: capacity must be finite and > 0");
  }
  Edge& edge = edges_[static_cast<std::size_t>(e)];
  edge.capacity = capacity;
  // Re-resolve the pair's canonical edge: incident ids are in insertion
  // order (increasing), so keeping the first strict maximum reproduces
  // add_edge's max-capacity/smallest-id choice.
  int best = -1;
  double best_cap = 0.0;
  for (int id : incident_[static_cast<std::size_t>(edge.u)]) {
    const Edge& cand = edges_[static_cast<std::size_t>(id)];
    if (cand.other(edge.u) != edge.v) continue;
    if (best < 0 || cand.capacity > best_cap) {
      best = id;
      best_cap = cand.capacity;
    }
  }
  pair_slots_[find_pair_slot(std::min(edge.u, edge.v),
                             std::max(edge.u, edge.v))]
      .edge = best;
}

int Graph::edge_between(int u, int v) const {
  if (pair_slots_.empty()) return -1;
  if (u > v) std::swap(u, v);
  const PairSlot& slot = pair_slots_[find_pair_slot(u, v)];
  return slot.u < 0 ? -1 : slot.edge;
}

bool Graph::is_connected() const {
  if (n_ <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int e : incident(v)) {
      const int w = edge(e).other(v);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == n_;
}

double Graph::total_capacity() const {
  double total = 0.0;
  for (const Edge& e : edges_) total += e.capacity;
  return total;
}

double Graph::boundary_capacity(const std::vector<char>& in_set) const {
  assert(static_cast<int>(in_set.size()) == n_);
  double total = 0.0;
  for (const Edge& e : edges_) {
    if (in_set[static_cast<std::size_t>(e.u)] !=
        in_set[static_cast<std::size_t>(e.v)]) {
      total += e.capacity;
    }
  }
  return total;
}

bool is_valid_path(const Graph& g, const Path& path, int s, int t) {
  if (path.empty()) return false;
  if (path.front() != s || path.back() != t) return false;
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const int v = path[i];
    if (v < 0 || v >= g.num_vertices()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
    if (i + 1 < path.size() && g.edge_between(v, path[i + 1]) < 0) return false;
  }
  return true;
}

std::vector<int> path_edge_ids(const Graph& g, const Path& path) {
  std::vector<int> ids;
  if (path.size() < 2) return ids;
  ids.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const int e = g.edge_between(path[i], path[i + 1]);
    assert(e >= 0 && "non-adjacent consecutive path vertices");
    ids.push_back(e);
  }
  return ids;
}

Path simplify_walk(const Path& walk) {
  thread_local WalkSimplifier simplifier;
  simplifier.clear();
  for (int v : walk) simplifier.step(v);
  return simplifier.path();
}

void WalkSimplifier::clear() {
  for (int v : path_) position_[static_cast<std::size_t>(v)] = -1;
  path_.clear();
}

void WalkSimplifier::step(int v) {
  assert(v >= 0);
  const std::size_t sv = static_cast<std::size_t>(v);
  if (sv >= position_.size()) position_.resize(sv + 1, -1);
  const int at = position_[sv];
  if (at >= 0) {
    // Cut the loop: drop everything after v's first occurrence.
    for (std::size_t i = static_cast<std::size_t>(at) + 1; i < path_.size();
         ++i) {
      position_[static_cast<std::size_t>(path_[i])] = -1;
    }
    path_.resize(static_cast<std::size_t>(at) + 1);
  } else {
    // Position after the append, so a throwing push_back leaves the two
    // consistent and clear() still restores every entry it set.
    path_.push_back(v);
    position_[sv] = static_cast<int>(path_.size()) - 1;
  }
}

}  // namespace sor

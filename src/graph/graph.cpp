#include "graph/graph.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sor {

Graph::Graph(int num_vertices) : n_(num_vertices) {
  assert(num_vertices >= 0);
  incident_.resize(static_cast<std::size_t>(num_vertices));
}

std::uint64_t Graph::next_topology_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::int64_t Graph::pair_key(int u, int v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::int64_t>(u) << 32) | static_cast<std::uint32_t>(v);
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
  auto [it, inserted] = canonical_edge_.try_emplace(pair_key(u, v), id);
  if (!inserted && edges_[static_cast<std::size_t>(it->second)].capacity <
                       capacity) {
    it->second = id;
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
  canonical_edge_[pair_key(edge.u, edge.v)] = best;
}

int Graph::edge_between(int u, int v) const {
  auto it = canonical_edge_.find(pair_key(u, v));
  return it == canonical_edge_.end() ? -1 : it->second;
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
  Path out;
  if (walk.empty()) return out;
  std::unordered_map<int, std::size_t> position;
  out.reserve(walk.size());
  for (int v : walk) {
    auto it = position.find(v);
    if (it != position.end()) {
      // Cut the loop: drop everything after the first occurrence of v.
      for (std::size_t i = it->second + 1; i < out.size(); ++i) {
        position.erase(out[i]);
      }
      out.resize(it->second + 1);
    } else {
      position.emplace(v, out.size());
      out.push_back(v);
    }
  }
  return out;
}

Path concatenate_walks(const Path& first, const Path& second) {
  assert(!first.empty() && !second.empty());
  assert(first.back() == second.front());
  Path out = first;
  out.insert(out.end(), second.begin() + 1, second.end());
  return out;
}

}  // namespace sor

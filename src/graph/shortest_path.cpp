#include "graph/shortest_path.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <utility>

namespace sor {

std::vector<int> bfs_distances(const Graph& g, int source) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()),
                        kUnreachable);
  dist[static_cast<std::size_t>(source)] = 0;
  std::vector<int> frontier = {source};
  std::vector<int> next;
  while (!frontier.empty()) {
    next.clear();
    for (int v : frontier) {
      const int dv = dist[static_cast<std::size_t>(v)];
      for (int e : g.incident(v)) {
        const int w = g.edge(e).other(v);
        if (dist[static_cast<std::size_t>(w)] == kUnreachable) {
          dist[static_cast<std::size_t>(w)] = dv + 1;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::vector<std::vector<int>> all_pairs_hop_distances(const Graph& g) {
  std::vector<std::vector<int>> dist;
  dist.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    dist.push_back(bfs_distances(g, v));
  }
  return dist;
}

FlatAdjacency::FlatAdjacency(const Graph& g) {
  const int n = g.num_vertices();
  first_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    first_[static_cast<std::size_t>(v) + 1] =
        first_[static_cast<std::size_t>(v)] +
        static_cast<std::int64_t>(g.incident(v).size());
  }
  arcs_.resize(static_cast<std::size_t>(first_[static_cast<std::size_t>(n)]));
  for (int v = 0; v < n; ++v) {
    std::int64_t offset = first_[static_cast<std::size_t>(v)];
    for (int e : g.incident(v)) {
      arcs_[static_cast<std::size_t>(offset++)] = Arc{g.edge(e).other(v), e};
    }
  }
}

const FlatAdjacency& FlatAdjacencyCache::get(const Graph& g) {
  if (stamp_ != g.topology_stamp()) {
    adj_.emplace(g);
    stamp_ = g.topology_stamp();
  }
  return *adj_;
}

namespace {

// 4-ary min-heap primitives over the scratch vector. Items are distinct
// (a vertex re-enters only with a strictly smaller dist) and compared by
// the pair's total order, so the pop sequence equals any other correct
// heap's — this is purely a constant-factor layout choice (shallower
// sift-downs, cache-friendlier child blocks).
using HeapItem = std::pair<double, int>;

inline void heap4_push(std::vector<HeapItem>& a, double d, int v) {
  a.emplace_back(d, v);
  std::size_t i = a.size() - 1;
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (a[p] <= a[i]) break;
    std::swap(a[p], a[i]);
    i = p;
  }
}

inline HeapItem heap4_pop(std::vector<HeapItem>& a) {
  const HeapItem top = a.front();
  const HeapItem last = a.back();
  a.pop_back();
  if (!a.empty()) {
    std::size_t i = 0;
    const std::size_t n = a.size();
    for (;;) {
      const std::size_t c = (i << 2) + 1;
      if (c >= n) break;
      std::size_t best = c;
      const std::size_t end = std::min(c + 4, n);
      for (std::size_t j = c + 1; j < end; ++j) {
        if (a[j] < a[best]) best = j;
      }
      if (a[best] < last) {
        a[i] = a[best];
        i = best;
      } else {
        break;
      }
    }
    a[i] = last;
  }
  return top;
}

}  // namespace

void dijkstra_into_targets(const FlatAdjacency& adj, int source,
                           const std::vector<double>& length,
                           std::span<double> dist, std::span<int> parent_edge,
                           DijkstraScratch& scratch,
                           std::span<const char> is_target, int num_targets) {
  assert(static_cast<int>(dist.size()) == adj.num_vertices());
  assert(parent_edge.empty() ||
         static_cast<int>(parent_edge.size()) == adj.num_vertices());
  const bool full_sweep = is_target.empty();
  assert(full_sweep ? num_targets == 0
                    : static_cast<int>(is_target.size()) ==
                          adj.num_vertices());
  const double inf = std::numeric_limits<double>::infinity();
  std::fill(dist.begin(), dist.end(), inf);
  std::fill(parent_edge.begin(), parent_edge.end(), -1);
  std::vector<HeapItem>& heap = scratch.heap;
  heap.clear();
  dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace_back(0.0, source);
  int remaining = num_targets;
  while (!heap.empty()) {
    const auto [d, v] = heap4_pop(heap);
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    if (!full_sweep && is_target[static_cast<std::size_t>(v)] &&
        --remaining == 0) {
      return;
    }
    for (const FlatAdjacency::Arc arc : adj.arcs(v)) {
      assert(full_sweep ? length[static_cast<std::size_t>(arc.edge)] >= 0.0
                        : length[static_cast<std::size_t>(arc.edge)] > 0.0);
      const double nd = d + length[static_cast<std::size_t>(arc.edge)];
      if (nd < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = nd;
        if (!parent_edge.empty()) {
          parent_edge[static_cast<std::size_t>(arc.to)] = arc.edge;
        }
        heap4_push(heap, nd, arc.to);
      }
    }
  }
}

std::vector<double> dijkstra(const Graph& g, int source,
                             const std::vector<double>& length,
                             std::vector<int>* parent_edge) {
  assert(static_cast<int>(length.size()) == g.num_edges());
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  if (parent_edge) parent_edge->assign(n, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (int e : g.incident(v)) {
      assert(length[static_cast<std::size_t>(e)] >= 0.0);
      const int w = g.edge(e).other(v);
      const double nd = d + length[static_cast<std::size_t>(e)];
      if (nd < dist[static_cast<std::size_t>(w)]) {
        dist[static_cast<std::size_t>(w)] = nd;
        if (parent_edge) (*parent_edge)[static_cast<std::size_t>(w)] = e;
        heap.emplace(nd, w);
      }
    }
  }
  return dist;
}

Path shortest_path(const Graph& g, int s, int t,
                   const std::vector<double>& length) {
  std::vector<int> parent_edge;
  const auto dist = dijkstra(g, s, length, &parent_edge);
  if (dist[static_cast<std::size_t>(t)] ==
      std::numeric_limits<double>::infinity()) {
    return {};
  }
  Path reversed = {t};
  int v = t;
  while (v != s) {
    const int e = parent_edge[static_cast<std::size_t>(v)];
    v = g.edge(e).other(v);
    reversed.push_back(v);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

Path shortest_path_hops(const Graph& g, int s, int t) {
  std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  return shortest_path(g, s, t, unit);
}

ShortestPathSampler::ShortestPathSampler(const Graph& g)
    : g_(&g), dist_(all_pairs_hop_distances(g)) {}

Path ShortestPathSampler::walk_back(int s, int t, Rng* rng) const {
  const auto& ds = dist_[static_cast<std::size_t>(s)];
  assert(ds[static_cast<std::size_t>(t)] != kUnreachable);
  // Walk from t back towards s along tight edges, collecting vertices.
  Path reversed = {t};
  int v = t;
  std::vector<int> choices;
  while (v != s) {
    choices.clear();
    const int dv = ds[static_cast<std::size_t>(v)];
    for (int e : g_->incident(v)) {
      const int w = g_->edge(e).other(v);
      if (ds[static_cast<std::size_t>(w)] == dv - 1) choices.push_back(w);
    }
    assert(!choices.empty());
    int pick;
    if (rng) {
      pick = choices[static_cast<std::size_t>(rng->uniform_u64(choices.size()))];
    } else {
      pick = *std::min_element(choices.begin(), choices.end());
    }
    reversed.push_back(pick);
    v = pick;
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

Path ShortestPathSampler::sample(int s, int t, Rng& rng) const {
  return walk_back(s, t, &rng);
}

Path ShortestPathSampler::deterministic(int s, int t) const {
  return walk_back(s, t, nullptr);
}

}  // namespace sor

#include "sim/packet_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sor {
namespace {

struct PacketState {
  int id = 0;
  int position = 0;   ///< hops taken so far (index of its next edge)
  int priority = 0;   ///< for kRandomPriority (lower = first)
  int enqueued_at = 0;
};

}  // namespace

double SimulationResult::makespan_over_cd() const {
  const double cd = congestion + static_cast<double>(dilation);
  return cd > 0.0 ? static_cast<double>(makespan) / cd : 0.0;
}

SimulationResult simulate_packets(const Graph& g,
                                  std::span<const std::span<const int>> packets,
                                  SchedulePolicy policy, Rng& rng) {
  SimulationResult result;
  const std::size_t num_packets = packets.size();
  result.traces.assign(num_packets, {});

  // Static congestion/dilation of the input routing.
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t p = 0; p < num_packets; ++p) {
    result.traces[p].hops = static_cast<int>(packets[p].size());
    result.dilation = std::max(result.dilation, result.traces[p].hops);
    for (int e : packets[p]) load[static_cast<std::size_t>(e)] += 1.0;
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    result.congestion = std::max(
        result.congestion, load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }

  // Per-edge waiting queues; a packet sits in the queue of its next edge.
  std::vector<std::vector<PacketState>> queue(
      static_cast<std::size_t>(g.num_edges()));
  std::size_t remaining = 0;
  for (std::size_t p = 0; p < num_packets; ++p) {
    if (result.traces[p].hops == 0) {
      result.traces[p].delivered_at = 0;
      continue;
    }
    PacketState st;
    st.id = static_cast<int>(p);
    st.position = 0;
    st.priority = static_cast<int>(rng.uniform_u64(1u << 30));
    const int e = packets[p].front();
    queue[static_cast<std::size_t>(e)].push_back(st);
    ++remaining;
  }

  std::vector<PacketState> movers;
  int time = 0;
  while (remaining > 0) {
    ++time;
    assert(time < 1000000 && "simulation failed to make progress");
    movers.clear();
    // Phase 1: every edge picks its winners for this step.
    for (int e = 0; e < g.num_edges(); ++e) {
      auto& q = queue[static_cast<std::size_t>(e)];
      if (q.empty()) continue;
      const std::size_t slots = static_cast<std::size_t>(
          std::max(1.0, std::floor(g.edge(e).capacity)));
      auto order = [&](const PacketState& a, const PacketState& b) {
        switch (policy) {
          case SchedulePolicy::kFifo:
            if (a.enqueued_at != b.enqueued_at) {
              return a.enqueued_at < b.enqueued_at;
            }
            return a.id < b.id;
          case SchedulePolicy::kFurthestToGo: {
            const int ra = result.traces[static_cast<std::size_t>(a.id)].hops -
                           a.position;
            const int rb = result.traces[static_cast<std::size_t>(b.id)].hops -
                           b.position;
            if (ra != rb) return ra > rb;
            return a.id < b.id;
          }
          case SchedulePolicy::kRandomPriority:
            if (a.priority != b.priority) return a.priority < b.priority;
            return a.id < b.id;
        }
        return a.id < b.id;
      };
      const std::size_t take = std::min(slots, q.size());
      std::partial_sort(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take),
                        q.end(), order);
      for (std::size_t i = 0; i < take; ++i) movers.push_back(q[i]);
      // Record waiting time for the ones left behind.
      for (std::size_t i = take; i < q.size(); ++i) {
        ++result.traces[static_cast<std::size_t>(q[i].id)].waited;
      }
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take));
    }
    // Phase 2: winners advance one hop; requeue or deliver.
    for (PacketState st : movers) {
      const std::size_t p = static_cast<std::size_t>(st.id);
      ++st.position;
      if (st.position == result.traces[p].hops) {
        result.traces[p].delivered_at = time;
        --remaining;
        continue;
      }
      const int e = packets[p][static_cast<std::size_t>(st.position)];
      st.enqueued_at = time;
      queue[static_cast<std::size_t>(e)].push_back(st);
    }
  }
  result.makespan = time;
  return result;
}

SimulationResult simulate_packets(const Graph& g,
                                  const std::vector<Path>& paths,
                                  SchedulePolicy policy, Rng& rng) {
  std::vector<std::vector<int>> edges;
  edges.reserve(paths.size());
  for (const Path& path : paths) {
    assert(!path.empty());
    edges.push_back(path_edge_ids(g, path));
  }
  const std::vector<std::span<const int>> packets(edges.begin(), edges.end());
  return simulate_packets(g, packets, policy, rng);
}

}  // namespace sor

// Store-and-forward packet scheduling simulator.
//
// The completion-time objective of Section 7 is "congestion + dilation"
// because, classically, any set of paths with congestion C and dilation D
// admits a schedule delivering every packet in O(C + D) steps [LMR94], and
// simple randomized-priority schedules achieve it. This simulator is the
// ground truth for that claim in our experiments: given an integral
// routing (one path per packet), it executes a discrete-time schedule
// where each edge forwards at most floor(capacity) packets per step, and
// reports the real makespan to compare against C + D.
//
// Scheduling policies:
//  * kFifo            — queue order, deterministic;
//  * kFurthestToGo    — prioritize packets with more remaining hops (the
//                       classic makespan-friendly heuristic);
//  * kRandomPriority  — each packet draws a random priority (the [LMR94]
//                       style schedule underlying the O(C+D) bound).
//
// A packet is the edge ids of its path, in travel order: the engine hands
// over the interned ids its rounding chose (IntegralSolution::candidates),
// so the simulated loads are the ones the route was solved over. The
// vertex-path overload is an adapter for callers outside the engine.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace sor {

enum class SchedulePolicy { kFifo, kFurthestToGo, kRandomPriority };

struct PacketTrace {
  int delivered_at = -1;  ///< time step of arrival at destination
  int hops = 0;           ///< path length
  int waited = 0;         ///< steps spent queued
};

struct SimulationResult {
  int makespan = 0;                 ///< last delivery time (steps)
  double congestion = 0.0;          ///< C of the input routing
  int dilation = 0;                 ///< D of the input routing
  std::vector<PacketTrace> traces;  ///< per-packet outcome
  /// makespan / (C + D): [LMR94]-style schedules keep this O(1).
  double makespan_over_cd() const;
};

/// Simulates forwarding every packet along its path, given as the edge ids
/// of a valid simple path in travel order (a packet with no edges is
/// delivered at step 0). Each time step, every edge transmits up to
/// max(1, floor(capacity)) packets, chosen by `policy`. Every policy draws
/// one priority from `rng` per packet with at least one hop, in packet
/// order. Terminates (every packet advances eventually) and returns the
/// full trace.
SimulationResult simulate_packets(const Graph& g,
                                  std::span<const std::span<const int>> packets,
                                  SchedulePolicy policy, Rng& rng);

/// Vertex-path adapter (one path per packet; each path a valid, non-empty
/// simple path): resolves each hop to its canonical edge with
/// path_edge_ids — the resolution PathSystem interning uses — then runs
/// the overload above.
SimulationResult simulate_packets(const Graph& g,
                                  const std::vector<Path>& paths,
                                  SchedulePolicy policy, Rng& rng);

}  // namespace sor

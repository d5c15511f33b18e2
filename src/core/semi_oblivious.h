// Stage 4 of the semi-oblivious pipeline (Definition 5.1): once the demand
// is revealed, adaptively choose sending rates over the pre-installed
// candidate paths to minimize the maximum edge congestion, and compare
// against the offline optimum.
#pragma once

#include <cstdint>
#include <optional>

#include "core/demand.h"
#include "core/path_system.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "lp/min_congestion.h"

namespace sor {

/// A fractional routing of a demand over a path system.
struct SemiObliviousSolution {
  std::vector<Commodity> commodities;           ///< demand support, in order
  /// The candidates the solve ran over, per commodity: the edge ids the
  /// path system interned at install. Rounding and packet simulation read
  /// these same ids.
  FlatCandidates candidates;
  std::vector<std::vector<double>> weights;     ///< rates per candidate
  std::vector<double> edge_load;
  double congestion = 0.0;     ///< exact cong of the returned weights
  double lower_bound = 0.0;    ///< dual bound on cong_R(P, d)
  int max_hops = 0;            ///< dilation of the support of the routing
  /// Why the restricted solve stopped (see MinCongestionOptions in
  /// lp/min_congestion.h) and the certified gap vs its own dual bound.
  SolveStatus status = SolveStatus::kCompleted;
  double optimality_gap = 0.0;
  /// Rounds the solve consumed (the warm-start rounds-saved currency;
  /// 0 for the exact-LP path, which has no round structure).
  int rounds_used = 0;
};

/// Routes `d` over `ps` with the restricted Frank–Wolfe solve. `ps` must be bound to `g` (its
/// interned edge ids index g's edges), and every support pair of `d` must
/// have at least one candidate path in `ps`.
SemiObliviousSolution route_fractional(const Graph& g, const PathSystem& ps,
                                       const Demand& d,
                                       const MinCongestionOptions& options = {});

/// Reusable scratch for route_fractional_into: the restricted solver's working
/// set and the solver result staging buffer. All capacity-retaining —
/// repeated routes through one scratch allocate nothing once warm, also
/// when their commodity and candidate counts vary (the spare rows keep what
/// a shrinking solution drops).
struct RouteScratch {
  MinCongestionScratch mwu;
  CongestionResult result;
  // Weight rows a shrinking SemiObliviousSolution handed back (see
  // resize_keeping_buffers).
  std::vector<std::vector<double>> spare_weights;
};

/// Scratch-threaded route: refills `out`'s (nested) buffers in place with
/// exactly what route_fractional would return — bit-identical fields, and
/// route_fractional is a thin wrapper over this — while every intermediate
/// lives in `scratch`. `hooks` reach the restricted solve.
void route_fractional_into(const Graph& g, const PathSystem& ps,
                           const Demand& d,
                           const MinCongestionOptions& options,
                           RouteScratch& scratch, SemiObliviousSolution& out,
                           const MwuHooks& hooks = {});

/// Exact LP variant (small instances; used for validation).
SemiObliviousSolution route_fractional_exact(const Graph& g,
                                             const PathSystem& ps,
                                             const Demand& d);

/// Offline optimal congestion opt_{G,R}(d) with certificates:
/// `upper` is the congestion of an explicit feasible fractional routing,
/// `lower` an LP-duality bound, so lower <= opt <= upper. Column generation
/// over the restricted solve with a Dijkstra pricer (see
/// min_congestion_by_columns_into): `lower` starts at distance_lower_bound
/// and only rises, and `upper` is the final restricted solve over the
/// columns found.
struct OptimalCongestion {
  double upper = 0.0;
  double lower = 0.0;
  /// Conservative scalar to divide measured congestion by when reporting
  /// competitive ratios (the max of lower and a trivial bound; > 0 whenever
  /// the demand is nonempty).
  double value() const { return lower > 0.0 ? lower : upper; }
  /// Why the final restricted solve stopped (the options' limits apply to
  /// each of the optimum's master solves too).
  SolveStatus status = SolveStatus::kCompleted;
};

/// Throws std::invalid_argument naming a pair of `d` that no path joins.
OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options = {});

/// Cheap distance-duality lower bound on opt_{G,R}(d) (no iteration):
/// opt >= sum_j d_j * dist_w(s_j, t_j) / sum_e cap_e w_e with w_e = 1/cap_e.
/// On unit capacities this is (sum_j d_j * hopdist(s_j,t_j)) / m. Used by
/// the large-scale benches where the optimum would dominate runtime.
/// One CSR Dijkstra per distinct demand source, stopped once that source's
/// last target is settled; the distances, and so the bound, are bit-identical
/// to full sweeps.
double distance_lower_bound(const Graph& g, const Demand& d);

/// The per-run Dijkstra state of the source-run loop the distance bound and
/// the optimum's pricer share: one Dijkstra row, the target mask, the heap,
/// and the CSR snapshot of the graph (kept across calls on the same
/// topology, see FlatAdjacencyCache).
struct SourceRunScratch {
  std::vector<double> dist;
  std::vector<char> is_target;
  DijkstraScratch dijkstra;
  FlatAdjacencyCache adj;
};

/// One slot of DistanceBoundScratch's memo: the pair (s, t) as the key
/// s << 32 | t, and dist_{1/cap}(s, t).
struct PairDistance {
  std::uint64_t key = 0;
  double dist = 0.0;
};

/// Reusable scratch for distance_lower_bound, with a memo of pair distances
/// under the lengths 1/cap_e. The bound depends only on the pairs and the
/// capacities, not on the amounts, so a call looks each commodity up and
/// runs one early-exit Dijkstra per distinct source that has a pair the
/// memo lacks, flagging only those targets.
///
/// Key: the graph's topology stamp plus `lengths`, bitwise. Every call
/// recomputes the lengths (O(m)) and compares them with the previous
/// call's; on any difference it empties the memo, keeping its capacity.
/// Bit-identity: an early-exit distance equals a full sweep's whatever
/// other targets its run flagged (dijkstra_into_targets), and the bound
/// sums d_j * dist in commodity order as before, so a memoized bound equals
/// the recomputed one bit for bit.
/// Storage: an open-addressing table with linear probing, so looking a
/// pair up or adding one costs O(1) however many pairs it holds.
/// Size: the distinct pairs seen since the last key change, at most
/// n(n-1); through the engine these are installed pairs. Each takes
/// 16 B in a table between 3/8 and 3/4 full, plus its 8 B slot index.
/// Capacity-retaining: emptying the table clears only the slots it
/// filled, so once warm a call allocates nothing, the first one after a
/// capacity edit included.
struct DistanceBoundScratch {
  std::vector<Commodity> commodities;
  std::vector<double> lengths;   ///< the last call's 1/cap_e
  std::uint64_t stamp = 0;       ///< the last call's topology stamp (0: none)
  std::vector<PairDistance> slots;   ///< the memo; a power-of-two size
  std::vector<std::size_t> filled;   ///< indices of the filled slots
  std::vector<Commodity> misses;     ///< this call's pairs not in the memo
  int dijkstra_runs = 0;         ///< Dijkstras the last call ran
  SourceRunScratch runs;
};

/// Scratch-threaded distance bound; identical result to the overload above,
/// whatever the memo holds. Runs one early-exit Dijkstra per distinct
/// source with a pair not seen since the last key change (none when every
/// pair is remembered) and leaves that count in scratch.dijkstra_runs.
double distance_lower_bound(const Graph& g, const Demand& d,
                            DistanceBoundScratch& scratch);

/// Reusable scratch for the optimum: the demand's commodities, the column
/// generation state, the Dijkstra pricer's state (its per-run Dijkstra
/// state, shortest-path tree and walk-back buffer; its lengths change on
/// every pricing round, so it keeps no memo), and the final solve's result.
/// Capacity-retaining: once warm, an optimum allocates nothing.
struct OptimumScratch {
  std::vector<Commodity> commodities;
  ColumnGenerationScratch columns;
  SourceRunScratch pricing;
  std::vector<int> parent_edge;
  std::vector<int> walk;
  CongestionResult result;
};

/// Scratch-threaded optimum; identical result to the overload above, through
/// a fresh or a reused scratch alike.
OptimalCongestion optimal_congestion(const Graph& g, const Demand& d,
                                     const MinCongestionOptions& options,
                                     OptimumScratch& scratch);

/// Competitive ratio of a semi-oblivious solution against the offline
/// optimum (uses the optimum's lower certificate, so the reported ratio is
/// an upper bound on the true ratio).
double competitive_ratio(const SemiObliviousSolution& solution,
                         const OptimalCongestion& opt);

}  // namespace sor

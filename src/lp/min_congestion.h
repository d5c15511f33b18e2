// Min-congestion routing solvers.
//
// Two regimes, one engine:
//  * restricted: route each commodity over an explicit candidate-path set
//    (Stage 4 of the semi-oblivious pipeline, Definition 5.1's cong_R(P, d)),
//  * free: route over all paths of the graph — the offline optimum
//    opt_{G,R}(d) the competitive ratio is measured against.
//
// Both are solved by multiplicative weights (Freund–Schapire) on the
// zero-sum game "router picks a path per commodity, adversary picks an
// edge", with the router best-responding to exponential edge weights. The
// returned congestion is the *exact* congestion of the averaged routing (a
// valid upper bound); `lower_bound` is an LP-duality certificate
//     opt >= sum_j d_j * dist_w(s_j, t_j) / sum_e cap_e * w_e
// so `congestion / lower_bound` bounds the solver's suboptimality.
//
// Exact reference solvers (dense simplex) are provided for small instances
// and used by the tests to validate the MWU engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/path_store.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "lp/simplex.h"

namespace sor {

namespace obs {
class ConvergenceSink;
}  // namespace obs

/// One source-destination pair with a demand amount (d(s,t) in the paper).
struct Commodity {
  int s = 0;
  int t = 0;
  double amount = 0.0;
};

/// Anytime-solve budget. MWU is an anytime algorithm — every round carries
/// an LP dual certificate — so a budgeted solve stops early and returns the
/// best-congestion averaged iterate seen so far, together with the dual
/// lower bound and a certified optimality gap.
///
/// Determinism contract:
///  * max_rounds truncates the SAME trajectory an unbudgeted solve walks
///    (the learning rate is still derived from options.rounds), so a
///    round-budgeted solve is seed-exact deterministic and is a prefix of
///    the full solve.
///  * target_gap overrides options.target_gap for the early-exit check —
///    also deterministic.
///  * deadline_ms consults the wall clock every kDeadlineCheckRounds
///    rounds; which checkpoint trips is machine-dependent, so
///    deadline-stopped results are documented as non-deterministic and
///    excluded from identity gates. The clock is never consulted when
///    deadline_ms == 0.
/// With all three fields at 0 the solve is bit-identical to a build
/// without this struct.
struct SolveBudget {
  int max_rounds = 0;        ///< 0 = no cap; else stop after this many rounds
  double deadline_ms = 0.0;  ///< 0 = no deadline; wall-clock milliseconds
  double target_gap = 0.0;   ///< 0 = keep options.target_gap; else must be >= 1
  bool enabled() const {
    return max_rounds > 0 || deadline_ms > 0.0 || target_gap > 0.0;
  }
  /// "max_rounds=N,deadline_ms=D,target_gap=G" (aliases: rounds, gap; any
  /// subset of keys). Nullopt on unknown keys / out-of-range values.
  static std::optional<SolveBudget> parse(const std::string& text);
  std::string to_string() const;
  friend bool operator==(const SolveBudget&, const SolveBudget&) = default;
};

/// Why a solve stopped.
enum class SolveStatus {
  kCompleted = 0,       ///< ran the full configured rounds
  kTargetReached = 1,   ///< upper/lower hit the target gap early
  kBudgetRounds = 2,    ///< stopped at SolveBudget::max_rounds
  kBudgetDeadline = 3,  ///< stopped at SolveBudget::deadline_ms
};
const char* to_string(SolveStatus status);

/// Deadline checks happen every this many rounds (deterministic round
/// counter; the clock is only read at checkpoints, and only when a
/// deadline is set).
inline constexpr int kDeadlineCheckRounds = 16;

/// Warm-start seed for an MWU solve: the adversary's final log-weights from
/// a previous solve of a nearby instance, optionally damped by `scale`.
///
/// Contract (docs/warm-start.md):
///  * Seeding only changes the solver's STARTING iterate. The returned
///    congestion is still the exact congestion of the routing actually
///    averaged, and the dual bound is still a valid lower bound on opt, so
///    warm and cold results of the same instance cross-validate:
///    lower_warm <= congestion_cold and lower_cold <= congestion_warm.
///  * `log_x` must have one entry per edge of the solved graph and every
///    entry must be finite and >= 0 (MWU log-weights only grow from 0).
///    A size mismatch is ignored (the solve runs cold).
///  * `scale` in [0, 1] damps the seed; 0 reproduces the cold solve
///    bit-identically.
struct MwuWarmStart {
  std::span<const double> log_x;
  double scale = 1.0;
};

struct MinCongestionOptions {
  int rounds = 800;          ///< MWU iterations
  double target_gap = 1.02;  ///< stop early once upper/lower <= target_gap
  int min_rounds = 50;
  SolveBudget budget;        ///< anytime budget; default = disabled
  friend bool operator==(const MinCongestionOptions&,
                         const MinCongestionOptions&) = default;
};

/// Per-solve pointers into the caller's state, kept apart from the value
/// options so that one MinCongestionOptions can feed several solves
/// without sharing a seed, a capture target or a sink between them.
/// All-null (the default) is a plain cold solve.
struct MwuHooks {
  /// Optional warm-start seed (see MwuWarmStart). Null = cold solve; the
  /// cold path is bit-identical to a build without this field.
  const MwuWarmStart* warm = nullptr;
  /// When non-null, the solver's final per-edge adversary log-weights are
  /// assigned into this vector (capacity retained) just before returning —
  /// the capture half of the warm-start cycle. Null = no capture; results
  /// are unaffected either way.
  std::vector<double>* capture_log_x = nullptr;
  /// Opt-in per-round convergence telemetry (see obs/convergence.h): when
  /// non-null, each round appends one ConvergenceRecord — congestion of
  /// the averaged iterate, dual certificate, running lower bound,
  /// certified gap, touched-edge count — after that round's load
  /// aggregation. Observation only: a solve with a sink attached is
  /// bit-identical to one without (the extra per-round congestion scan
  /// reads solver state, never writes it). Null (default) = no recording
  /// and no extra work.
  obs::ConvergenceSink* sink = nullptr;
};

struct CongestionResult {
  /// Fractional weight per commodity per candidate path (restricted mode
  /// only; empty in free mode). weights[j][i] sums to commodity j's amount.
  std::vector<std::vector<double>> path_weights;
  /// Aggregate (fractional) load per edge of the returned routing.
  std::vector<double> edge_load;
  /// Exact max_e load_e / cap_e of the returned routing (upper bound).
  double congestion = 0.0;
  /// Best dual certificate found: a lower bound on the LP optimum.
  double lower_bound = 0.0;
  int rounds_used = 0;
  /// Why the solve stopped (anytime budgets report kBudgetRounds /
  /// kBudgetDeadline; the classic early exit reports kTargetReached).
  SolveStatus status = SolveStatus::kCompleted;
  /// Certified suboptimality: congestion / lower_bound - 1, so
  ///   lower_bound <= opt <= congestion = lower_bound * (1 + gap).
  /// +inf when no positive dual bound was collected (e.g. a 0-round
  /// budget); 0 for empty instances.
  double optimality_gap = 0.0;
};

/// Resizes `v` to `n` elements without freeing the buffers a shrink drops:
/// they move to `spare`, and a later growth takes them back before it
/// default-constructs new ones. Per-commodity rows thus survive a demand
/// whose commodity count goes down and back up, so alternating demand
/// shapes stay allocation-free once warm.
template <class T>
void resize_keeping_buffers(std::vector<T>& v, std::size_t n,
                            std::vector<T>& spare) {
  while (v.size() > n) {
    spare.push_back(std::move(v.back()));
    v.pop_back();
  }
  while (v.size() < n && !spare.empty()) {
    v.push_back(std::move(spare.back()));
    spare.pop_back();
  }
  v.resize(n);
}

/// Reusable scratch for the two MWU solvers below. Every vector a solve
/// needs lives here and is reset with clear()/assign() (capacity retained),
/// so a warm scratch makes repeated solves allocation-free once its buffers
/// have grown to the largest solve they serve — the steady-state serving
/// contract the runtime layer gates. Contents never influence results: a
/// solve through a warm scratch is bit-identical to one through a fresh
/// scratch (pinned by tests/test_runtime.cpp).
struct MinCongestionScratch {
  // Restricted oracle: the distinct candidates (spans into the solve's
  // FlatCandidates), their lane blocks, per-round path sums and choice
  // counts (see RestrictedOracle::prepare in min_congestion.cpp).
  std::vector<std::span<const int>> distinct;
  std::vector<std::int64_t> commodity_first;  // prefix over `distinct`
  std::vector<std::int32_t> original_index;   // candidate index per path
  std::vector<std::size_t> hop_first;         // counting-sort buckets
  std::vector<std::int32_t> by_hops;          // lane -> distinct path
  std::vector<int> lane_edges;                // transposed 8-path blocks
  std::vector<std::int64_t> block_first;      // prefix over lane_edges
  std::vector<double> path_len;               // this round's path sums
  std::vector<int> counts;
  std::vector<int> cand_edges;
  std::vector<char> in_cand;
  std::vector<std::span<const int>> chosen_edges;
  // Weight rows a shrinking CongestionResult::path_weights handed back.
  std::vector<std::vector<double>> spare_weights;
  // Shared MWU state (run_mwu).
  std::vector<double> cap;
  std::vector<double> log_x;
  std::vector<double> expv;
  std::vector<double> lengths;
  std::vector<double> cumulative_load;
  std::vector<double> round_load;
  std::vector<double> chosen_len;
  std::vector<int> touched;
  // Anytime-budget best-iterate snapshots (only touched when a round cap /
  // deadline budget is active; empty otherwise): the restricted oracle
  // keeps choice counts, the free oracle cumulative loads.
  std::vector<double> budget_load;
  std::vector<int> budget_counts;
  std::vector<int> active;
  std::vector<int> dirty;
  std::vector<char> is_active;
  std::vector<char> is_dirty;
  // Free oracle: counting-sorted source grouping + Dijkstra state.
  std::vector<std::size_t> source_first;  // n + 2 prefix/cursor array
  std::vector<std::size_t> by_source;     // commodity indices, source-major
  std::vector<int> sources;
  std::vector<int> distinct_targets;
  std::vector<char> is_target;
  std::vector<std::vector<int>> owned;
  std::vector<double> dist;
  std::vector<int> parent_edge;
  DijkstraScratch dijkstra;
  // CSR snapshot, kept across calls on the same topology (arcs never read
  // capacities, so Graph::set_capacity keeps it valid).
  FlatAdjacencyCache adj;
};

/// Fractional min-congestion routing of `commodities` where commodity j may
/// only use `candidate_paths[j]`. Each candidate must be a valid s_j-t_j
/// path; every commodity with amount > 0 needs >= 1 candidate (else throws
/// std::invalid_argument naming the pair).
CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const std::vector<std::vector<Path>>& candidate_paths,
    const MinCongestionOptions& options = {});

/// Same solve over the flat, pre-resolved edge-id representation (the hot
/// path: no hashing, no per-call edge resolution, contiguous iteration).
/// `candidates` must hold one commodity entry per commodity, in order;
/// every commodity with amount > 0 needs >= 1 candidate. Produces results
/// bit-identical to the vertex-sequence overload on the same candidates.
/// Each round's cost is proportional to the candidate footprint, not to m:
/// the normalizing total sum_e x_e is a segmented sum (the untouched edges'
/// shared weight times their count, plus the touched edges' weights in four
/// lanes), and the early-exit check scans only edges that ever carried load
/// or a warm seed. Only the total's association differs from a serial sum
/// over all m edges; every per-edge value is exact, and the returned
/// congestion and dual bound remain exact certificates of the LP.
/// The path sums run in one pass over all of the solve's distinct
/// candidates, eight paths per block (sorted by hop count, short lanes
/// padded with a +0.0-length edge); every sum is still a serial
/// left-to-right chain from +0.0, so the lanes change no bit (pinned
/// against a textbook loop by tests/test_restricted_reference.cpp).
CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates,
    const MinCongestionOptions& options = {});

/// Scratch-threaded form of the flat restricted solve: all working state
/// lives in `scratch`, the result is written into `out` (both reused across
/// calls, capacities retained). Bit-identical to the value-returning
/// overload, which is a thin wrapper over this with no hooks.
void min_congestion_over_paths_into(const Graph& g,
                                    const std::vector<Commodity>& commodities,
                                    const FlatCandidates& candidates,
                                    const MinCongestionOptions& options,
                                    const MwuHooks& hooks,
                                    MinCongestionScratch& scratch,
                                    CongestionResult& out);

/// Fractional min-congestion over ALL paths (the offline optimum, i.e. the
/// maximum-concurrent-flow LP). Only congestion/lower_bound/edge_load are
/// populated. Throws std::invalid_argument naming the pair when a commodity
/// with amount > 0 has no s_j-t_j path. Runs on the flat substrate:
/// scratch-reusing Dijkstra best responses, incremental max_log/exp
/// caching, and sparse touched-set load aggregation, all bit-identical to
/// the reference MWU loop (pinned by tests/test_free_path_flat.cpp and
/// bench_m5_free_path's legacy replica).
CongestionResult min_congestion_free(
    const Graph& g, const std::vector<Commodity>& commodities,
    const MinCongestionOptions& options = {});

/// Scratch-threaded form of the free solve (see
/// min_congestion_over_paths_into for the contract). Also caches the CSR
/// adjacency snapshot in the scratch across calls on graphs of the same
/// topology stamp (see FlatAdjacencyCache).
void min_congestion_free_into(const Graph& g,
                              const std::vector<Commodity>& commodities,
                              const MinCongestionOptions& options,
                              const MwuHooks& hooks,
                              MinCongestionScratch& scratch,
                              CongestionResult& out);

/// Exact LP (dense simplex) version of min_congestion_over_paths. Intended
/// for small instances; returns optimal congestion and weights.
CongestionResult min_congestion_over_paths_exact(
    const Graph& g, const std::vector<Commodity>& commodities,
    const std::vector<std::vector<Path>>& candidate_paths);

/// Exact LP (edge-flow formulation) optimum over all paths; small instances
/// only. Only `congestion` is populated (plus lower_bound == congestion).
double min_congestion_free_exact(const Graph& g,
                                 const std::vector<Commodity>& commodities);

/// Exact congestion (max_e load/cap) of explicit per-commodity path weights.
double congestion_of_weights(const Graph& g,
                             const std::vector<Commodity>& commodities,
                             const std::vector<std::vector<Path>>& paths,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load = nullptr);

/// Flat-representation variant (no hashing; bit-identical result). A
/// non-null `edge_load` is written IN PLACE (assign + accumulate, capacity
/// retained) — allocation-free once the caller's vector is warm.
double congestion_of_weights(const Graph& g,
                             const std::vector<Commodity>& commodities,
                             const FlatCandidates& candidates,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load = nullptr);

}  // namespace sor

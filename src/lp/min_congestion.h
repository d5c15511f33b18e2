// Min-congestion routing solvers.
//
// One engine, the restricted solve: route each commodity over an explicit
// candidate-path set (Stage 4 of the semi-oblivious pipeline, Definition
// 5.1's cong_R(P, d)). It runs Frank–Wolfe on the exponential potential
//     Phi(F) = (1/beta) * log sum_e exp(beta * F_e / cap_e)
// of the router's flow F (Shahrokhi–Matula 1990, Grigoriadis–Khachiyan
// 1996): each round the lengths are the gradient of Phi (softmax weights
// x_e / total, divided by cap_e), every commodity best-responds with its
// shortest candidate, and the flow steps toward that response by a
// quadratic-model step size. The returned congestion is the *exact*
// congestion of the returned weights (a valid upper bound); `lower_bound`
// is an LP-duality certificate
//     opt >= sum_j d_j * dist_w(s_j, t_j) / sum_e cap_e * w_e
// so `congestion / lower_bound` bounds the solver's suboptimality.
//
// The optima over larger path sets — every path (the offline optimum
// opt_{G,R}(d), core/semi_oblivious.h) and every path of at most h hops
// (opt^(h), lp/hop_bounded.h) — run column generation over the same
// restricted solve (min_congestion_by_columns_into); they differ only in
// the pricer that finds each commodity's cheapest admissible path.
//
// Exact reference solvers (dense simplex) are provided for small instances
// and used by the tests to validate the iterative engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/path_store.h"
#include "graph/graph.h"
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

/// Why a solve stopped.
enum class SolveStatus {
  kCompleted = 0,       ///< ran MinCongestionOptions::rounds rounds
  kTargetReached = 1,   ///< upper/lower hit the target gap early
  kBudgetDeadline = 2,  ///< stopped at MinCongestionOptions::deadline_ms
};
const char* to_string(SolveStatus status);

/// Deadline checks happen every this many rounds (deterministic round
/// counter; the clock is only read at checkpoints, and only when a
/// deadline is set).
inline constexpr int kDeadlineCheckRounds = 16;

/// The time source of a deadline: milliseconds since any fixed
/// origin (the solve only differences two readings). Time is passed in,
/// never queried: a solve reads the clock its hooks name, so a test can
/// trip a deadline at a chosen checkpoint.
class SolveClock {
 public:
  virtual double now_ms() = 0;

 protected:
  ~SolveClock() = default;
};

/// The restricted solve's limits: one round cap, one gap bar and one
/// deadline. Every round carries an LP dual certificate, so whichever limit
/// stops the solve, it returns the iterate of the round it stopped at,
/// together with the running dual lower bound and a certified optimality
/// gap.
///
/// Determinism contract:
///  * no step size or smoothing parameter derives from `rounds`, so a
///    capped solve is seed-exact and walks a prefix of the trajectory of
///    any solve with a higher cap.
///  * deadline_ms reads the solve's clock (MwuHooks::clock; the wall clock
///    when it is null) every kDeadlineCheckRounds rounds. With the wall
///    clock, which checkpoint trips is machine-dependent, so such results
///    are excluded from identity gates; an injected clock makes them
///    exact, and a deadline that trips at round r returns bit for bit what
///    rounds = r returns, status aside. The clock is never read when
///    deadline_ms == 0.
///
/// Column generation (min_congestion_by_columns_into, so both optima) caps
/// each master solve at min(rounds, 50), stops iterating at target_gap and
/// gives every master solve and the final one the full deadline_ms.
struct MinCongestionOptions {
  /// Frank–Wolfe rounds (best responses); a solve throws
  /// std::invalid_argument below 1.
  int rounds = 200;
  /// Stop at the first round whose congestion is within this factor of the
  /// dual bound (upper/lower <= target_gap). A value below 1 is never met,
  /// so the solve runs every round.
  double target_gap = 1.02;
  double deadline_ms = 0.0;  ///< 0 = no deadline; else clock milliseconds
  /// "rounds=N,target_gap=G,deadline_ms=D", any subset of the keys,
  /// applied onto `base`. Nullopt on an unknown key, a malformed or
  /// non-finite value, a negative value or rounds < 1.
  static std::optional<MinCongestionOptions> parse(
      const std::string& text, const MinCongestionOptions& base);
  /// All three keys in shortest round-trip form, so that
  /// parse(to_string()) == *this exactly (the scenario format relies on
  /// it).
  std::string to_string() const;
  friend bool operator==(const MinCongestionOptions&,
                         const MinCongestionOptions&) = default;
};

/// Per-solve pointers into the caller's state, kept apart from the value
/// options so that one MinCongestionOptions can feed several solves
/// without sharing a seed, a capture target or a sink between them.
/// All-null (the default) is a plain cold solve.
struct MwuHooks {
  /// Optional warm seed (docs/warm-start.md): one row per commodity, in
  /// commodity order, holding that commodity's weights over its candidates
  /// (candidate indices, like CongestionResult::path_weights). A row whose
  /// size is not the commodity's candidate count, or with a negative or
  /// non-finite entry, or summing to 0, leaves that commodity unseeded; a
  /// seed whose row count is not the commodity count is ignored. A seeded
  /// row only gives the split: it is scaled to the commodity's amount
  /// (weights times d_j / row sum, copies of one path added first), so the
  /// previous epoch's weights seed a changed amount. Unseeded commodities
  /// enter with their round-0 best response under the seeded flow's
  /// lengths. Seeding only changes the STARTING iterate: the returned
  /// congestion is still exact for the returned weights and the dual bound
  /// still a valid lower bound, so warm and cold results of one instance
  /// cross-validate. Null = cold solve.
  const std::vector<std::vector<double>>* warm = nullptr;
  /// When non-null, assigned (capacity retained) the lengths of the last
  /// round, one per edge: l_e = x_e / total / cap_e, so sum_e cap_e * l_e
  /// is 1 up to rounding. Column generation prices under them. Untouched
  /// when the solve has no commodity or no edge. Results are unaffected.
  std::vector<double>* capture_lengths = nullptr;
  /// Opt-in per-round convergence telemetry (see obs/convergence.h): when
  /// non-null, each round appends one ConvergenceRecord — the current
  /// iterate's congestion, the round's dual certificate, the running lower
  /// bound, the certified gap and the best response's edge count. The
  /// solver computes all but the edge count anyway; that count takes one
  /// more pass over the footprint per round, only with a sink attached. A
  /// solve with a sink is bit-identical to one without. Null (default) =
  /// no recording.
  obs::ConvergenceSink* sink = nullptr;
  /// The deadline's time source; null = std::chrono::steady_clock.
  SolveClock* clock = nullptr;
};

struct CongestionResult {
  /// Fractional weight per commodity per candidate path. weights[j][i]
  /// sums to commodity j's amount.
  std::vector<std::vector<double>> path_weights;
  /// Aggregate (fractional) load per edge of the returned routing.
  std::vector<double> edge_load;
  /// Exact max_e load_e / cap_e of the returned routing (upper bound).
  double congestion = 0.0;
  /// Best dual certificate found: a lower bound on the LP optimum.
  double lower_bound = 0.0;
  int rounds_used = 0;
  /// Why the solve stopped: its round cap (kCompleted), its target gap
  /// (kTargetReached) or its deadline (kBudgetDeadline).
  SolveStatus status = SolveStatus::kCompleted;
  /// Certified suboptimality: congestion / lower_bound - 1, so
  ///   lower_bound <= opt <= congestion = lower_bound * (1 + gap).
  /// +inf when no positive dual bound was collected; 0 when nothing was
  /// routed.
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

/// Reusable scratch for the restricted solve below. Every vector a solve
/// needs lives here and is reset with clear()/assign() (capacity retained),
/// so a warm scratch makes repeated solves allocation-free once its buffers
/// have grown to the largest solve they serve — the steady-state serving
/// contract the runtime layer gates. Contents never influence results: a
/// solve through a warm scratch is bit-identical to one through a fresh
/// scratch (pinned by tests/test_runtime.cpp).
struct MinCongestionScratch {
  // Candidate side: the distinct candidates (spans into the solve's
  // FlatCandidates), their lane blocks, per-round path sums, each
  // commodity's chosen path and the footprint (see prepare_candidates in
  // min_congestion.cpp).
  std::vector<std::span<const int>> distinct;
  std::vector<std::int64_t> commodity_first;  // prefix over `distinct`
  std::vector<std::int32_t> original_index;   // candidate index per path
  std::vector<std::int32_t> distinct_of;      // distinct path per candidate
  std::vector<std::size_t> hop_first;         // counting-sort buckets
  std::vector<std::int32_t> by_hops;          // lane -> distinct path
  std::vector<int> lane_edges;                // transposed 8-path blocks
  std::vector<std::int64_t> block_first;      // prefix over lane_edges
  std::vector<double> path_len;               // this round's path sums
  std::vector<std::int32_t> chosen;           // best response per commodity
  std::vector<double> chosen_len;
  std::vector<int> cand_edges;                // the footprint, by edge id
  std::vector<char> in_cand;
  // Weight rows a shrinking CongestionResult::path_weights handed back.
  std::vector<std::vector<double>> spare_weights;
  // Frank–Wolfe state (the round loop of min_congestion_over_paths_into),
  // per edge unless noted; the rounds write footprint entries only.
  std::vector<double> cap;
  std::vector<double> load;      // the iterate's flow F
  std::vector<double> response;  // the best response's flow B, 0 between rounds
  std::vector<double> expv;      // x_e, divided by total in the lengths pass
  std::vector<double> ratio;     // F_e / cap_e of the current iterate
  std::vector<double> lengths;   // x / total / cap, plus the padding edge m
  std::vector<double> weight;    // per distinct path
  std::vector<char> seeded;      // per commodity

  /// Sizes the per-candidate buffers for solves of up to `paths` distinct
  /// candidates with `edges` edges in all, none longer than `max_hops`, so
  /// that a sequence of growing solves (column generation's) allocates
  /// them once.
  void reserve(std::size_t paths, std::size_t edges, std::size_t max_hops);
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
///
/// The iteration (pinned bit for bit against a textbook loop over all m
/// edges by tests/test_restricted_reference.cpp):
///  * state: a weight per distinct candidate (each commodity's weights sum
///    to d_j) and the flow F they induce. Round 0 routes every unseeded
///    commodity whole on its best response under the seeded flow's lengths
///    (lengths 1/(m * cap_e) when nothing is seeded).
///  * every later round: U = max_e F_e / cap_e, beta = ln(m+2) / (eps * U),
///    x_e = exp(beta * (F_e / cap_e - U)), lengths x_e / total / cap_e,
///    the best response B under them, the dual sum_j d_j * min_len_j (its
///    running max is the lower bound), the Frank–Wolfe gap
///    G = sum_e len_e * (F_e - B_e), the curvature
///    kappa = beta * sum_e (x_e / total) * ((B_e - F_e) / cap_e)^2, and the
///    step sigma = min(1, G / kappa), 0 when G <= 0: F += sigma * (B - F),
///    every weight scales by 1 - sigma and each chosen path gains
///    sigma * d_j.
///  * eps starts at 1 and halves whenever G <= 0.1 * eps * U, down to
///    max(0.01, ln(m+2) / 700), which keeps every exp a positive normal
///    double.
///  * The target exit, the sink and the deadline read the congestion of
///    the iterate each round leaves, and every stop returns that iterate.
///    rounds_used counts the rounds run.
/// Each round's cost is proportional to the candidate footprint (the edges
/// of the distinct candidates), not to m: every other edge has F = 0 and
/// shares one exp value, and the normalizing total is the segmented sum
///     (m - |footprint|) * exp(-beta * U) + sum over the footprint,
/// the latter serial in increasing edge id. Only that association differs
/// from a serial sum over all m edges; every per-edge value is exact, and
/// the returned congestion and dual bound remain exact certificates of the
/// LP. A round makes four passes over the footprint (the exps; the
/// lengths; G and kappa; the step, which also resets B, stores each
/// F_e / cap_e for the next round's exps and takes U), one pass over the
/// lane blocks and one scatter of B along the chosen paths; each per-edge
/// quotient is computed once. The path sums run in one pass over all of
/// the solve's distinct candidates, eight paths per block (sorted by hop
/// count, short lanes padded with a +0.0-length edge); every sum is still
/// a serial left-to-right chain from +0.0, so the lanes change no bit.
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

/// The pricing step of column generation (min_congestion_by_columns_into):
/// under per-edge lengths (>= 0, one per edge), append to `paths` one
/// commodity entry per commodity, in order, holding that commodity's
/// cheapest admissible path as edge ids from s to t (no path for a
/// commodity with amount <= 0), and return sum_j d_j * dist(s_j, t_j) over
/// the admissible paths. Throw std::invalid_argument naming a pair with
/// demand but no admissible path. The serving path's pricer (the
/// optimum's) keeps its state in caller-owned scratch, so that a warm call
/// allocates nothing.
class ColumnPricer {
 public:
  virtual double price(const std::vector<double>& lengths,
                       FlatCandidates& paths) = 0;

 protected:
  ~ColumnPricer() = default;
};

/// Working set of min_congestion_by_columns_into, capacity-retaining like
/// MinCongestionScratch: once warm, a solve allocates nothing.
struct ColumnGenerationScratch {
  FlatCandidates columns;  // every commodity's columns so far
  FlatCandidates next;     // the columns rebuilt with this round's new ones
  FlatCandidates priced;   // this round's priced paths
  std::vector<double> lengths;  // the last master solve's final lengths
  // The last master solve's weights, padded with 0 to the columns: the
  // next solve's warm seed.
  std::vector<std::vector<double>> weights;
  MinCongestionScratch mwu;
};

/// Fractional min-congestion over every path `pricer` admits, by column
/// generation (Ford–Fulkerson 1958) over the restricted solve:
///  1. price under lengths 1/cap_e; each commodity's path is its first
///     column, and the bound is sum_j d_j * dist / m (the distance bound);
///  2. at most 16 iterations of: a restricted solve over the columns
///     (`options` with rounds capped at 50, warm-seeded with the previous
///     iteration's weights, its new columns at weight 0), a pricing round
///     under that solve's final lengths whose bound
///     sum_j d_j * dist / sum_e cap_e * len_e replaces a lower one, and
///     each commodity's priced path appended when it is not yet a column.
///     They stop early when no column is new or the solve's congestion is
///     within options.target_gap of the bound;
///  3. a restricted solve over all columns with `options` unchanged,
///     warm-seeded with the last iteration's weights.
/// `out` is that final solve over the columns (its path_weights index the
/// scratch's columns), except that lower_bound is the pricing bound, valid
/// against every admissible routing, and optimality_gap certifies against
/// it. Deterministic: the same inputs give the same bits through any
/// scratch.
void min_congestion_by_columns_into(const Graph& g,
                                    const std::vector<Commodity>& commodities,
                                    const MinCongestionOptions& options,
                                    ColumnPricer& pricer,
                                    ColumnGenerationScratch& scratch,
                                    CongestionResult& out);

/// Exact LP (dense simplex) version of min_congestion_over_paths, over the
/// flat edge-id candidates (one commodity entry per commodity, in order).
/// Intended for small instances; returns optimal congestion and weights.
/// Both exact solvers throw std::runtime_error when the simplex finds no
/// optimal basis (LpStatus::kNumericalError).
CongestionResult min_congestion_over_paths_exact(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates);

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

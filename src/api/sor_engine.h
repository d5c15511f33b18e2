// SorEngine — the staged semi-oblivious routing pipeline behind one facade.
//
// The paper's object is a pipeline with an explicit information barrier:
//
//   Stage 1  build(graph, BackendSpec)      fix an oblivious routing R
//   Stage 2  install_paths(SamplingSpec)    alpha-sample a sparse PathSystem
//            -- demand revealed below this line --
//   Stage 3  route(demand, RouteSpec)       adapt rates over the frozen paths
//   Stage 4  (RouteSpec.round_integral)     one path per packet, Lemma 6.3
//   Stage 5  (RouteSpec.simulate_packets)   store-and-forward makespan
//
// The engine owns the graph, the substrate, and the installed PathSystem.
// The PathSystem is sampled ONCE and reused across every subsequent
// route() call — that reuse is the semi-oblivious point (paths are
// installed before traffic is known) and the amortization hook for
// batching many revealed demands over one substrate.
//
// Every route() returns a self-contained RouteReport: congestion, the
// offline-optimum certificate it is compared against, the competitive
// ratio, per-stage wall-times, and the optional integral/makespan results.
//
// Threading and determinism. The engine owns a fixed worker pool
// (`set_threads`, or the `threads` argument of build()) that accelerates
// the three hot paths: backend construction (racke per-wave tree builds),
// install_paths() (per-pair path sampling), and route_batch() (per-demand
// adaptive routing). Every parallel region is shared-nothing fan-out with
// per-item Rng streams seed-split (Rng::split) from the engine's stream in
// item order, NEVER a shared generator — so for a fixed seed the output is
// bit-identical for every thread count, including 1. Parallelism changes
// wall-clock only, never results; tests/test_route_batch.cpp enforces it.
//
// Scale-out batches and the streaming stability contract. The primary
// batch entry point is route_batch(scale::DemandSource&, RouteSpec,
// BatchSpec): demands are PULLED from the source one at a time (no
// materialized vector anywhere in the engine) and the std::span overload
// is a thin adapter over it. The contract that makes streaming ==
// materialized bit for bit:
//
//   * INPUT ORDER DEFINES THE RNG STREAM ORDER. The engine forks exactly
//     one child stream per pulled demand, in pull order, regardless of
//     BatchSpec — so any two sources producing the same demand sequence
//     yield identical reports AND leave the engine stream in the same
//     state, whether the batch was spans, files, or aggregated.
//   * Aggregation (BatchSpec::aggregate_duplicates) groups demands by
//     exact entry content and solves each group once; de-aggregated
//     per-demand reports are bit-identical to the raw run because the
//     fractional solve draws no randomness (rounding/simulation are
//     rejected in aggregated mode for exactly this reason).
//   * Global loads are ONE canonical serial fold — multiplicity times the
//     representative's load, in first-seen group order — identical by
//     construction across aggregation modes and thread counts.
//     tests/test_scaleout.cpp pins both equivalences; bench_m8_scaleout
//     gates them at 1M entries.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/backend_registry.h"
#include "core/path_system.h"
#include "core/rounding.h"
#include "core/semi_oblivious.h"
#include "fault/sor_error.h"
#include "graph/graph.h"
#include "obs/convergence.h"
#include "runtime/alloc_stats.h"
#include "runtime/scratch.h"
#include "scale/aggregate.h"
#include "sim/packet_sim.h"
#include "util/thread_pool.h"

namespace sor {

namespace scale {
class DemandSource;
}  // namespace scale

namespace fault {
class FaultPlan;
}  // namespace fault

namespace warm {
struct WarmStartState;
struct RouteWarmHooks;
}  // namespace warm

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Stage 2 knobs: how to alpha-sample the candidate PathSystem.
struct SamplingSpec {
  int alpha = 4;
  /// Definition 5.2's (alpha + cut_G)-sample instead of a plain alpha-sample.
  bool with_cut = false;
  /// When `pairs` is empty: true installs paths for every ordered vertex
  /// pair; false installs nothing. Explicit so that for_demand() of an
  /// (accidentally) empty demand is a no-op rather than an O(n^2 alpha)
  /// all-pairs sample. Ignored when `pairs` is non-empty.
  bool all_pairs = true;
  /// Pairs to install paths for; empty defers to `all_pairs`.
  std::vector<std::pair<int, int>> pairs;

  static SamplingSpec for_demand(const Demand& d, int alpha,
                                 bool with_cut = false);
  /// Union of the batch's supports, deduplicated — install once, then
  /// route_batch() the whole set over the one frozen PathSystem.
  static SamplingSpec for_demands(std::span<const Demand> demands, int alpha,
                                  bool with_cut = false);
};

/// Stage 3..5 knobs for one revealed demand. Plain values only: two specs
/// that compare equal route a demand identically.
struct RouteSpec {
  /// Options of the restricted route and of the optimum's master solves
  /// (see min_congestion_by_columns_into): the round cap, gap bar and
  /// deadline, exposed as `sor_cli --solve-budget`.
  MinCongestionOptions mwu;
  /// Solve the offline optimum opt_{G}(d) for the competitive ratio.
  bool compute_optimum = true;
  /// Compute the cheap distance-duality lower bound (see
  /// distance_lower_bound). The leased scratch remembers pair distances,
  /// so it costs one CSR Dijkstra, stopped at the last new target, per
  /// distinct demand source with a pair not seen since the last capacity
  /// edit; a route over seen pairs only looks them up. Turn off together
  /// with compute_optimum when the caller supplies its own denominator
  /// (hot benchmark loops).
  bool compute_lower_bound = true;
  /// Lemma 6.3 randomized rounding to one path per unit (requires a
  /// near-integral demand; skipped otherwise).
  bool round_integral = false;
  int rounding_trials = 8;
  /// Store-and-forward simulation of the integral routing (implies
  /// round_integral).
  bool simulate_packets = false;
  SchedulePolicy policy = SchedulePolicy::kRandomPriority;
  /// Opt-in cross-epoch warm starts (default OFF; docs/warm-start.md is the
  /// contract). When on, the engine captures each route's restricted
  /// weights and integral choices per pair and seeds the NEXT route from
  /// them: a bit-identical instance replays the stored report outright; a
  /// nearby instance starts the restricted solve from the previous flow of
  /// every pair it shares (scaled to the new amounts) and seeds rounding
  /// from the prior integral solution. Warm and cold certificates of one
  /// instance stay cross-valid — warm starts only move the starting
  /// iterate, never the certificate discipline. With warm_start off,
  /// routing is bit-identical to a build without this field
  /// (RouteReport.warm is the only delta, and it is all-zero). Serial
  /// route()/route_into() only; route_batch rejects it. Exposed as
  /// `sor_cli --warm-start`.
  bool warm_start = false;
  /// Opt-in per-round convergence telemetry (default OFF; see
  /// obs/convergence.h and docs/observability.md). When on, the restricted
  /// solve appends one ConvergenceRecord per round into
  /// RouteReport.convergence — the current iterate's congestion, the dual
  /// certificate, the running lower bound, the certified gap and the best
  /// response's edge count. Observation only: results are bit-identical
  /// with the flag on or off (bench_m10's identity row pins this);
  /// recording costs one bounded vector (capacity retained across
  /// route_into reuse) and one pass over the footprint per round for the
  /// edge count. Exposed as
  /// `sor_cli --convergence-out`.
  bool record_convergence = false;

  friend bool operator==(const RouteSpec&, const RouteSpec&) = default;
};

/// Wall-clock per pipeline stage, milliseconds.
struct StageTimes {
  double build_ms = 0.0;     ///< substrate construction (engine-wide)
  double sample_ms = 0.0;    ///< PathSystem installation (engine-wide)
  double route_ms = 0.0;     ///< adaptive rate selection
  double lower_bound_ms = 0.0;  ///< distance-duality lower bound
  double optimum_ms = 0.0;   ///< offline-optimum solve
  double rounding_ms = 0.0;  ///< integral rounding + local search
  double sim_ms = 0.0;       ///< packet simulation
};

/// Warm-start outcome of one route (RouteReport.warm). All-zero on cold
/// routes (RouteSpec::warm_start off) and on the first warm-enabled route
/// of a serving sequence.
struct WarmInfo {
  bool enabled = false;   ///< RouteSpec::warm_start was on
  bool hit = false;       ///< a previous epoch's captured state seeded this solve
  bool replayed = false;  ///< bit-identical instance: stored report returned
  /// max(0, cold_rounds - rounds_used): restricted-solve rounds this
  /// solve saved vs the most recent unseeded solve of the sequence.
  /// replayed routes report the full cold_rounds.
  int rounds_saved = 0;
};

/// Everything route() learned about one revealed demand.
struct RouteReport {
  SemiObliviousSolution solution;  ///< rates, loads, exact congestion
  double congestion = 0.0;         ///< solution.congestion, for convenience

  /// Lower bound on the offline optimum: the distance-duality bound,
  /// sharpened by the optimum's dual certificate when it was computed.
  double opt_lower_bound = 0.0;
  /// Offline optimum certificates (populated iff compute_optimum).
  std::optional<OptimalCongestion> optimum;
  /// congestion / opt_lower_bound — an upper bound on the true competitive
  /// ratio. 0 when the demand is empty.
  double competitive_ratio = 0.0;

  /// Lemma 6.3 integral routing (populated iff requested and the demand is
  /// near-integral).
  std::optional<IntegralSolution> integral;
  /// Packet-level makespan of the integral routing (iff simulate_packets).
  std::optional<SimulationResult> simulation;

  StageTimes times;

  /// Heap-allocation delta of this route call's stages 3..5, measured on
  /// the routing thread (AllocProbe). All-zero when the build does not
  /// interpose operator new (see runtime::counting_compiled()) — a warm
  /// steady-state route reports 0 allocs, the contract
  /// bench_m7_service_memory gates.
  runtime::AllocCounters mem;

  /// Warm-start outcome (all-zero unless RouteSpec::warm_start).
  WarmInfo warm;

  /// Per-round restricted-solve convergence trajectory (empty unless
  /// RouteSpec::record_convergence; dump with
  /// obs::write_convergence_csv/json or `sor_cli --convergence-out`).
  std::vector<obs::ConvergenceRecord> convergence;
};

/// What route_batch does when a demand fails — during ingest (malformed
/// entry, stream read error, uninstalled pair) or during its solve
/// (injected or organic worker fault, scratch acquisition failure).
enum class OnError {
  /// Throw on the first failure (legacy behavior, the default). The
  /// exception is deterministic: ingest failures throw at the offending
  /// pull, solve failures surface the lowest-index unit's exception
  /// (see util::ThreadPool's ordered error propagation).
  kFailFast = 0,
  /// Record a per-demand DemandError and keep going. Failed/poisoned units
  /// fold ZERO load into the canonical serial fold, so the surviving
  /// units' loads are bit-identical across thread counts — and
  /// bit-identical to a batch that never contained the poisoned demands.
  kSkipAndReport = 1,
};

/// One failed demand under OnError::kSkipAndReport, in demand index order.
/// Under aggregation a failed group is reported once, at its
/// representative's (first-seen) demand index.
struct DemandError {
  std::size_t index = 0;  ///< demand pull index (0-based)
  ErrorCode code = ErrorCode::kWorkerFault;
  std::string site;
  std::string detail;
};

/// Batch-execution knobs of route_batch's DemandSource overload. One knob
/// struct instead of growing positional parameters; every combination is
/// bit-identical to every other in the fields all modes share (global
/// loads, congestion, maxima) — the knobs trade memory and solve count,
/// never results.
struct BatchSpec {
  /// Retain one RouteReport per streamed demand (input order). Turn OFF
  /// for aggregate-only mode: the report then carries only the batch-level
  /// aggregates, and route_batch memory is flat in the stream length
  /// (bounded by the distinct-demand count plus a fixed chunk of reused
  /// solve slots). keep_reports=false requires aggregate_duplicates=true.
  bool keep_reports = true;
  /// Deterministic pre-solve aggregation: demands with bit-identical entry
  /// content coalesce into one weighted group solved ONCE (see
  /// scale/aggregate.h). Rejects round_integral/simulate_packets — their
  /// per-demand Rng streams would lose the input-order mapping.
  bool aggregate_duplicates = false;
  /// Failure policy (graceful degradation): see OnError.
  OnError on_error = OnError::kFailFast;

  friend bool operator==(const BatchSpec&, const BatchSpec&) = default;
};

/// Aggregate of route_batch(): the batch-level numbers a serving loop
/// cares about, plus (unless aggregate-only mode dropped them) one
/// RouteReport per demand in input order.
struct BatchReport {
  /// Per-demand, in input order; empty when BatchSpec::keep_reports is
  /// false. Under aggregation, demand i's report is a copy of its group
  /// representative's — bit-identical to solving i directly.
  std::vector<RouteReport> reports;
  double max_congestion = 0.0;  ///< max per-demand congestion over the batch
  double max_competitive_ratio = 0.0;
  /// The batch's merged per-edge load: the canonical fold
  /// sum_g multiplicity_g * load_g[e] over groups in first-seen order
  /// (raw mode folds each group's representative, so the sequence — and
  /// hence every bit — is identical with aggregation on or off).
  std::vector<double> global_edge_load;
  /// max_e global_edge_load[e] / capacity(e): congestion if the whole
  /// batch were admitted simultaneously.
  double global_congestion = 0.0;
  std::size_t num_demands = 0;  ///< demands pulled from the source
  std::size_t num_groups = 0;   ///< distinct demand contents among them
  /// Per-demand failures under OnError::kSkipAndReport, sorted by demand
  /// index (empty under kFailFast — the first failure throws instead).
  /// A failed demand's reports[] slot is a default RouteReport.
  std::vector<DemandError> errors;
  /// Demands that did not route (counts every member of a failed group).
  std::size_t num_failed = 0;
  BatchSpec spec;               ///< the knobs this batch ran with
  /// Sum of the stage-3..5 solve times actually paid (per demand in raw
  /// mode, per group under aggregation) — the serial-equivalent work.
  double total_route_ms = 0.0;
  double wall_ms = 0.0;  ///< wall-clock of the whole batch call
  int threads = 1;       ///< pool width the batch ran with
  /// Effective parallel speedup: serial-equivalent work over wall-clock.
  double speedup_vs_serial() const {
    return wall_ms > 0.0 ? total_route_ms / wall_ms : 0.0;
  }
  /// End-to-end ingest+solve+merge throughput, demands per second.
  double demands_per_sec() const {
    return wall_ms > 0.0
               ? 1000.0 * static_cast<double>(num_demands) / wall_ms
               : 0.0;
  }
};

/// The pipeline facade. Movable, not copyable. Construction order is
/// enforced: route() throws std::logic_error before install_paths().
class SorEngine {
 public:
  /// Stage 1: takes ownership of `graph` and builds the named substrate
  /// over it. All randomness downstream flows from `seed`; `threads` sizes
  /// the engine's worker pool (1 = serial, 0 = hardware concurrency), which
  /// the backend's construction runs on too (see BackendRegistry::make).
  /// Thread count never changes results, only wall-clock (see the header
  /// comment).
  static SorEngine build(Graph graph, const BackendSpec& spec,
                         std::uint64_t seed = 1, int threads = 1);
  /// Convenience: build(graph, BackendSpec::parse(spec_text), seed).
  static SorEngine build(Graph graph, const std::string& spec_text,
                         std::uint64_t seed = 1, int threads = 1);

  /// Stage 2: samples and freezes the candidate PathSystem, replacing any
  /// previously installed one. A reinstall clears the existing system and
  /// samples into its interning arena (PathSystem::clear keeps the
  /// capacity), so a reinstall-heavy service keeps its path memory bounded
  /// by the largest installed support instead of leaking one abandoned
  /// arena per install. Returns the frozen system.
  const PathSystem& install_paths(const SamplingSpec& spec);

  /// Stage 3..5 for one revealed demand, over the frozen PathSystem: a
  /// thin wrapper over route_into() with a fresh report.
  /// Throws std::logic_error if install_paths() has not run, and
  /// std::invalid_argument if the demand has a support pair with no
  /// installed candidate paths.
  RouteReport route(const Demand& demand, const RouteSpec& spec = {});

  /// Buffer-reusing form of route(): refills `out`'s nested buffers in
  /// place (capacities retained). Together with the engine's
  /// internal scratch pool this makes a steady-state serving loop
  /// allocation-free after warm-up; `out.mem` reports the measured
  /// allocation delta of each call. Returns `out`.
  RouteReport& route_into(const Demand& demand, const RouteSpec& spec,
                          RouteReport& out);

  /// Stage 3..5 for MANY revealed demands over the one frozen PathSystem —
  /// the PRIMARY batch entry point. Pulls every demand from `source`
  /// (validating the whole stream before routing anything), optionally
  /// aggregates duplicates, and fans the solve units out across the
  /// engine's pool. Demand i draws from its own Rng stream seed-split from
  /// the engine stream in pull order, so the reports are bit-identical for
  /// every thread count; with rounding and simulation off (their defaults)
  /// they also equal a serial route() loop. See the header block for the
  /// full streaming stability contract. Throws std::invalid_argument on
  /// malformed entries, uninstalled pairs, or an inconsistent BatchSpec
  /// (keep_reports=false without aggregate_duplicates; aggregation combined
  /// with rounding/simulation).
  BatchReport route_batch(scale::DemandSource& source,
                          const RouteSpec& spec = {},
                          const BatchSpec& batch = {});

  /// Thin adapter over the DemandSource overload (default BatchSpec):
  /// wraps `demands` in a scale::SpanDemandSource, preserving this
  /// overload's historical behavior bit for bit — same reports, same
  /// engine-stream evolution, same whole-batch up-front validation.
  BatchReport route_batch(std::span<const Demand> demands,
                          const RouteSpec& spec = {});

  /// Resizes the worker pool used by rebuild_backend(), install_paths()
  /// and route_batch() (1 = serial, 0 = hardware concurrency). Cheap when
  /// unchanged.
  void set_threads(int threads);
  int threads() const { return threads_; }

  // ---- scenario-engine hooks (link events between epochs) --------------

  /// Live capacity update on the owned graph (capacity must stay > 0):
  /// the link-event hook of src/scenario/. Topology and edge ids are
  /// unchanged, so the frozen PathSystem's interned edge ids stay valid
  /// and subsequent route() calls adapt rates against the NEW capacities
  /// over the OLD frozen paths. Neither the Stage 1 substrate nor the
  /// installed paths are invalidated — whether to pay for a rebuild /
  /// re-install after an event is exactly the caller's ReinstallPolicy
  /// decision, never an engine-forced one.
  void set_edge_capacity(int e, double capacity);

  /// Re-runs Stage 1 — backend construction with the spec build() stored —
  /// on the CURRENT graph (i.e. after any set_edge_capacity events),
  /// drawing fresh randomness from the engine stream and refreshing
  /// build_ms(). Construction runs on the engine pool at its current
  /// set_threads() width. The installed PathSystem is kept: its paths
  /// remain valid frozen candidates; callers wanting paths sampled from the
  /// rebuilt substrate follow up with install_paths().
  void rebuild_backend();

  /// Installs a deterministic fault-injection plan on this engine (nullptr
  /// clears it). Without an engine plan, the process-global plan
  /// (fault::global_plan(), i.e. --fault-plan / SOR_FAULT_PLAN) applies.
  /// Injected failures throw SorError and ride the same degradation paths
  /// as organic ones (BatchSpec::on_error, scenario DegradePolicy).
  void set_fault_plan(std::shared_ptr<fault::FaultPlan> plan);
  /// The plan in effect (engine plan, else global plan; may be null).
  fault::FaultPlan* active_fault_plan() const;

  /// The spec build() was given, verbatim; rebuild_backend() reuses it.
  const BackendSpec& backend_spec() const { return spec_; }

  const Graph& graph() const { return *graph_; }
  const ObliviousRouting& backend() const { return *backend_; }
  bool has_paths() const { return paths_.has_value(); }
  /// The frozen PathSystem; throws std::logic_error before install_paths().
  const PathSystem& paths() const;

  double build_ms() const { return build_ms_; }
  double sample_ms() const { return sample_ms_; }

  /// Memory gauges of the long-lived service state (sor_cli --mem-stats).
  struct MemStats {
    std::size_t arena_ints = 0;       ///< live PathStore arena size, in ints
    std::size_t arena_capacity = 0;   ///< arena capacity, in ints
    std::size_t live_paths = 0;       ///< interned paths currently live
    std::size_t installed_pairs = 0;  ///< pairs with >= 1 candidate
    std::size_t rss_bytes = 0;        ///< process RSS (0 if unavailable)
  };
  MemStats mem_stats() const;

  /// Metrics snapshot for exposition (sor_cli --metrics-out renders it in
  /// Prometheus text format; include obs/metrics.h to use the result).
  /// Folds the process-wide obs::service_counters() — routes served, restricted
  /// rounds, warm hits, degraded epochs, fault fires, the route-latency
  /// histogram — with this engine's memory gauges (PathStore arena,
  /// installed pairs, RSS) and the per-thread allocation counters.
  /// Unmeasurable gauges are ABSENT, never 0: alloc counters only appear
  /// when runtime::counting_compiled(), RSS only when the platform
  /// reports it.
  obs::MetricsRegistry metrics() const;

  /// The engine's deterministic random stream (construction + sampling +
  /// rounding draw from it in order).
  Rng& rng() { return rng_; }

  /// The cross-epoch warm-start capture, or nullptr before the first
  /// warm-enabled route (and after rebuild_backend()). Introspection for
  /// tests/benches; include warm/warm_state.h to dereference.
  const warm::WarmStartState* warm_state() const { return warm_state_.get(); }

  ~SorEngine();
  SorEngine(SorEngine&&) noexcept;
  SorEngine& operator=(SorEngine&&) noexcept;

 private:
  SorEngine() = default;

  /// The stage-3..5 implementation for one demand: all working state in
  /// `scratch`, the report refilled in place. `rng` is the stream rounding
  /// and simulation draw from (the engine stream for route_into(), a
  /// seed-split stream for route_batch()). `hooks` (warm starts only; see
  /// warm/warm_state.h) carries the per-pair flow seed and the rounding
  /// seed — null on every cold route, and a null-hook call is
  /// bit-identical to a build without the parameter.
  void route_one_into(const Demand& demand, const RouteSpec& spec, Rng& rng,
                      runtime::EngineScratch& scratch, RouteReport& out,
                      const warm::RouteWarmHooks* hooks = nullptr) const;
  /// The warm-start orchestration route_into() dispatches to when
  /// RouteSpec::warm_start is set, after the installed-pair check and the
  /// scratch fault site: replay / seed decision, the seeded
  /// route_one_into call, and the post-route capture.
  RouteReport& route_warm_into(const Demand& demand, const RouteSpec& spec,
                               RouteReport& out);
  void require_installed_pairs(const Demand& demand) const;
  /// The pool sized to threads_, created on first parallel use (nullptr
  /// while threads_ == 1).
  util::ThreadPool* pool();

  // The graph lives behind a unique_ptr so the backend's internal pointer
  // to it survives moves of the engine (same idiom as bench_common's
  // Instance).
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<ObliviousRouting> backend_;
  BackendSpec spec_;
  std::optional<PathSystem> paths_;
  Rng rng_{1};
  int threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Leased per route_one_into call, serial or batch (one per
  /// concurrently-active call; see runtime::ScratchPool).
  runtime::ScratchPool scratch_pool_;
  // ---- route_batch workspace (capacity-retaining across batches) -------
  // The scale-out pipeline's reusable state: the aggregation index, the
  // per-demand Rng streams (only filled when rounding/simulation need
  // them) and a fixed chunk of solve slots recycled across the stream.
  // Persisting these across epochs is what keeps a steady-state serving
  // loop's memory flat at millions of entries.
  scale::BatchAggregator batch_agg_;
  std::vector<Rng> batch_streams_;
  std::vector<Demand> batch_slot_demands_;
  std::vector<RouteReport> batch_slot_reports_;
  std::vector<RouteReport> batch_group_reports_;
  /// Pull-index -> aggregation group id, or -1 for a demand poisoned
  /// during ingest (kSkipAndReport only; -1 never appears under
  /// kFailFast, where ingest failures throw).
  std::vector<std::int32_t> batch_unit_group_;
  /// Group id -> pull index of its first-seen member (the representative
  /// the raw-mode canonical fold charges the group's load to).
  std::vector<std::int64_t> batch_group_first_;
  /// Per solve-slot outcome of the current chunk (see kSlot* in
  /// sor_engine_batch.cpp) + the captured error of failed slots.
  std::vector<char> batch_slot_state_;
  std::vector<DemandError> batch_slot_errors_;
  /// Engine-scoped fault plan (see set_fault_plan).
  std::shared_ptr<fault::FaultPlan> fault_plan_;
  // ---- cross-epoch warm-start state (src/warm/) ------------------------
  // Engine-owned like the scratch pool, but unlike scratch it carries
  // results ACROSS routes — so it only exists (and is only touched) when a
  // route opts in via RouteSpec::warm_start; cold routes stay bit-identical
  // to a build without it.
  std::unique_ptr<warm::WarmStartState> warm_state_;
  /// Stored report of the captured route, returned verbatim when the next
  /// warm route is the bit-identical instance (same demand and spec).
  /// set_edge_capacity, install_paths and rebuild_backend drop it (the
  /// stored report is stale), while the per-pair flow seed survives a
  /// capacity edit (install_paths and rebuild_backend clear it).
  std::unique_ptr<RouteReport> warm_replay_;
  /// The spec the replay snapshot was captured under.
  RouteSpec warm_spec_;
  double build_ms_ = 0.0;
  double sample_ms_ = 0.0;
};

}  // namespace sor

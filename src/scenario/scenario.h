// The scenario engine: trace-driven workloads that turn SorEngine from a
// one-shot solver into a long-lived routing service.
//
// A ScenarioSpec describes a whole experiment: topology + backend, a
// TrafficModel producing an epoch sequence of demands with churn, a link
// event stream (explicit and/or random churn), and a ReinstallPolicy. A
// fixed seed determines everything: generate_trace() seed-splits one
// stream per epoch (plus a churn stream) so traces are bit-identical for a
// fixed seed, and ScenarioRunner's reports are bit-identical across engine
// thread counts (all engine parallelism is seed-split fan-out).
//
// The amortization/adaptivity trade-off at the heart of the paper is the
// runner's subject. Stage 2 (install_paths) runs ONCE up front over the
// install window's support; afterwards each epoch:
//   1. applies its link events (capacity-only; edge ids stay valid),
//   2. asks the ReinstallPolicy whether to pay for Stage 2 again
//      (`never` epochs skip Stage 2 entirely — install_ms stays 0),
//   3. routes the epoch demand's covered part over the frozen paths and
//      records a per-epoch report row (congestion, ratio, coverage,
//      install vs route wall-ms).
// Traffic that drifted to pairs with no installed candidates is NOT
// routed; it is reported as lost coverage — the pressure that makes
// reinstalling worth paying for.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/sor_engine.h"
#include "scale/demand_source.h"
#include "scenario/link_events.h"
#include "scenario/traffic_model.h"

namespace sor::scenario {

/// When the runner re-runs Stage 2 (and optionally Stage 1). The initial
/// install before epoch 0 always happens and is never counted as a
/// "reinstall".
struct ReinstallPolicy {
  enum class Kind {
    kNever,          ///< install once, amortize forever
    kEveryK,         ///< every k-th epoch
    kOnLinkEvent,    ///< after any epoch with link events
    kOnSupportDrift  ///< when the uncovered demand fraction exceeds theta
  };

  Kind kind = Kind::kNever;
  int k = 1;           ///< kEveryK period
  double theta = 0.25; ///< kOnSupportDrift: uncovered-volume threshold

  /// "never" | "every_k[:K]" | "on_link_event" | "on_support_drift[:THETA]".
  static std::optional<ReinstallPolicy> parse(const std::string& text);
  std::string to_string() const;

  friend bool operator==(const ReinstallPolicy&,
                         const ReinstallPolicy&) = default;
};

/// How run_scenario responds when an epoch's work throws — a
/// fault-injected or organic failure while applying a link event,
/// reinstalling paths, or routing the epoch demand.
enum class DegradePolicy {
  kFail = 0,       ///< rethrow; the scenario dies (the historical behavior)
  kSkipEpoch = 1,  ///< record the epoch as degraded, serve nothing, move on
  /// Keep serving: drop the failing link event / keep the frozen
  /// (pre-failure) PathSystem and still route the epoch over it. A failed
  /// install leaves `stale = true` on the row — the epoch was served with
  /// paths the policy wanted to replace.
  kStaleRoute = 2,
};

const char* to_string(DegradePolicy policy);
/// "fail" | "skip_epoch" | "stale_route" -> policy; nullopt otherwise.
std::optional<DegradePolicy> parse_degrade_policy(const std::string& text);

/// A whole scenario, self-contained (src/io/scenario_io.h gives it a
/// check-in-and-diff text form; sor_cli --scenario runs it).
struct ScenarioSpec {
  std::string name = "scenario";
  /// Topology by generator name: hypercube (size = dim), torus (size =
  /// side), expander (size = n, `degree`), fattree (size = k), abilene.
  std::string topology = "torus";
  int size = 8;
  int degree = 4;
  /// Backend registry spec; empty picks the topology default.
  std::string backend;
  std::uint64_t seed = 1;
  int epochs = 8;
  int alpha = 4;
  /// Stage 2 installs the union of supports of the next `install_horizon`
  /// epochs (from the install epoch); <= 0 means the whole remaining
  /// trace — "the customer pairs are public, the volumes are the hidden
  /// demand", the closest match to the paper's install-before-reveal
  /// barrier.
  int install_horizon = 0;
  /// The solve's limits (round cap, gap bar, deadline), forwarded verbatim
  /// to every epoch route as RouteSpec::mwu.
  MinCongestionOptions solve;
  /// Solve the per-epoch offline optimum for the competitive ratio
  /// (expensive; the bench turns it off).
  bool measure_ratio = true;
  /// Reinstalls also re-run Stage 1 on the current (event-mutated) graph.
  bool rebuild_backend = false;
  ReinstallPolicy reinstall;
  TrafficModelSpec model;
  LinkChurnSpec churn;
  /// Explicit events, merged with the generated churn (both applied).
  std::vector<LinkEvent> events;
  /// Failure response of the serving loop (see DegradePolicy).
  DegradePolicy degrade = DegradePolicy::kFail;
  /// Forwarded to every epoch route (RouteSpec::warm_start): carry each
  /// pair's restricted flow and integral choices across epochs
  /// (docs/warm-start.md). Off keeps the historical cold-per-epoch
  /// serving loop bit-identically.
  bool warm_start = false;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The materialized workload: one demand per epoch plus the merged,
/// epoch-sorted event stream. A pure function of (spec, spec.seed).
struct ScenarioTrace {
  std::vector<Demand> demands;
  std::vector<LinkEvent> events;
};

/// Builds the spec's topology (expander construction derives its stream
/// from spec.seed, so the graph is part of the deterministic contract).
/// Throws std::invalid_argument for unknown topology names / bad sizes.
Graph make_scenario_graph(const ScenarioSpec& spec);

/// The default backend spec for a topology name (mirrors sor_cli).
std::string default_backend(const std::string& topology);

/// Stage 1 over the spec's topology and backend: the engine the runner
/// drives. `threads` sizes the worker pool (results thread-invariant).
SorEngine build_scenario_engine(const ScenarioSpec& spec, int threads = 1);

/// Materializes the epoch demands (one seed-split stream per epoch) and
/// the event stream (explicit events + generated churn, epoch-sorted).
/// Throws std::invalid_argument if an explicit event is outside the trace
/// or names a non-edge — a typo'd hand-edited spec must not silently run
/// a different workload than it describes.
ScenarioTrace generate_trace(const Graph& g, const ScenarioSpec& spec);

/// Streams the spec's epoch demands one per next() call — the lazy
/// counterpart of generate_trace().demands, for feeding scenario traffic
/// straight into SorEngine::route_batch(DemandSource&) without ever
/// materializing the whole trace. Bit-identity contract: the i-th pulled
/// demand equals generate_trace(g, spec).demands[i] exactly, because
/// Rng::split(n) is n forks in index order, so forking one child stream
/// per epoch on demand reproduces generate_trace's stream discipline
/// stream for stream. (Only the demands are streamed; link events still
/// come from generate_trace.)
class EpochDemandSource final : public scale::DemandSource {
 public:
  EpochDemandSource(const Graph& g, const ScenarioSpec& spec)
      : graph_(&g),
        model_(spec.model),
        epochs_(spec.epochs > 0 ? spec.epochs : 0),
        root_(spec.seed) {}

  bool next(std::span<const DemandEntry>& out) override;

  /// Epochs already streamed (== the next epoch index).
  int epochs_pulled() const { return next_epoch_; }

 private:
  const Graph* graph_;
  TrafficModelSpec model_;
  int epochs_ = 0;
  int next_epoch_ = 0;
  Rng root_;
  Demand demand_;                     ///< reused epoch materialization
  std::vector<DemandEntry> entries_;  ///< backs the span handed out
};

/// One row of the scenario's service log, in the canonical
/// bench_common.h stage-row spirit: wall-times split by pipeline stage so
/// the amortization gap (`never` pays install_ms == 0 after epoch 0) is
/// directly visible.
struct EpochReport {
  int epoch = 0;
  bool reinstalled = false;   ///< Stage 2 ran this epoch (true at epoch 0)
  bool rebuilt = false;       ///< Stage 1 re-ran this epoch
  int link_events = 0;        ///< events applied before this epoch
  std::size_t support = 0;    ///< |supp| of the epoch demand
  double offered = 0.0;       ///< siz(d): total volume revealed
  double routed = 0.0;        ///< volume over pairs with installed paths
  double coverage = 1.0;      ///< routed / offered (1 when offered == 0)
  /// Uncovered volume fraction measured BEFORE any reinstall this epoch —
  /// what the on_support_drift trigger compared against theta (0 at epoch
  /// 0, where nothing is installed yet). Recorded for every policy, so an
  /// external checker can re-derive whether the trigger should have fired.
  double drift = 0.0;
  double congestion = 0.0;    ///< fractional congestion of the routed part
  double ratio = 0.0;         ///< vs offline optimum (0 if !measure_ratio)
  std::size_t installed_pairs = 0;
  std::size_t installed_paths = 0;
  double install_ms = 0.0;    ///< Stage 2 (+ Stage 1 if rebuilt); 0 = skipped
  double route_ms = 0.0;      ///< Stage 3
  double optimum_ms = 0.0;    ///< offline-optimum oracle
  /// Heap allocations inside the epoch's route call (RouteReport::mem;
  /// zero when the library is compiled without SOR_ALLOC_STATS, and zero
  /// in steady state once the engine's scratch arenas are warm). Like the
  /// wall-time fields, this is observability — machine-load dependent in
  /// principle (scratch-pool borrowing) — so it is deliberately excluded
  /// from the bit-identity comparisons in test_scenario / bench_m6.
  std::uint64_t route_allocs = 0;
  /// PathStore arena occupancy (ints) after this epoch's install —
  /// the flat-arena gauge bench_m7_service_memory charts across churn.
  std::size_t arena_ints = 0;
  /// A DegradePolicy absorbed a failure this epoch (kFail never sets it —
  /// the scenario rethrows instead).
  bool degraded = false;
  /// kStaleRoute only: an install failed and the epoch was served over the
  /// frozen pre-failure paths.
  bool stale = false;
  /// ErrorCode of the absorbed failure as an int, -1 when none (kept an
  /// int so the report row stays plain data).
  int error_code = -1;
  /// Certified gap of the epoch's restricted solve against its own dual
  /// bound (RouteReport::solution.optimality_gap). Every routed epoch
  /// reports it; an epoch that routed nothing reads 0.
  double optimality_gap = 0.0;
  /// Rounds the epoch's restricted solve actually ran
  /// (RouteReport::solution.rounds_used; 0 for degraded epochs).
  int mwu_rounds = 0;
  /// Warm-start accounting (zeros unless ScenarioSpec::warm_start):
  /// rounds the warm seed saved vs the last cold solve, and whether the
  /// epoch's route was seeded at all (RouteReport::warm).
  int rounds_saved = 0;
  bool warm_hit = false;
};

struct ScenarioReport {
  std::vector<EpochReport> epochs;
  int reinstalls = 0;         ///< reinstalled epochs AFTER the initial one
  double total_install_ms = 0.0;  ///< incl. the epoch-0 install
  double total_route_ms = 0.0;
  double total_optimum_ms = 0.0;
  double max_congestion = 0.0;
  double max_ratio = 0.0;
  double mean_coverage = 1.0;
  double min_coverage = 1.0;
  int degraded_epochs = 0;    ///< epochs where a DegradePolicy absorbed a failure
};

/// Drives `engine` across the trace under the spec's ReinstallPolicy. The
/// engine must have been built over make_scenario_graph(spec) (or an
/// identical graph); its graph is mutated in place by link events and left
/// in the final epoch's state. Reports are bit-identical across engine
/// thread counts for a fixed spec (timing fields excepted).
ScenarioReport run_scenario(SorEngine& engine, const ScenarioSpec& spec,
                            const ScenarioTrace& trace);

/// One independent scenario run for run_scenario_jobs: its own spec, its
/// own engine (built at `engine_threads` workers).
struct ScenarioJob {
  ScenarioSpec spec;
  int engine_threads = 1;
};

/// Runs every job — build engine, generate trace, run_scenario — fanned
/// out across `threads` workers (0 = hardware concurrency, 1 = serial).
/// Jobs are shared-nothing (each owns its graph, engine, and trace), so
/// results are bit-identical to running the jobs serially in order, for
/// every `threads`; results land in job order.
std::vector<ScenarioReport> run_scenario_jobs(std::span<const ScenarioJob> jobs,
                                              int threads = 0);

/// Named built-in scenarios ("diurnal", "flashcrowd", "storm",
/// "failover") — starting points to dump, edit, and re-run. Nullopt for
/// unknown names.
std::optional<ScenarioSpec> scenario_preset(const std::string& name);
/// The preset names, sorted.
std::vector<std::string> scenario_preset_names();

}  // namespace sor::scenario

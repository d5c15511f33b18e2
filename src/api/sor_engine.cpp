#include "api/sor_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "warm/warm_state.h"

namespace sor {

SorEngine::~SorEngine() = default;
SorEngine::SorEngine(SorEngine&&) noexcept = default;
SorEngine& SorEngine::operator=(SorEngine&&) noexcept = default;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Times one pipeline stage once for both instruments: the engine trace
/// span, and on scope exit the elapsed milliseconds written into `ms` (a
/// StageTimes field or the engine's build/sample member).
class StageScope {
 public:
  StageScope(const char* name, double& ms)
      : span_(name, "engine"), ms_(ms), start_(Clock::now()) {}
  ~StageScope() { ms_ = ms_since(start_); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  void set_arg(const char* name, std::uint64_t value) {
    span_.set_arg(name, value);
  }

 private:
  obs::TraceSpan span_;
  double& ms_;
  Clock::time_point start_;
};

/// round_randomized() rounds amounts to nearest integers; only demands that
/// are already (numerically) positive-integral survive that untouched.
bool is_near_integral(const Demand& d) {
  for (const auto& [pair, value] : d.entries()) {
    const double rounded = std::round(value);
    if (rounded < 0.5 || std::abs(value - rounded) > kIntegralTolerance) {
      return false;
    }
  }
  return true;
}

/// A per-pair capture (`rows`, aligned with `captured`) laid out per
/// CURRENT commodity, by a merge walk of the two (s, t)-sorted supports: a
/// captured pair takes its row verbatim, any other pair an empty row (an
/// unseeded commodity for the restricted solve, round_randomized's argmax
/// fallback for rounding). Verbatim is exact because the per-pair captures
/// are non-empty only while no reinstall ran since the capture, so every
/// index still names the same installed candidate of its pair. Returns
/// whether any row is non-empty (none is after a reinstall cleared
/// `rows`).
template <class Row>
bool per_pair_seed(const Demand& demand, std::span<const DemandEntry> captured,
                   const std::vector<Row>& rows, std::vector<Row>& out) {
  out.clear();
  if (rows.size() != captured.size()) return false;  // cleared by a reinstall
  out.reserve(demand.entries().size());
  bool any = false;
  std::size_t i = 0;
  for (const auto& [pair, value] : demand.entries()) {
    while (i < captured.size() &&
           std::make_pair(captured[i].s, captured[i].t) < pair) {
      ++i;
    }
    if (i < captured.size() && captured[i].s == pair.first &&
        captured[i].t == pair.second) {
      out.push_back(rows[i]);
      any = any || !rows[i].empty();
    } else {
      out.emplace_back();
    }
  }
  return any;
}

}  // namespace

SamplingSpec SamplingSpec::for_demand(const Demand& d, int alpha,
                                      bool with_cut) {
  SamplingSpec spec;
  spec.alpha = alpha;
  spec.with_cut = with_cut;
  spec.all_pairs = false;  // empty demand => install nothing, not everything
  spec.pairs = support_pairs(d);
  return spec;
}

SamplingSpec SamplingSpec::for_demands(std::span<const Demand> demands,
                                       int alpha, bool with_cut) {
  SamplingSpec spec;
  spec.alpha = alpha;
  spec.with_cut = with_cut;
  spec.all_pairs = false;
  for (const Demand& d : demands) {
    const auto pairs = support_pairs(d);
    spec.pairs.insert(spec.pairs.end(), pairs.begin(), pairs.end());
  }
  std::sort(spec.pairs.begin(), spec.pairs.end());
  spec.pairs.erase(std::unique(spec.pairs.begin(), spec.pairs.end()),
                   spec.pairs.end());
  return spec;
}

SorEngine SorEngine::build(Graph graph, const BackendSpec& spec,
                           std::uint64_t seed, int threads) {
  if (threads < 0) {
    throw std::invalid_argument("SorEngine::build: threads must be >= 0");
  }
  SorEngine engine;
  engine.rng_.reseed(seed);
  engine.threads_ = threads;
  engine.graph_ = std::make_unique<Graph>(std::move(graph));
  engine.spec_ = spec;
  {
    const StageScope stage("build", engine.build_ms_);
    engine.backend_ = BackendRegistry::instance().make(
        *engine.graph_, spec, engine.rng_, engine.pool());
  }
  return engine;
}

void SorEngine::set_fault_plan(std::shared_ptr<fault::FaultPlan> plan) {
  fault_plan_ = std::move(plan);
}

fault::FaultPlan* SorEngine::active_fault_plan() const {
  if (fault_plan_) return fault_plan_.get();
  // The registry keeps the global plan alive until it is replaced, so the
  // raw pointer stays valid for callers that install plans up front (CLI,
  // env, test setup) — the supported usage.
  return fault::global_plan().get();
}

void SorEngine::set_edge_capacity(int e, double capacity) {
  if (fault::FaultPlan* plan = active_fault_plan();
      plan && plan->fire_next(fault::Site::kEdgeCapacity)) {
    // Injected corruption: the update arrives as 0 or NaN — exactly the
    // inputs the validation below must reject.
    capacity = (e % 2 == 0) ? 0.0 : std::numeric_limits<double>::quiet_NaN();
  }
  if (e < 0 || e >= graph_->num_edges()) {
    throw SorError(ErrorCode::kBadCapacity, "set_edge_capacity",
                   "SorEngine::set_edge_capacity: bad edge id");
  }
  if (!std::isfinite(capacity)) {
    throw SorError(ErrorCode::kBadCapacity, "set_edge_capacity",
                   "SorEngine::set_edge_capacity: capacity must be finite");
  }
  if (!(capacity > 0.0)) {
    throw SorError(
        ErrorCode::kBadCapacity, "set_edge_capacity",
        "SorEngine::set_edge_capacity: capacity must be > 0 (model a failed "
        "link as a small positive capacity, not 0)");
  }
  obs::service_counters().capacity_edits.fetch_add(1,
                                                   std::memory_order_relaxed);
  graph_->set_capacity(e, capacity);
  // Warm starts (docs/warm-start.md): the REPLAY snapshot goes (its
  // congestion is stale), while the per-pair flow seed stays live — a flow
  // is still a flow under the new capacity.
  warm_replay_.reset();
}

void SorEngine::rebuild_backend() {
  obs::service_counters().rebuilds.fetch_add(1, std::memory_order_relaxed);
  {
    const StageScope stage("rebuild", build_ms_);
    backend_ = BackendRegistry::instance().make(*graph_, spec_, rng_, pool());
  }
  // A new substrate invalidates every cross-epoch capture: the warm seed's
  // "nearby instance" premise is gone along with the old routing.
  if (warm_state_) warm_state_->invalidate();
  warm_replay_.reset();
}

SorEngine SorEngine::build(Graph graph, const std::string& spec_text,
                           std::uint64_t seed, int threads) {
  return build(std::move(graph), BackendSpec::parse(spec_text), seed, threads);
}

void SorEngine::set_threads(int threads) {
  if (threads < 0) {
    throw std::invalid_argument("SorEngine::set_threads: threads must be >= 0");
  }
  if (threads == threads_) return;
  threads_ = threads;
  pool_.reset();  // re-created lazily at the new width
}

util::ThreadPool* SorEngine::pool() {
  if (threads_ == 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  return pool_.get();
}

const PathSystem& SorEngine::install_paths(const SamplingSpec& spec) {
  if (fault::FaultPlan* plan = active_fault_plan();
      plan && plan->fire_next(fault::Site::kInstall)) {
    // Injected at entry, BEFORE any engine state is touched, so a caller
    // that catches this (scenario DegradePolicy::kStaleRoute) keeps a
    // fully consistent frozen PathSystem to serve from.
    throw SorError(ErrorCode::kInstallFault, "install",
                   "install_paths: injected install fault (fault-plan site "
                   "install)");
  }
  if (spec.alpha < 1) {
    throw std::invalid_argument("install_paths: alpha must be >= 1");
  }
  obs::service_counters().installs.fetch_add(1, std::memory_order_relaxed);
  const StageScope stage("install", sample_ms_);
  util::ThreadPool* workers = pool();
  // Reinstall into the EXISTING system when there is one: clear() empties
  // it but keeps the interning arena's capacity, so the arena holds one
  // generation of paths and a reinstall of no larger support reallocates
  // nothing. Sampling draws and insertion order are those of a fresh
  // install, and so are the arena's bytes.
  if (paths_) {
    paths_->clear();
  } else {
    paths_.emplace(*graph_);
  }
  if (!(spec.pairs.empty() && !spec.all_pairs)) {  // else: explicit empty
    std::vector<std::pair<int, int>> all;
    const std::vector<std::pair<int, int>>* pairs = &spec.pairs;
    if (spec.pairs.empty()) {
      all = all_ordered_pairs(graph_->num_vertices());
      pairs = &all;
    }
    if (spec.with_cut) {
      sample_path_system_with_cut_into(*backend_, spec.alpha, *pairs, rng_,
                                       workers, *paths_);
    } else {
      sample_path_system_into(*backend_, spec.alpha, *pairs, rng_, workers,
                              *paths_);
    }
  }
  // Every requested pair was resampled into fresh slabs, so the captured
  // per-pair weights and integral choices and the replay snapshot no
  // longer describe the installed candidates.
  if (warm_state_) {
    warm_state_->weights.clear();
    warm_state_->choices.clear();
  }
  warm_replay_.reset();
  return *paths_;
}

SorEngine::MemStats SorEngine::mem_stats() const {
  MemStats stats;
  if (paths_) {
    const PathStore& store = paths_->store();
    stats.arena_ints = store.arena_size();
    stats.arena_capacity = store.arena_capacity();
    stats.live_paths = store.num_paths();
    stats.installed_pairs = paths_->num_pairs();
  }
  stats.rss_bytes = runtime::rss_bytes();
  return stats;
}

obs::MetricsRegistry SorEngine::metrics() const {
  using std::memory_order_relaxed;
  obs::MetricsRegistry reg;
  const obs::ServiceCounters& c = obs::service_counters();
  reg.counter("sor_routes_served_total", c.routes_served.load(memory_order_relaxed),
              "route/route_into calls served (process-wide)");
  reg.counter("sor_mwu_rounds_total", c.mwu_rounds.load(memory_order_relaxed),
              "restricted-solve rounds paid across all routes");
  reg.counter("sor_batches_total", c.batches.load(memory_order_relaxed),
              "route_batch calls");
  reg.counter("sor_batch_demands_total",
              c.batch_demands.load(memory_order_relaxed),
              "demands pulled across all batches");
  reg.counter("sor_batch_failed_total",
              c.batch_failed.load(memory_order_relaxed),
              "demands skipped under on_error=skip_and_report");
  reg.counter("sor_installs_total", c.installs.load(memory_order_relaxed),
              "install_paths calls");
  reg.counter("sor_rebuilds_total", c.rebuilds.load(memory_order_relaxed),
              "rebuild_backend calls");
  reg.counter("sor_capacity_edits_total",
              c.capacity_edits.load(memory_order_relaxed),
              "set_edge_capacity link events applied");
  reg.counter("sor_warm_hits_total", c.warm_hits.load(memory_order_relaxed),
              "warm routes seeded by a previous capture");
  reg.counter("sor_warm_replays_total",
              c.warm_replays.load(memory_order_relaxed),
              "bit-identical instances served from the replay snapshot");
  reg.counter("sor_warm_rounds_saved_total",
              c.warm_rounds_saved.load(memory_order_relaxed),
              "restricted-solve rounds warm starts saved vs the cold reference");
  reg.counter("sor_scenario_epochs_total",
              c.scenario_epochs.load(memory_order_relaxed),
              "scenario epochs served");
  reg.counter("sor_degraded_epochs_total",
              c.degraded_epochs.load(memory_order_relaxed),
              "epochs served degraded (DegradePolicy skip/stale)");
  reg.counter("sor_scenario_reinstalls_total",
              c.scenario_reinstalls.load(memory_order_relaxed),
              "epochs whose ReinstallPolicy triggered a reinstall");
  reg.counter("sor_fault_fires_total",
              c.fault_fires.load(memory_order_relaxed),
              "injected faults triggered (all sites)");
  reg.histogram("sor_route_ms", c.route_ms,
                "wall milliseconds per route_one_into call");

  // Engine memory gauges. "Absent, never 0" discipline for anything this
  // build/platform cannot measure: a reader must not mistake "no data"
  // for "measured zero".
  const MemStats ms = mem_stats();
  reg.gauge("sor_paths_arena_ints", static_cast<double>(ms.arena_ints),
            "live PathStore arena size, in ints");
  reg.gauge("sor_paths_arena_capacity_ints",
            static_cast<double>(ms.arena_capacity),
            "PathStore arena capacity, in ints");
  reg.gauge("sor_paths_live", static_cast<double>(ms.live_paths),
            "interned paths currently live");
  reg.gauge("sor_installed_pairs", static_cast<double>(ms.installed_pairs),
            "pairs with >= 1 installed candidate path");
  if (ms.rss_bytes > 0) {
    reg.gauge("sor_rss_bytes", static_cast<double>(ms.rss_bytes),
              "process resident set size");
  }
  if (runtime::counting_compiled()) {
    const runtime::AllocCounters alloc = runtime::thread_counters();
    reg.gauge("sor_thread_allocs", static_cast<double>(alloc.allocs),
              "operator new calls on the exposing thread since start");
    reg.gauge("sor_thread_frees", static_cast<double>(alloc.frees),
              "operator delete calls on the exposing thread since start");
    reg.gauge("sor_thread_alloc_bytes",
              static_cast<double>(alloc.alloc_bytes),
              "bytes requested through operator new on the exposing thread");
  }
  return reg;
}

const PathSystem& SorEngine::paths() const {
  if (!paths_) {
    throw std::logic_error(
        "SorEngine: install_paths() has not been called yet");
  }
  return *paths_;
}

void SorEngine::require_installed_pairs(const Demand& demand) const {
  const PathSystem& ps = paths();  // throws before install_paths()
  for (const auto& [pair, value] : demand.entries()) {
    if (!ps.has_pair(pair.first, pair.second)) {
      std::ostringstream msg;
      msg << "SorEngine::route: demand pair (" << pair.first << ", "
          << pair.second << ") has no installed candidate paths; "
          << "install_paths() over the demand's support first";
      throw std::invalid_argument(msg.str());
    }
  }
}

RouteReport SorEngine::route(const Demand& demand, const RouteSpec& spec) {
  RouteReport out;
  route_into(demand, spec, out);
  return out;
}

RouteReport& SorEngine::route_into(const Demand& demand, const RouteSpec& spec,
                                   RouteReport& out) {
  require_installed_pairs(demand);
  // Cold and warm routes visit this injection checkpoint in the same
  // position: warm mode must not change which sites a route reaches.
  if (fault::FaultPlan* plan = active_fault_plan();
      plan && plan->fire_next(fault::Site::kScratchAlloc)) {
    throw SorError(ErrorCode::kScratchAlloc, "scratch_pool",
                   "route: injected scratch-arena allocation failure "
                   "(fault-plan site scratch_alloc)");
  }
  if (spec.warm_start) return route_warm_into(demand, spec, out);
  auto scratch = scratch_pool_.acquire();
  route_one_into(demand, spec, rng_, *scratch, out);
  return out;
}

RouteReport& SorEngine::route_warm_into(const Demand& demand,
                                        const RouteSpec& spec,
                                        RouteReport& out) {
  if (!warm_state_) warm_state_ = std::make_unique<warm::WarmStartState>();
  warm::WarmStartState& st = *warm_state_;

  // Routes that draw randomness (rounding, simulation) cannot be replayed:
  // skipping their rng draws would shift the engine stream relative to a
  // cold run. Fractional-only routes draw nothing, so replay is stream-safe.
  const bool replayable = !spec.round_integral && !spec.simulate_packets;

  // ---- replay fast path: the bit-identical instance ---------------------
  if (replayable && st.valid && warm_replay_ && spec == warm_spec_ &&
      warm::demand_matches(st.demand, demand)) {
    const obs::TraceSpan span("replay", "warm");
    obs::ServiceCounters& counters = obs::service_counters();
    // A replay IS a served route; it just skips the solve.
    counters.routes_served.fetch_add(1, std::memory_order_relaxed);
    counters.warm_hits.fetch_add(1, std::memory_order_relaxed);
    counters.warm_replays.fetch_add(1, std::memory_order_relaxed);
    counters.warm_rounds_saved.fetch_add(
        static_cast<std::uint64_t>(std::max(st.cold_rounds, 0)),
        std::memory_order_relaxed);
    out = *warm_replay_;
    out.warm = WarmInfo{};
    out.warm.enabled = true;
    out.warm.hit = true;
    out.warm.replayed = true;
    out.warm.rounds_saved = st.cold_rounds;
    return out;
  }

  // ---- seed decision ----------------------------------------------------
  // Every pair the capture shares with this demand starts from its captured
  // weights (the solver scales them to the new amount); the others enter
  // cold.
  warm::RouteWarmHooks hooks;
  std::vector<std::vector<double>> restricted_seed;
  std::vector<std::vector<int>> rounding_seed;
  const bool hit =
      st.valid && per_pair_seed(demand, st.demand, st.weights, restricted_seed);
  if (hit) {
    hooks.restricted.warm = &restricted_seed;
    if ((spec.round_integral || spec.simulate_packets) &&
        !st.choices.empty()) {
      per_pair_seed(demand, st.demand, st.choices, rounding_seed);
      hooks.rounding_seed = &rounding_seed;
    }
  }

  {
    const obs::TraceSpan span(hit ? "seed" : "cold", "warm");
    auto scratch = scratch_pool_.acquire();
    route_one_into(demand, spec, rng_, *scratch, out, &hooks);
  }

  // ---- capture ----------------------------------------------------------
  if (hit) {
    obs::ServiceCounters& counters = obs::service_counters();
    counters.warm_hits.fetch_add(1, std::memory_order_relaxed);
    counters.warm_rounds_saved.fetch_add(
        static_cast<std::uint64_t>(
            std::max(0, st.cold_rounds - out.solution.rounds_used)),
        std::memory_order_relaxed);
  }
  const obs::TraceSpan capture_span("capture", "warm");
  st.valid = true;
  demand.entries_into(st.demand);
  if (!hit) st.cold_rounds = out.solution.rounds_used;
  st.weights = out.solution.weights;
  if (out.integral) {
    st.choices = out.integral->choices;
  } else {
    st.choices.assign(out.solution.commodities.size(), {});
  }
  if (replayable) {
    if (!warm_replay_) warm_replay_ = std::make_unique<RouteReport>();
    *warm_replay_ = out;
    warm_spec_ = spec;
  } else {
    warm_replay_.reset();
  }
  out.warm = WarmInfo{};
  out.warm.enabled = true;
  out.warm.hit = hit;
  out.warm.rounds_saved =
      hit ? std::max(0, st.cold_rounds - out.solution.rounds_used) : 0;
  return out;
}

// route_batch lives in sor_engine_batch.cpp — the scale-out streaming /
// aggregation pipeline is a subsystem of its own.

void SorEngine::route_one_into(const Demand& demand, const RouteSpec& spec,
                               Rng& rng, runtime::EngineScratch& scratch,
                               RouteReport& out,
                               const warm::RouteWarmHooks* hooks) const {
  const PathSystem& ps = *paths_;

  // Service counters are always on (relaxed atomic bumps — no allocation,
  // no influence on results); spans cost one atomic load while tracing is
  // disarmed. See docs/observability.md for the overhead contract.
  obs::ServiceCounters& counters = obs::service_counters();
  counters.routes_served.fetch_add(1, std::memory_order_relaxed);
  const auto call_start = Clock::now();

  // The probe covers the whole stage-3..5 pipeline on this thread; a warm
  // scratch + reused `out` make the delta zero in the steady state.
  const runtime::AllocProbe probe;

  out.times = StageTimes{};
  out.times.build_ms = build_ms_;
  out.times.sample_ms = sample_ms_;
  out.optimum.reset();
  out.integral.reset();
  out.simulation.reset();
  out.warm = WarmInfo{};  // route_warm_into overwrites after this returns

  // Opt-in convergence telemetry: the sink binds RouteReport.convergence
  // (constructing it clears stale records either way, capacity retained);
  // only the restricted solve — the route itself — records through it.
  MwuHooks restricted_hooks = hooks != nullptr ? hooks->restricted : MwuHooks{};
  obs::ConvergenceSink sink(out.convergence);
  if (spec.record_convergence) restricted_hooks.sink = &sink;

  {
    StageScope stage("route", out.times.route_ms);
    route_fractional_into(*graph_, ps, demand, spec.mwu, scratch.route,
                          out.solution, restricted_hooks);
    // The solve's work: every round evaluates one exp per footprint edge
    // plus the shared one, and reads every lane-block entry once.
    const auto rounds =
        static_cast<std::uint64_t>(std::max(out.solution.rounds_used, 0));
    const MinCongestionScratch& solve = scratch.route.mwu;
    stage.set_arg("rounds", rounds);
    stage.set_arg("exp_evals", rounds * (solve.cand_edges.size() + 1));
    stage.set_arg("lane_reads", rounds * solve.lane_edges.size());
  }
  out.congestion = out.solution.congestion;
  counters.mwu_rounds.fetch_add(
      static_cast<std::uint64_t>(std::max(out.solution.rounds_used, 0)),
      std::memory_order_relaxed);

  double lb = 0.0;
  if (spec.compute_lower_bound) {
    StageScope stage("lower_bound", out.times.lower_bound_ms);
    lb = distance_lower_bound(*graph_, demand, scratch.distance);
    stage.set_arg("dijkstra_runs", static_cast<std::uint64_t>(
                                       scratch.distance.dijkstra_runs));
    if (graph_->total_capacity() > 0.0) {
      lb = std::max(lb, demand.size() / graph_->total_capacity());
    }
  }
  if (spec.compute_optimum) {
    {
      const StageScope stage("optimum", out.times.optimum_ms);
      out.optimum =
          optimal_congestion(*graph_, demand, spec.mwu, scratch.optimum);
    }
    lb = std::max(lb, out.optimum->value());
  }
  out.opt_lower_bound = lb;
  out.competitive_ratio = lb > 0.0 ? out.congestion / lb : 0.0;

  if ((spec.round_integral || spec.simulate_packets) &&
      is_near_integral(demand)) {
    const StageScope stage("rounding", out.times.rounding_ms);
    out.integral = round_randomized(
        *graph_, out.solution, rng, spec.rounding_trials,
        hooks != nullptr ? hooks->rounding_seed : nullptr);
    local_search_improve(*graph_, *out.integral);
  }

  if (spec.simulate_packets && out.integral) {
    // One store-and-forward packet per routed demand unit: the interned
    // edge ids of its chosen candidate, staged into the scratch's reused
    // list.
    auto& packets = scratch.packets;
    const IntegralSolution& integral = *out.integral;
    packets.clear();
    for (std::size_t j = 0; j < integral.choices.size(); ++j) {
      for (int choice : integral.choices[j]) {
        packets.push_back(
            integral.candidates.edges(j, static_cast<std::size_t>(choice)));
      }
    }
    const StageScope stage("sim", out.times.sim_ms);
    out.simulation = simulate_packets(*graph_, packets, spec.policy, rng);
  }

  out.mem = probe.delta();
  counters.route_ms.observe_ms(ms_since(call_start));
}

}  // namespace sor

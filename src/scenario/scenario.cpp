#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/generators.h"
#include "io/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sor::scenario {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Floor for event-scaled capacities: a "failed" link must stay a valid
/// positive-capacity edge (see link_events.h).
constexpr double kMinCapacity = 1e-9;

}  // namespace

// ---- ReinstallPolicy ----------------------------------------------------

std::optional<ReinstallPolicy> ReinstallPolicy::parse(const std::string& text) {
  const auto colon = text.find(':');
  const bool has_colon = colon != std::string::npos;
  const std::string head = text.substr(0, colon);
  const std::string arg = has_colon ? text.substr(colon + 1) : std::string();
  // A dangling "every_k:" (argument forgotten) must fail loudly, not fall
  // back to the default k — same discipline as TrafficModelSpec::parse.
  if (has_colon && arg.empty()) return std::nullopt;
  ReinstallPolicy policy;
  if (head == "never") {
    policy.kind = Kind::kNever;
    if (has_colon) return std::nullopt;
    return policy;
  }
  if (head == "on_link_event") {
    policy.kind = Kind::kOnLinkEvent;
    if (has_colon) return std::nullopt;
    return policy;
  }
  if (head == "every_k") {
    policy.kind = Kind::kEveryK;
    if (!arg.empty()) {
      std::istringstream in(arg);
      if (!(in >> policy.k) || !in.eof() || policy.k < 1) return std::nullopt;
    }
    return policy;
  }
  if (head == "on_support_drift") {
    policy.kind = Kind::kOnSupportDrift;
    if (!arg.empty()) {
      std::istringstream in(arg);
      if (!(in >> policy.theta) || !in.eof() || policy.theta < 0.0 ||
          policy.theta >= 1.0) {
        return std::nullopt;
      }
    }
    return policy;
  }
  return std::nullopt;
}

std::string ReinstallPolicy::to_string() const {
  switch (kind) {
    case Kind::kNever:
      return "never";
    case Kind::kOnLinkEvent:
      return "on_link_event";
    case Kind::kEveryK:
      return "every_k:" + std::to_string(k);
    case Kind::kOnSupportDrift:
      return "on_support_drift:" + io::detail::format_double(theta);
  }
  return "never";
}

// ---- DegradePolicy ------------------------------------------------------

const char* to_string(DegradePolicy policy) {
  switch (policy) {
    case DegradePolicy::kFail:
      return "fail";
    case DegradePolicy::kSkipEpoch:
      return "skip_epoch";
    case DegradePolicy::kStaleRoute:
      return "stale_route";
  }
  return "fail";
}

std::optional<DegradePolicy> parse_degrade_policy(const std::string& text) {
  if (text == "fail") return DegradePolicy::kFail;
  if (text == "skip_epoch") return DegradePolicy::kSkipEpoch;
  if (text == "stale_route") return DegradePolicy::kStaleRoute;
  return std::nullopt;
}

// ---- topology -----------------------------------------------------------

Graph make_scenario_graph(const ScenarioSpec& spec) {
  if (spec.size < 1) {
    throw std::invalid_argument("scenario: size must be >= 1");
  }
  if (spec.topology == "hypercube") return gen::hypercube(spec.size);
  if (spec.topology == "torus") {
    return gen::grid(spec.size, spec.size, /*wrap=*/true);
  }
  if (spec.topology == "expander") {
    // The expander's stream derives from the scenario seed so the graph is
    // part of the deterministic (spec, seed) -> trace contract.
    Rng rng(spec.seed ^ 0x5ce0a7a9c0ffee11ull);
    return gen::random_regular(spec.size, spec.degree, rng);
  }
  if (spec.topology == "fattree") return gen::fat_tree(spec.size);
  if (spec.topology == "abilene") return gen::abilene(10.0);
  throw std::invalid_argument("scenario: unknown topology " + spec.topology);
}

std::string default_backend(const std::string& topology) {
  if (topology == "hypercube") return "valiant";
  if (topology == "abilene") return "racke:num_trees=12";
  return "racke:num_trees=10";
}

SorEngine build_scenario_engine(const ScenarioSpec& spec, int threads) {
  const std::string backend =
      spec.backend.empty() ? default_backend(spec.topology) : spec.backend;
  return SorEngine::build(make_scenario_graph(spec), backend, spec.seed,
                          threads);
}

// ---- trace --------------------------------------------------------------

ScenarioTrace generate_trace(const Graph& g, const ScenarioSpec& spec) {
  ScenarioTrace trace;
  const int epochs = std::max(spec.epochs, 0);

  // Stream discipline: one child stream per epoch, split in epoch order,
  // then one churn stream — the trace is a pure function of (spec, seed).
  Rng root(spec.seed);
  std::vector<Rng> epoch_streams = root.split(static_cast<std::size_t>(epochs));
  Rng churn_stream = root.fork();

  trace.demands.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    trace.demands.push_back(
        epoch_demand(g, spec.model, e, epoch_streams[static_cast<std::size_t>(e)]));
  }

  // Explicit events that can never apply (outside the trace, or naming a
  // non-edge — a vertex typo in a hand-edited spec) fail loudly, same as
  // the file format's typo'd keywords and knobs do: silently dropping one
  // would run a different workload than the file describes. Generated
  // churn events are valid by construction.
  for (const LinkEvent& ev : spec.events) {
    std::ostringstream what;
    if (ev.epoch < 0 || ev.epoch >= epochs) {
      what << "scenario event epoch " << ev.epoch << " outside [0, " << epochs
           << ")";
      throw std::invalid_argument(what.str());
    }
    if (g.edge_between(ev.u, ev.v) < 0) {
      what << "scenario event names non-edge (" << ev.u << ", " << ev.v
           << ")";
      throw std::invalid_argument(what.str());
    }
  }
  trace.events = spec.events;
  const std::vector<LinkEvent> generated =
      generate_link_events(g, spec.churn, epochs, churn_stream);
  trace.events.insert(trace.events.end(), generated.begin(), generated.end());
  sort_events(trace.events);
  return trace;
}

// ---- runner -------------------------------------------------------------

ScenarioReport run_scenario(SorEngine& engine, const ScenarioSpec& spec,
                            const ScenarioTrace& trace) {
  const int epochs = static_cast<int>(trace.demands.size());
  const Graph& g = engine.graph();

  // Down/up events restore against the PRE-scenario capacities.
  std::vector<double> original(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (int e = 0; e < g.num_edges(); ++e) {
    original[static_cast<std::size_t>(e)] = g.edge(e).capacity;
  }

  // Resolve every event's (u, v) to its edge id ONCE, against the pristine
  // graph: set_capacity re-resolves the canonical edge of a parallel pair,
  // so a down event would otherwise flip edge_between's answer and the
  // matching up event would "restore" the sibling edge, leaving the
  // degraded one down forever.
  std::map<std::pair<int, int>, int> event_edge;
  for (const LinkEvent& ev : trace.events) {
    event_edge.emplace(std::make_pair(ev.u, ev.v), g.edge_between(ev.u, ev.v));
  }

  // Stage 2 over the install window's support union: the pairs are public
  // ahead of time, the volumes stay hidden until each epoch reveals them.
  const auto install_window = [&](int from) {
    const int to = spec.install_horizon <= 0
                       ? epochs
                       : std::min(epochs, from + spec.install_horizon);
    const std::span<const Demand> window(trace.demands.data() + from,
                                         static_cast<std::size_t>(to - from));
    return SamplingSpec::for_demands(window, spec.alpha);
  };

  const auto do_install = [&](int epoch, EpochReport& row) {
    const auto start = Clock::now();
    if (spec.rebuild_backend && epoch > 0) {
      engine.rebuild_backend();
      row.rebuilt = true;
    }
    engine.install_paths(install_window(epoch));
    row.install_ms = ms_since(start);
    row.reinstalled = true;
  };

  RouteSpec route_spec;
  route_spec.compute_optimum = spec.measure_ratio;
  route_spec.compute_lower_bound = spec.measure_ratio;
  route_spec.mwu = spec.solve;
  route_spec.warm_start = spec.warm_start;

  ScenarioReport report;
  report.epochs.reserve(static_cast<std::size_t>(epochs));
  double coverage_sum = 0.0;
  std::size_t next_event = 0;

  // Reused across epochs: route_into refills this report's nested buffers
  // in place (capacity kept, rows of a shrinking demand parked for reuse),
  // so a steady-state epoch — no reinstall, full coverage, warm buffers —
  // performs zero heap allocations in the serving loop.
  // bench_m7_service_memory gates this.
  RouteReport route_report;

  // Tracks whether any install has ever succeeded: under a DegradePolicy
  // the epoch-0 install can fail, and engine.paths() must not be touched
  // before the first successful Stage 2.
  bool have_install = false;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch", "scenario");
    epoch_span.set_arg("epoch", static_cast<std::uint64_t>(epoch));
    EpochReport row;
    row.epoch = epoch;
    bool skip_epoch = false;  // kSkipEpoch absorbed a failure this epoch

    // Records an absorbed failure on the row (never called under kFail —
    // the failure rethrows instead).
    const auto absorb = [&row](const std::exception& err) {
      row.degraded = true;
      const auto* typed = dynamic_cast<const SorError*>(&err);
      row.error_code = static_cast<int>(
          typed ? typed->code() : ErrorCode::kWorkerFault);
    };

    // 1. Link events land before the epoch's demand is revealed.
    while (next_event < trace.events.size() &&
           trace.events[next_event].epoch == epoch) {
      const LinkEvent& ev = trace.events[next_event++];
      const int e = event_edge.at({ev.u, ev.v});
      if (e < 0) continue;  // defensive: trace loaded against another graph
      const std::size_t ei = static_cast<std::size_t>(e);
      try {
        switch (ev.kind) {
          case LinkEvent::Kind::kDown:
            engine.set_edge_capacity(
                e, std::max(original[ei] * spec.churn.down_factor,
                            kMinCapacity));
            break;
          case LinkEvent::Kind::kUp:
            engine.set_edge_capacity(e, original[ei]);
            break;
          case LinkEvent::Kind::kScale:
            engine.set_edge_capacity(
                e, std::max(g.edge(e).capacity * ev.factor, kMinCapacity));
            break;
        }
      } catch (const std::exception& err) {
        if (spec.degrade == DegradePolicy::kFail) throw;
        absorb(err);
        if (spec.degrade == DegradePolicy::kSkipEpoch) skip_epoch = true;
        // kStaleRoute: drop the failing event (capacity unchanged) and
        // keep serving. Remaining events still apply either way — graph
        // state must stay consistent for later epochs.
      }
      ++row.link_events;
    }

    const Demand& demand = trace.demands[static_cast<std::size_t>(epoch)];
    row.support = demand.support_size();
    row.offered = demand.size();

    // 2. The ReinstallPolicy decides whether this epoch pays for Stage 2.
    if (epoch == 0) {
      try {
        do_install(0, row);
        have_install = true;
      } catch (const std::exception& err) {
        if (spec.degrade == DegradePolicy::kFail) throw;
        absorb(err);
        if (spec.degrade == DegradePolicy::kSkipEpoch) skip_epoch = true;
        // kStaleRoute with nothing installed yet: the epoch serves zero
        // coverage, and the drift trigger can heal it at a later epoch.
      }
    } else {
      // Uncovered volume fraction against the CURRENT (pre-reinstall)
      // installed paths: the on_support_drift trigger input, recorded on
      // every row so checkers can re-derive the trigger decision.
      double covered = 0.0;
      if (have_install) {
        const PathSystem& installed = engine.paths();
        for (const auto& [pair, value] : demand.entries()) {
          if (installed.has_pair(pair.first, pair.second)) covered += value;
        }
      }
      row.drift =
          row.offered > 0.0 ? 1.0 - covered / row.offered : 0.0;

      bool trigger = false;
      switch (spec.reinstall.kind) {
        case ReinstallPolicy::Kind::kNever:
          break;
        case ReinstallPolicy::Kind::kEveryK:
          trigger = epoch % std::max(spec.reinstall.k, 1) == 0;
          break;
        case ReinstallPolicy::Kind::kOnLinkEvent:
          trigger = row.link_events > 0;
          break;
        case ReinstallPolicy::Kind::kOnSupportDrift:
          trigger = row.drift > spec.reinstall.theta;
          break;
      }
      if (trigger && !skip_epoch) {
        try {
          do_install(epoch, row);
          have_install = true;
          ++report.reinstalls;
        } catch (const std::exception& err) {
          if (spec.degrade == DegradePolicy::kFail) throw;
          absorb(err);
          if (spec.degrade == DegradePolicy::kSkipEpoch) {
            skip_epoch = true;
          } else if (have_install) {
            // kStaleRoute: the install faulted BEFORE mutating any state
            // (SorEngine's contract), so the frozen pre-failure paths are
            // intact — serve the epoch over them.
            row.stale = true;
          }
        }
      }
    }

    if (have_install) {
      const PathSystem& ps_now = engine.paths();
      row.installed_pairs = ps_now.num_pairs();
      row.installed_paths = ps_now.total_paths();
    }

    if (skip_epoch || !have_install) {
      // Nothing served this epoch: lost coverage, zero congestion.
      row.routed = 0.0;
      row.coverage = row.offered > 0.0 ? 0.0 : 1.0;
    } else {
      const PathSystem& ps = engine.paths();
      // 3. Route what the frozen paths can carry; the rest is lost
      // coverage. Fully-covered epochs (the steady state under every_k:1
      // or a horizon-0 install) route the trace demand directly: a
      // filtered copy of a fully-covered demand has identical entries in
      // identical (map) order, so skipping the copy is bit-identical and
      // keeps the loop alloc-free.
      bool fully_covered = true;
      for (const auto& [pair, value] : demand.entries()) {
        if (!ps.has_pair(pair.first, pair.second)) {
          fully_covered = false;
          break;
        }
      }
      Demand partial;  // filled only on the (non-steady) partial-coverage path
      const Demand& routable =
          fully_covered ? demand
                        : (partial = demand.filtered([&](int s, int t, double) {
                             return ps.has_pair(s, t);
                           }));
      row.routed = fully_covered ? row.offered : routable.size();
      row.coverage = row.offered > 0.0 ? row.routed / row.offered : 1.0;

      if (!routable.empty()) {
        try {
          engine.route_into(routable, route_spec, route_report);
          row.congestion = route_report.congestion;
          row.ratio = route_report.competitive_ratio;
          row.optimality_gap = route_report.solution.optimality_gap;
          row.route_ms = route_report.times.route_ms;
          row.optimum_ms = route_report.times.optimum_ms;
          row.route_allocs = route_report.mem.allocs;
          row.mwu_rounds = route_report.solution.rounds_used;
          row.rounds_saved = route_report.warm.rounds_saved;
          row.warm_hit = route_report.warm.hit;
        } catch (const std::exception& err) {
          if (spec.degrade == DegradePolicy::kFail) throw;
          absorb(err);
          // A failed route serves nothing, whatever the non-fail policy.
          row.routed = 0.0;
          row.coverage = row.offered > 0.0 ? 0.0 : 1.0;
        }
      }
    }
    row.arena_ints = engine.mem_stats().arena_ints;

    if (row.degraded) ++report.degraded_epochs;
    {
      obs::ServiceCounters& counters = obs::service_counters();
      counters.scenario_epochs.fetch_add(1, std::memory_order_relaxed);
      if (row.degraded) {
        counters.degraded_epochs.fetch_add(1, std::memory_order_relaxed);
      }
      if (row.reinstalled) {
        counters.scenario_reinstalls.fetch_add(1, std::memory_order_relaxed);
      }
    }
    report.total_install_ms += row.install_ms;
    report.total_route_ms += row.route_ms;
    report.total_optimum_ms += row.optimum_ms;
    report.max_congestion = std::max(report.max_congestion, row.congestion);
    report.max_ratio = std::max(report.max_ratio, row.ratio);
    report.min_coverage = std::min(report.min_coverage, row.coverage);
    coverage_sum += row.coverage;
    report.epochs.push_back(row);
  }
  report.mean_coverage =
      epochs > 0 ? coverage_sum / static_cast<double>(epochs) : 1.0;
  return report;
}

// ---- presets ------------------------------------------------------------

namespace {

TrafficModelSpec model_or_die(const std::string& text) {
  auto model = TrafficModelSpec::parse(text);
  if (!model) throw std::logic_error("bad built-in model spec: " + text);
  return *model;
}

ReinstallPolicy policy_or_die(const std::string& text) {
  auto policy = ReinstallPolicy::parse(text);
  if (!policy) throw std::logic_error("bad built-in policy spec: " + text);
  return *policy;
}

}  // namespace

std::optional<ScenarioSpec> scenario_preset(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  if (name == "diurnal") {
    // Fixed support, breathing volumes: the friendliest case for a frozen
    // PathSystem — every_k:4 is already overkill.
    spec.topology = "torus";
    spec.size = 8;
    spec.backend = "racke:num_trees=6";
    spec.epochs = 12;
    spec.model = model_or_die(
        "diurnal_gravity:total=128,amplitude=0.6,period=6,max_pairs=96");
    spec.reinstall = policy_or_die("every_k:4");
    return spec;
  }
  if (name == "flashcrowd") {
    // A crowd ramps into one sink and decays; drift-triggered reinstall
    // pays exactly when the crowd's fresh pairs appear.
    spec.topology = "hypercube";
    spec.size = 6;
    spec.epochs = 10;
    // Install only the live epoch's support (horizon 1): the crowd's fresh
    // pairs are what drifts, and what the drift trigger reacts to. A
    // horizon-0 install would know the whole trace's pairs up front and
    // the policy would never fire.
    spec.install_horizon = 1;
    spec.model = model_or_die(
        "flash_crowd:start=2,ramp=2,hold=3,decay=2,fanin=24,max_pairs=128");
    spec.reinstall = policy_or_die("on_support_drift:0.2");
    return spec;
  }
  if (name == "storm") {
    // A fresh permutation every epoch: maximal support churn, the
    // adversarial case for reinstall=never.
    spec.topology = "hypercube";
    spec.size = 6;
    spec.epochs = 8;
    spec.install_horizon = 1;  // every epoch's support is brand new
    spec.model = model_or_die("permutation_storm");
    spec.reinstall = policy_or_die("every_k:1");
    return spec;
  }
  if (name == "failover") {
    // Random outages degrade links to 5% capacity for a couple of epochs;
    // reinstall on_link_event resamples around the damage.
    spec.topology = "torus";
    spec.size = 8;
    spec.backend = "racke:num_trees=6";
    spec.epochs = 10;
    spec.model =
        model_or_die("diurnal_gravity:total=128,amplitude=0.4,max_pairs=96");
    spec.churn = {.rate = 0.5, .down_factor = 0.05, .mean_outage = 2};
    spec.reinstall = policy_or_die("on_link_event");
    return spec;
  }
  return std::nullopt;
}

std::vector<std::string> scenario_preset_names() {
  return {"diurnal", "failover", "flashcrowd", "storm"};
}

// ---- scale-out ----------------------------------------------------------

bool EpochDemandSource::next(std::span<const DemandEntry>& out) {
  if (next_epoch_ >= epochs_) return false;
  // Fork the epoch's child stream lazily, in epoch order — identical to
  // generate_trace's root.split(epochs)[e] (split IS n forks in order).
  Rng stream = root_.fork();
  demand_ = epoch_demand(*graph_, model_, next_epoch_, stream);
  demand_.entries_into(entries_);
  out = entries_;
  ++next_epoch_;
  return true;
}

std::vector<ScenarioReport> run_scenario_jobs(std::span<const ScenarioJob> jobs,
                                              int threads) {
  std::vector<ScenarioReport> reports(jobs.size());
  auto run_one = [&](std::size_t i) {
    const ScenarioJob& job = jobs[i];
    SorEngine engine = build_scenario_engine(job.spec, job.engine_threads);
    const ScenarioTrace trace = generate_trace(engine.graph(), job.spec);
    reports[i] = run_scenario(engine, job.spec, trace);
  };
  if (threads == 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(jobs.size(), run_one);
  }
  return reports;
}

}  // namespace sor::scenario

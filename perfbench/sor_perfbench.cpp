// sor_perfbench — one run of one workload of the end-to-end TE-epoch
// benchmark. perfbench/run.py builds and drives it; this binary prints its
// raw measurements as one JSON document on stdout and run.py turns them
// into the metrics BENCHMARK.json names.
//
//   sor_perfbench --workload sparse-epochs|dense-batch|certified
//                 --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Every workload is a closed loop with one client: a TE controller that
// reveals the next epoch's demand only after the previous answer returned.
// Paths are installed once, for the union of the supports of a seeded pool
// of epochs; the timed loop cycles through that pool.
//
// Phases of one run:
//   setup   SorEngine::build + install_paths, repeated; run.py reports the
//           median (so work moved into set-up shows).
//   check   one untimed pass over the pool through the public engine API:
//           the correctness checks and the seed-exact quality numbers
//           (congestion, ratio, makespan) come from here, so they do not
//           depend on how many epochs the timed loop fits in.
//   timed   the pool, cycled, until the time budget is spent; tracing off.
// With --trace 1 the timed phase gets half the budget. The other half
// replays the same epochs by calling each layer's public entry point
// itself, each call inside an obs::TraceSpan, and every replayed answer
// must match the check pass bit for bit (so the trace measures the same
// program). Layers a workload never runs are measured once per run after
// the loop, so every per-layer number is a real measurement.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/rounding.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "runtime/alloc_stats.h"
#include "runtime/scratch.h"
#include "sim/packet_sim.h"

namespace {

using namespace sor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- workloads ----------------------------------------------------------

enum class Kind { kSparseEpochs, kDenseBatch, kCertified };

/// Paths sampled per pair, the paper's alpha, on every workload.
constexpr int kAlpha = 4;

struct Workload {
  Kind kind;
  const char* backend;
  int threads;            ///< engine pool width
  int pool_epochs;        ///< distinct epochs the timed loop cycles through
  int demands_per_epoch;  ///< 1 = one route_into; > 1 = one route_batch
  RouteSpec spec;
};

Graph make_graph(Kind kind) {
  switch (kind) {
    case Kind::kSparseEpochs: return gen::hypercube(10);
    case Kind::kDenseBatch: return gen::grid(24, 24, /*wrap=*/true);
    case Kind::kCertified: return gen::grid(8, 8, /*wrap=*/true);
  }
  return Graph(0);
}

// Why these three: sparse-epochs puts the restricted MWU on a small demand
// footprint in a large graph (a footprint-proportional round cost shows
// here); dense-batch puts it on a whole-graph footprint and is the only
// workload that runs rounding, simulation, the pool and the batch path;
// certified is the only one that pays for the free-path optimum oracle.
bool make_workload(const std::string& name, Workload& w) {
  if (name == "sparse-epochs") {
    w = {Kind::kSparseEpochs, "valiant", 1, 64, 1, {}};
    w.spec.compute_optimum = false;
  } else if (name == "dense-batch") {
    // Two pool threads, not one per core: a batch waits for its slowest
    // worker, and on a 4-core box with four workers any other runnable
    // thread stalls one of them, which swamped the batch times with noise.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    w = {Kind::kDenseBatch, "racke:num_trees=10", std::clamp(hw, 1, 2), 4, 8,
         {}};
    w.spec.compute_optimum = false;
    w.spec.round_integral = true;
    w.spec.simulate_packets = true;
  } else if (name == "certified") {
    w = {Kind::kCertified, "racke:num_trees=10", 1, 32, 1, {}};
  } else {
    return false;
  }
  return true;
}

std::vector<Demand> make_pool(const Workload& w, int n, Rng& rng) {
  std::vector<Demand> pool;
  const int total = w.pool_epochs * w.demands_per_epoch;
  for (int i = 0; i < total; ++i) {
    pool.push_back(w.kind == Kind::kSparseEpochs
                       ? gen::hotspot_demand(n, 2, 8, 1.0, rng)
                       : gen::random_permutation_demand(n, rng));
  }
  return pool;
}

// ---- per-layer ledger ---------------------------------------------------

struct LayerStat {
  double ms = 0.0;
  std::size_t calls = 0;
};

/// Times one call into a layer: an obs::TraceSpan for the Chrome trace and
/// the self-time table, plus a steady_clock sum for the ledger. `name`
/// must be a string literal (the tracer stores the pointer).
class LayerScope {
 public:
  LayerScope(std::map<std::string, LayerStat>& ledger, const char* name)
      : span_(name, "perfbench"), stat_(ledger[name]), start_(Clock::now()) {}
  ~LayerScope() {
    stat_.ms += ms_since(start_);
    ++stat_.calls;
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  obs::TraceSpan span_;
  LayerStat& stat_;
  Clock::time_point start_;
};

// ---- correctness --------------------------------------------------------

/// Relative slack for inequalities between two independently rounded
/// floating-point certificates.
constexpr double kSlack = 1e-9;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return same_bits(x, y); });
}

/// Every fractional field of two reports of the same demand, bit for bit.
bool same_fractional(const RouteReport& a, const RouteReport& b) {
  const SemiObliviousSolution& x = a.solution;
  const SemiObliviousSolution& y = b.solution;
  if (x.weights.size() != y.weights.size()) return false;
  for (std::size_t j = 0; j < x.weights.size(); ++j) {
    if (!same_bits(x.weights[j], y.weights[j])) return false;
  }
  return same_bits(x.edge_load, y.edge_load) &&
         same_bits(x.congestion, y.congestion) &&
         same_bits(x.lower_bound, y.lower_bound) &&
         x.rounds_used == y.rounds_used && x.status == y.status &&
         same_bits(a.opt_lower_bound, b.opt_lower_bound) &&
         same_bits(a.competitive_ratio, b.competitive_ratio);
}

/// The checks every routed demand must pass; "" when it does.
std::string check_report(const RouteReport& r, bool certified) {
  if (!(r.congestion > 0.0)) return "non-positive congestion";
  if (!(r.opt_lower_bound > 0.0)) return "non-positive optimum lower bound";
  if (!(r.opt_lower_bound <= r.congestion * (1.0 + kSlack))) {
    return "opt_lower_bound exceeds congestion";
  }
  if (certified) {
    if (!r.optimum) return "certified route has no optimum";
    if (!(r.optimum->lower <= r.optimum->upper * (1.0 + kSlack))) {
      return "optimum.lower exceeds optimum.upper";
    }
  }
  return "";
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's peak, which survives fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- the run ------------------------------------------------------------

/// Lemma 6.3 rounding + local search, then the store-and-forward
/// simulation of one packet per demand unit — what the engine runs as
/// stages 4 and 5, called here through the layers' own entry points.
struct IntegralOutcome {
  double integral_congestion = 0.0;
  std::size_t packets = 0;
  int makespan = 0;
};

IntegralOutcome round_and_simulate(const Graph& g,
                                   const SemiObliviousSolution& fractional,
                                   const RouteSpec& spec, Rng& rng,
                                   std::map<std::string, LayerStat>& ledger) {
  IntegralOutcome out;
  IntegralSolution integral;
  {
    const LayerScope layer(ledger, "core.rounding");
    integral = round_randomized(g, fractional, rng, spec.rounding_trials);
    local_search_improve(g, integral);
  }
  out.integral_congestion = integral.congestion;
  std::vector<Path> packet_paths;
  for (std::size_t j = 0; j < integral.choices.size(); ++j) {
    for (int choice : integral.choices[j]) {
      packet_paths.push_back(integral.paths[j][static_cast<std::size_t>(choice)]);
    }
  }
  out.packets = packet_paths.size();
  const LayerScope layer(ledger, "sim");
  out.makespan = simulate_packets(g, packet_paths, spec.policy, rng).makespan;
  return out;
}

class Run {
 public:
  /// The seed makes the inputs — the demand pool and the stream the
  /// serial workloads' makespans are rounded with. The substrate is system
  /// configuration, built from a fixed seed, so set-up does the same work
  /// whatever the seed.
  Run(Workload w, std::uint64_t seed) : w_(std::move(w)) {
    Rng inputs(seed);
    quality_rng_ = Rng(inputs.next());
    pool_ = make_pool(w_, make_graph(w_.kind).num_vertices(), inputs);
  }

  /// SorEngine::build + install_paths, repeated at least 5 times and for at
  /// least one second (at most 200 times); keeps the last engine.
  void setup(std::map<std::string, LayerStat>& ledger) {
    const auto start = Clock::now();
    std::size_t reps = 0;
    do {
      engine_.reset();  // one engine alive at a time, as in a service
      Graph graph = make_graph(w_.kind);
      const auto rep = Clock::now();
      {
        const LayerScope layer(ledger, "oblivious.build");
        engine_.emplace(SorEngine::build(std::move(graph), w_.backend,
                                         kEngineSeed, w_.threads));
      }
      {
        const LayerScope layer(ledger, "core.install");
        engine_->install_paths(SamplingSpec::for_demands(pool_, kAlpha));
      }
      setup_s_.push_back(ms_since(rep) / 1000.0);
      ++reps;
    } while (reps < 200 && (reps < 5 || ms_since(start) < 1000.0));
  }

  /// The untimed pass: checks plus the seed-exact quality numbers.
  void check_pass() {
    SorEngine& engine = *engine_;
    std::map<std::string, LayerStat> unused;
    Rng rng = quality_rng_;
    for (int e = 0; e < w_.pool_epochs; ++e) {
      attempt([&] {
        if (batched()) {
          const BatchReport batch = engine.route_batch(epoch(e), w_.spec);
          RouteSpec fractional = w_.spec;
          fractional.round_integral = false;
          fractional.simulate_packets = false;
          RouteReport serial;
          for (std::size_t i = 0; i < batch.reports.size(); ++i) {
            const RouteReport& r = batch.reports[i];
            engine.route_into(epoch(e)[i], fractional, serial);
            if (!same_fractional(r, serial)) {
              return std::string(
                  "route_batch fractional fields differ from a serial "
                  "route_into");
            }
            if (!r.simulation) return std::string("batch route not simulated");
            if (auto bad = record(r); !bad.empty()) return bad;
            makespan_.push_back(r.simulation->makespan);
          }
        } else {
          RouteReport r;
          engine.route_into(epoch(e)[0], w_.spec, r);
          if (auto bad = record(r); !bad.empty()) return bad;
          makespan_.push_back(round_and_simulate(engine.graph(), r.solution,
                                                 w_.spec, rng, unused)
                                  .makespan);
          solutions_.push_back(r.solution);
        }
        return std::string();
      });
    }
  }

  /// Closed loop over the pool through the engine, tracing off.
  void timed_loop(double seconds) {
    SorEngine& engine = *engine_;
    RouteReport r;
    const auto start = Clock::now();
    for (std::size_t k = 0; k == 0 || ms_since(start) < seconds * 1000.0;
         ++k) {
      const int e = static_cast<int>(k % static_cast<std::size_t>(w_.pool_epochs));
      attempt([&] {
        if (batched()) {
          const auto t0 = Clock::now();
          const BatchReport batch = engine.route_batch(epoch(e), w_.spec);
          epoch_ms_.push_back(ms_since(t0));
          for (std::size_t i = 0; i < batch.reports.size(); ++i) {
            count_allocs(k, batch.reports[i]);
            if (auto bad = replayed(batch.reports[i], e, i); !bad.empty()) {
              return bad;
            }
          }
        } else {
          const auto t0 = Clock::now();
          engine.route_into(epoch(e)[0], w_.spec, r);
          epoch_ms_.push_back(ms_since(t0));
          count_allocs(k, r);
          if (auto bad = replayed(r, e, 0); !bad.empty()) return bad;
        }
        return std::string();
      });
    }
    timed_wall_s_ = ms_since(start) / 1000.0;
  }

  /// The traced replay: each layer's entry point called directly, inside
  /// spans, on the same epochs; answers must match the check pass bit for
  /// bit. Then the layers this workload never runs, measured once.
  void traced_loop(double seconds) {
    SorEngine& engine = *engine_;
    const Graph& g = engine.graph();
    runtime::EngineScratch scratch;
    SemiObliviousSolution solution;
    const auto start = Clock::now();
    for (std::size_t k = 0; k == 0 || ms_since(start) < seconds * 1000.0;
         ++k) {
      const int e = static_cast<int>(k % static_cast<std::size_t>(w_.pool_epochs));
      attempt([&] {
        const LayerScope whole(layers_, "epoch");
        if (batched()) {
          // route_batch forks one stream per demand from the engine stream,
          // in order; forking a copy the same way replays its rounding and
          // simulation draws exactly.
          Rng streams = engine.rng();
          const auto t0 = Clock::now();
          BatchReport batch;
          {
            const LayerScope layer(layers_, "api.batch");
            batch = engine.route_batch(epoch(e), w_.spec);
          }
          traced_epoch_ms_.push_back(ms_since(t0));
          batch_efficiency_.push_back(
              batch.total_route_ms / (batch.wall_ms * batch.threads));
          for (std::size_t i = 0; i < batch.reports.size(); ++i) {
            const Demand& d = epoch(e)[i];
            Rng stream = streams.fork();
            const RouteReport& r = batch.reports[i];
            if (auto bad = replayed(r, e, i); !bad.empty()) return bad;
            if (auto bad = replay_layers(g, d, scratch, solution, e, i);
                !bad.empty()) {
              return bad;
            }
            const IntegralOutcome io =
                round_and_simulate(g, solution, w_.spec, stream, layers_);
            integral_congestion_.push_back(io.integral_congestion);
            packets_.push_back(io.packets);
            if (!r.simulation || io.makespan != r.simulation->makespan) {
              return std::string("replayed makespan differs from route_batch");
            }
          }
        } else {
          const auto t0 = Clock::now();
          const std::string bad =
              replay_layers(g, epoch(e)[0], scratch, solution, e, 0);
          traced_epoch_ms_.push_back(ms_since(t0));
          return bad;
        }
        return std::string();
      });
    }
    off_path_layers(scratch);
  }

  // ---- JSON ------------------------------------------------------------

  void write_json(std::ostream& out, const std::string& workload,
                  std::uint64_t seed, int trace,
                  const std::string& trace_path) const {
    out.precision(17);
    out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
        << ",\"trace\":" << trace << ",\"provenance\":{\"compiler\":\""
        << PERFBENCH_CXX_ID << ' ' << __VERSION__ << "\",\"build_type\":\""
        << PERFBENCH_BUILD_TYPE << "\",\"nproc\":"
        << std::thread::hardware_concurrency()
        << ",\"threads\":" << w_.threads << ",\"counting_compiled\":"
        << (runtime::counting_compiled() ? "true" : "false") << '}'
        << ",\"demands_per_epoch\":" << w_.demands_per_epoch
        << ",\"pool_epochs\":" << w_.pool_epochs
        << ",\"timed_wall_s\":" << timed_wall_s_
        << ",\"peak_rss_mb\":" << peak_rss_mb()
        << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_;
    array(out, "setup_s", setup_s_);
    array(out, "epoch_ms", epoch_ms_);
    array(out, "congestion", congestion_);
    array(out, "ratio", ratio_);
    array(out, "makespan", makespan_);
    out << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out << (i ? "," : "") << '"' << escape(failures_[i]) << '"';
    }
    out << ']';
    if (trace) {
      array(out, "traced_epoch_ms", traced_epoch_ms_);
      out << ",\"trace_file\":\"" << escape(trace_path) << "\",\"layers\":{";
      const char* sep = "";
      for (const auto& [name, value] : layer_metrics()) {
        out << sep << '"' << name << "\":" << value;
        sep = ",";
      }
      out << '}';
    }
    out << "}\n";
  }

  std::map<std::string, LayerStat>& setup_ledger() { return setup_layers_; }

 private:
  bool batched() const { return w_.demands_per_epoch > 1; }
  bool certified() const { return w_.spec.compute_optimum; }

  std::span<const Demand> epoch(int e) const {
    return std::span<const Demand>(pool_).subspan(
        static_cast<std::size_t>(e * w_.demands_per_epoch),
        static_cast<std::size_t>(w_.demands_per_epoch));
  }

  /// Runs one epoch; a throw or a non-empty message counts it as failed.
  template <typename Fn>
  void attempt(Fn&& fn) {
    ++attempted_;
    std::string bad;
    try {
      bad = fn();
    } catch (const std::exception& ex) {
      bad = std::string("threw: ") + ex.what();
    }
    if (!bad.empty()) {
      ++failed_;
      if (failures_.size() < 8) failures_.push_back(bad);
    }
  }

  /// Counts a timed route's heap allocations once the whole pool has been
  /// through the reused report and scratch buffers once.
  void count_allocs(std::size_t k, const RouteReport& r) {
    if (k < static_cast<std::size_t>(w_.pool_epochs)) return;
    allocs_ += r.mem.allocs;
    ++alloc_routes_;
  }

  /// Check-pass bookkeeping of one routed demand.
  std::string record(const RouteReport& r) {
    if (auto bad = check_report(r, certified()); !bad.empty()) return bad;
    congestion_.push_back(r.congestion);
    ratio_.push_back(r.competitive_ratio);
    return "";
  }

  std::size_t ref_index(int e, std::size_t i) const {
    return static_cast<std::size_t>(e * w_.demands_per_epoch) + i;
  }

  /// A repeat of a check-pass demand must give the same answer.
  std::string replayed(const RouteReport& r, int e, std::size_t i) const {
    if (auto bad = check_report(r, certified()); !bad.empty()) return bad;
    if (ref_index(e, i) >= congestion_.size()) {
      return "no check-pass answer to compare with";
    }
    if (!same_bits(r.congestion, congestion_[ref_index(e, i)])) {
      return "repeated route changed its congestion";
    }
    return "";
  }

  /// Stage 3 and the certificate of one demand through the layers' entry
  /// points, exactly as SorEngine::route_into composes them.
  std::string replay_layers(const Graph& g, const Demand& d,
                            runtime::EngineScratch& scratch,
                            SemiObliviousSolution& solution, int e,
                            std::size_t i) {
    {
      const LayerScope layer(layers_, "lp.restricted");
      route_fractional_into(g, engine_->paths(), d, w_.spec.mwu,
                            scratch.route, solution);
    }
    restricted_rounds_.push_back(solution.rounds_used);
    restricted_capped_.push_back(solution.status == SolveStatus::kCompleted);
    double lb = 0.0;
    {
      const LayerScope layer(layers_, "graph.lower_bound");
      lb = distance_lower_bound(g, d, scratch.distance);
      lb = std::max(lb, d.size() / g.total_capacity());
    }
    if (certified()) {
      const OptimalCongestion opt = optimum(g, d, scratch);
      lb = std::max(lb, opt.value());
    }
    const double ratio = solution.congestion / lb;
    if (ref_index(e, i) >= congestion_.size()) {
      return std::string("no check-pass answer to compare with");
    }
    if (!same_bits(solution.congestion, congestion_[ref_index(e, i)]) ||
        !same_bits(ratio, ratio_[ref_index(e, i)])) {
      return std::string("traced replay differs from the untraced route");
    }
    return "";
  }

  OptimalCongestion optimum(const Graph& g, const Demand& d,
                            runtime::EngineScratch& scratch) {
    OptimalCongestion opt;
    {
      const LayerScope layer(layers_, "lp.optimum");
      opt = optimal_congestion(g, d, w_.spec.mwu, scratch.optimum);
    }
    optimum_capped_.push_back(opt.status == SolveStatus::kCompleted);
    optimum_gap_.push_back(opt.upper / opt.lower);
    return opt;
  }

  /// Layers off this workload's epoch path, measured once per run so that
  /// every per-layer number is a measurement: rounding + simulation of the
  /// pool's routes (serial workloads), one route_batch of the first epochs
  /// (serial workloads), one optimum solve on the first 16 pairs of the
  /// first demand (uncertified workloads).
  void off_path_layers(runtime::EngineScratch& scratch) {
    SorEngine& engine = *engine_;
    const Graph& g = engine.graph();
    if (!batched()) {
      // Same stream as the check pass, so the makespans must repeat.
      Rng rng = quality_rng_;
      attempt([&] {
        for (std::size_t k = 0; k < solutions_.size(); ++k) {
          const IntegralOutcome io =
              round_and_simulate(g, solutions_[k], w_.spec, rng, layers_);
          integral_congestion_.push_back(io.integral_congestion);
          packets_.push_back(io.packets);
          if (io.makespan != makespan_[k]) {
            return std::string("replayed makespan differs from check pass");
          }
        }
        return std::string();
      });
      const std::size_t n = std::min<std::size_t>(pool_.size(), 4);
      attempt([&] {
        BatchReport batch;
        {
          const LayerScope layer(layers_, "api.batch");
          batch = engine.route_batch(
              std::span<const Demand>(pool_).first(n), w_.spec);
        }
        batch_efficiency_.push_back(
            batch.total_route_ms / (batch.wall_ms * batch.threads));
        for (std::size_t i = 0; i < n; ++i) {
          if (auto bad = replayed(batch.reports[i], static_cast<int>(i), 0);
              !bad.empty()) {
            return bad;
          }
        }
        return std::string();
      });
    }
    if (!certified()) {
      Demand head;
      for (const auto& [pair, value] : pool_.front().entries()) {
        if (head.support_size() == 16) break;
        head.set(pair.first, pair.second, value);
      }
      attempt([&] {
        const OptimalCongestion opt = optimum(g, head, scratch);
        return opt.lower <= opt.upper * (1.0 + kSlack)
                   ? std::string()
                   : std::string("optimum.lower exceeds optimum.upper");
      });
    }
  }

  std::map<std::string, double> layer_metrics() const {
    std::map<std::string, double> m;
    auto per_call = [](const std::map<std::string, LayerStat>& ledger,
                       const char* name) {
      const auto it = ledger.find(name);
      return it == ledger.end() || it->second.calls == 0
                 ? 0.0
                 : it->second.ms / static_cast<double>(it->second.calls);
    };
    m["oblivious.build_ms"] = per_call(setup_layers_, "oblivious.build");
    m["core.install_ms"] = per_call(setup_layers_, "core.install");
    const SorEngine::MemStats mem = engine_->mem_stats();
    m["core.paths_installed"] =
        static_cast<double>(engine_->paths().total_paths());
    m["core.arena_ints"] = static_cast<double>(mem.arena_ints);
    m["lp.restricted_ms"] = per_call(layers_, "lp.restricted");
    m["lp.restricted_rounds"] = mean(restricted_rounds_);
    m["lp.restricted_capped_share"] = mean(restricted_capped_);
    m["graph.lower_bound_ms"] = per_call(layers_, "graph.lower_bound");
    m["lp.optimum_ms"] = per_call(layers_, "lp.optimum");
    m["lp.optimum_capped_share"] = mean(optimum_capped_);
    m["lp.optimum_gap"] = mean(optimum_gap_);
    m["core.rounding_ms"] = per_call(layers_, "core.rounding");
    m["core.integral_congestion"] = mean(integral_congestion_);
    m["sim.ms"] = per_call(layers_, "sim");
    m["sim.packets"] = mean(packets_);
    m["api.batch_ms"] = per_call(layers_, "api.batch");
    m["api.batch_efficiency"] = mean(batch_efficiency_);
    m["runtime.route_allocs"] =
        alloc_routes_ == 0 ? 0.0
                           : static_cast<double>(allocs_) /
                                 static_cast<double>(alloc_routes_);
    return m;
  }

  template <typename T>
  static double mean(const std::vector<T>& v) {
    double sum = 0.0;
    for (const T& x : v) sum += static_cast<double>(x);
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  }

  template <typename T>
  static void array(std::ostream& out, const char* key,
                    const std::vector<T>& v) {
    out << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
    out << ']';
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out;
  }

  Workload w_;
  static constexpr std::uint64_t kEngineSeed = 1;
  Rng quality_rng_{0};
  std::vector<Demand> pool_;
  std::optional<SorEngine> engine_;

  std::vector<double> setup_s_;
  std::vector<double> epoch_ms_;
  std::vector<double> traced_epoch_ms_;
  double timed_wall_s_ = 0.0;
  std::uint64_t allocs_ = 0;
  std::size_t alloc_routes_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;

  // Check pass: per demand, in pool order; later repeats must match them.
  std::vector<double> congestion_;
  std::vector<double> ratio_;
  std::vector<int> makespan_;
  std::vector<SemiObliviousSolution> solutions_;

  // Traced pass.
  std::map<std::string, LayerStat> setup_layers_;
  std::map<std::string, LayerStat> layers_;
  std::vector<int> restricted_rounds_;
  std::vector<int> restricted_capped_;
  std::vector<int> optimum_capped_;
  std::vector<double> optimum_gap_;
  std::vector<double> integral_congestion_;
  std::vector<std::size_t> packets_;
  std::vector<double> batch_efficiency_;
};

int usage() {
  std::fprintf(stderr,
               "usage: sor_perfbench --workload sparse-epochs|dense-batch|"
               "certified --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--trace-out") {
      trace_path = value;
    } else {
      return usage();
    }
  }
  Workload w;
  if (!make_workload(workload, w) || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || (trace == 1 && trace_path.empty())) {
    return usage();
  }

  Run run(w, seed);
  if (trace == 0) {
    run.setup(run.setup_ledger());
    run.check_pass();
    run.timed_loop(seconds);
  } else {
    // Untraced first (the tracer only clears on enable), then the same
    // set-up and epochs under spans.
    std::map<std::string, LayerStat> untraced_setup;
    run.setup(untraced_setup);
    run.check_pass();
    run.timed_loop(seconds / 2.0);
    obs::tracer().enable(1 << 20);
    run.setup(run.setup_ledger());
    run.traced_loop(seconds / 2.0);
    obs::tracer().disable();
    std::ofstream out(trace_path);
    obs::tracer().write_chrome_json(out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  run.write_json(std::cout, workload, seed, trace, trace_path);
  return 0;
}

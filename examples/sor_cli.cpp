// sor_cli — run the full semi-oblivious routing pipeline from the command
// line. The tool a downstream user reaches for first:
//
//   sor_cli --topology hypercube --size 8 --alpha 4
//           --demand permutation --seed 7 [--integral] [--dot out.dot]
//   sor_cli --topology torus --backend racke:num_trees=16,eta=4
//   sor_cli --topology expander --size 128 --threads 4 --batch 32
//   sor_cli --list-backends
//
// Topologies: hypercube (size = dimension), torus (size = side), expander
// (size = n, degree 4), abilene, fattree (size = k), gadget (size = n,
// alpha used for k). Demands: permutation, bitreversal (hypercube only),
// gravity, pairs. The substrate defaults to a sensible per-topology choice
// and can be overridden with --backend <spec> (any registry name).
//
// --threads N parallelizes substrate construction, path installation, and
// batch routing over the engine's worker pool (results are bit-identical
// for every N; see api/sor_engine.h). --batch B reveals B independent
// demands and routes them concurrently over the one frozen PathSystem.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/sor_engine.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "io/demand_stream.h"
#include "io/scenario_io.h"
#include "io/serialization.h"
#include "runtime/alloc_stats.h"
#include "scale/demand_source.h"
#include "scenario/scenario.h"
#include "util/table.h"

namespace {

struct Options {
  std::string topology = "hypercube";
  bool topology_set = false;
  int size = 6;
  bool size_set = false;
  int alpha = 4;
  bool alpha_set = false;
  std::string demand = "permutation";
  bool demand_set = false;
  std::string backend;  // empty = per-topology default
  std::uint64_t seed = 1;
  bool seed_set = false;  // --seed given: overrides a scenario file's seed
  int threads = 1;
  int batch = 1;
  bool aggregate = false;   // coalesce duplicate demands pre-solve
  std::string demands_file; // stream the batch from a demand-stream file
  bool integral = false;
  bool warm_start = false;  // carry solver state across serial routes/epochs
  bool mem_stats = false;  // print the service-memory gauges after the run
  std::string dot_path;
  // Scenario mode (either one set => run the scenario engine instead).
  std::string scenario_path;
  std::string scenario_preset;
  std::string reinstall_override;  // "never" / "every_k:3" / ...
  int epochs_override = 0;         // > 0 overrides the spec
  std::string scenario_out;        // dump the effective spec (editable)
  std::string scenario_trace_out;  // dump the materialized scenario trace
  // Observability sinks (see docs/observability.md).
  std::string trace_json;       // Chrome trace_event JSON of the whole run
  std::string metrics_out;      // Prometheus-style metrics exposition
  std::string convergence_out;  // per-round solver convergence CSV (serial)
  // Robustness knobs (see README "Robustness & anytime solves").
  std::string fault_plan;    // installed as the process-global FaultPlan
  std::string solve_budget;  // MinCongestionOptions keys for every solve
  std::string on_error;      // batch mode: "fail" | "skip"
  std::string degrade_override;  // scenario mode: DegradePolicy name
};

void usage() {
  std::printf(
      "usage: sor_cli [--topology hypercube|torus|expander|abilene|fattree|"
      "gadget]\n"
      "               [--size N] [--alpha A] "
      "[--demand permutation|bitreversal|gravity|pairs]\n"
      "               [--backend SPEC] [--seed S] [--threads N] [--batch B]\n"
      "               [--demands-file FILE] [--aggregate]\n"
      "               [--integral] [--warm-start] [--mem-stats] "
      "[--dot FILE] [--list-backends]\n"
      "               [--fault-plan SPEC] [--solve-budget SPEC] "
      "[--on-error fail|skip]\n"
      "               [--trace-json FILE] [--metrics-out FILE] "
      "[--convergence-out FILE]\n"
      "       sor_cli --scenario FILE | --scenario-preset NAME\n"
      "               [--reinstall POLICY] [--epochs E] [--seed S] "
      "[--threads N]\n"
      "               [--backend SPEC] [--alpha A] [--mem-stats] "
      "[--scenario-out FILE] [--scenario-trace-out FILE]\n"
      "               [--fault-plan SPEC] [--solve-budget SPEC] "
      "[--degrade fail|skip_epoch|stale_route] [--warm-start]\n"
      "               [--trace-json FILE] [--metrics-out FILE]\n"
      "\n"
      "SPEC is a registry name with optional numeric params, e.g.\n"
      "  racke:num_trees=10,eta=6   (see --list-backends)\n"
      "--threads N runs build/install/batch-route on N workers (0 = all\n"
      "cores) with results identical to --threads 1; --batch B routes B\n"
      "revealed demands concurrently over the one frozen PathSystem.\n"
      "--demands-file FILE streams a demand batch from a text file (one\n"
      "demand per line as \"s t value\" triples, '#' comments) through the\n"
      "scale-out route_batch pipeline without materializing it; the file's\n"
      "support is collected in a first pass to install paths.\n"
      "--aggregate coalesces content-identical demands into weighted\n"
      "groups and keeps only aggregate results (memory stays flat in the\n"
      "stream length), bit-identical to the plain batch for every thread\n"
      "count (see api/sor_engine.h).\n"
      "--warm-start carries solver state across serial routes (and\n"
      "across scenario epochs): each pair the previous route shared starts\n"
      "from its previous flow split, so solves typically early-exit in\n"
      "fewer rounds\n"
      "(see docs/warm-start.md). Serial only — incompatible with --batch\n"
      "and --demands-file. Off by default (cold per-route solves,\n"
      "bit-identical to builds without the warm subsystem).\n"
      "--mem-stats prints the service-memory gauges after the run: the\n"
      "PathStore arena, live paths, process RSS, and the route call's heap\n"
      "allocation counters (all-zero unless the build defines\n"
      "SOR_ALLOC_STATS; see src/runtime/alloc_stats.h).\n"
      "\n"
      "Scenario mode drives the engine across a trace of epochal demands\n"
      "with link events under a reinstall policy (never / every_k:K /\n"
      "on_link_event / on_support_drift:THETA). Presets: diurnal,\n"
      "failover, flashcrowd, storm. --scenario-out dumps the effective\n"
      "spec for hand-editing (reload it with --scenario);\n"
      "--scenario-trace-out dumps the materialized demand/event trace\n"
      "(reload programmatically via src/io/scenario_io.h read_trace).\n"
      "\n"
      "Observability (docs/observability.md; off by default — outputs are\n"
      "bit-identical with every sink disabled):\n"
      "--trace-json FILE records scoped spans across the whole run (build,\n"
      "install, route stages, scenario epochs, warm-start events, fault\n"
      "fires) into a Chrome trace_event JSON loadable in chrome://tracing\n"
      "or Perfetto. --metrics-out FILE writes the engine's service counters\n"
      "and gauges as Prometheus text exposition. --convergence-out FILE\n"
      "writes the serial route's per-round solver telemetry (congestion, dual\n"
      "bound, certified gap, touched edges) as CSV — serial one-shot mode\n"
      "only (--batch 1, no --demands-file).\n"
      "\n"
      "Robustness: --fault-plan installs a deterministic fault-injection\n"
      "plan, e.g. \"seed=7;worker_throw@3;stream_read%%100\" (sites:\n"
      "stream_read, stream_bitflip, edge_capacity, scratch_alloc,\n"
      "worker_throw, io_truncate, install; triggers @K-th, %%every-K,\n"
      "~probability; also via env SOR_FAULT_PLAN). --solve-budget sets\n"
      "every solve's limits, any of\n"
      "\"rounds=64,target_gap=1.1,deadline_ms=50\" (in scenario mode onto\n"
      "the spec's solve line); whichever stops a solve, it returns that\n"
      "round's iterate with a certified gap.\n"
      "--on-error skip turns batch failures into per-demand error records\n"
      "(surviving loads unchanged); --degrade picks the scenario engine's\n"
      "failure response.\n");
}

void list_backends() {
  const auto& registry = sor::BackendRegistry::instance();
  std::printf("registered oblivious-routing backends:\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-18s %s\n", name.c_str(),
                registry.description(name).c_str());
  }
}

/// The one parser for every integer flag: the whole value must be a
/// base-10 integer that fits `out` and is >= `min`, so "4x" or "abc" is an
/// error instead of being read as 4 or 0.
template <typename T>
bool parse_int(const char* flag, const char* v, long long min, T& out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < min ||
      static_cast<unsigned long long>(parsed) >
          static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s needs an integer >= %lld, got %s\n", flag, min,
                 v);
    return false;
  }
  out = static_cast<T>(parsed);
  return true;
}

bool parse(int argc, char** argv, Options& opt, bool& exit_ok) {
  exit_ok = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--topology")) {
      const char* v = next("--topology");
      if (!v) return false;
      opt.topology = v;
      opt.topology_set = true;
    } else if (!std::strcmp(argv[i], "--size")) {
      const char* v = next("--size");
      if (!v || !parse_int("--size", v, 1, opt.size)) return false;
      opt.size_set = true;
    } else if (!std::strcmp(argv[i], "--alpha")) {
      const char* v = next("--alpha");
      if (!v || !parse_int("--alpha", v, 1, opt.alpha)) return false;
      opt.alpha_set = true;
    } else if (!std::strcmp(argv[i], "--demand")) {
      const char* v = next("--demand");
      if (!v) return false;
      opt.demand = v;
      opt.demand_set = true;
    } else if (!std::strcmp(argv[i], "--backend")) {
      const char* v = next("--backend");
      if (!v) return false;
      opt.backend = v;
    } else if (!std::strcmp(argv[i], "--seed")) {
      const char* v = next("--seed");
      if (!v || !parse_int("--seed", v, 0, opt.seed)) return false;
      opt.seed_set = true;
    } else if (!std::strcmp(argv[i], "--scenario")) {
      const char* v = next("--scenario");
      if (!v) return false;
      opt.scenario_path = v;
    } else if (!std::strcmp(argv[i], "--scenario-preset")) {
      const char* v = next("--scenario-preset");
      if (!v) return false;
      opt.scenario_preset = v;
    } else if (!std::strcmp(argv[i], "--reinstall")) {
      const char* v = next("--reinstall");
      if (!v) return false;
      opt.reinstall_override = v;
    } else if (!std::strcmp(argv[i], "--epochs")) {
      const char* v = next("--epochs");
      if (!v || !parse_int("--epochs", v, 1, opt.epochs_override)) {
        return false;
      }
    } else if (!std::strcmp(argv[i], "--scenario-out")) {
      const char* v = next("--scenario-out");
      if (!v) return false;
      opt.scenario_out = v;
    } else if (!std::strcmp(argv[i], "--scenario-trace-out")) {
      const char* v = next("--scenario-trace-out");
      if (!v) return false;
      opt.scenario_trace_out = v;
    } else if (!std::strcmp(argv[i], "--trace-json")) {
      const char* v = next("--trace-json");
      if (!v) return false;
      opt.trace_json = v;
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      const char* v = next("--metrics-out");
      if (!v) return false;
      opt.metrics_out = v;
    } else if (!std::strcmp(argv[i], "--convergence-out")) {
      const char* v = next("--convergence-out");
      if (!v) return false;
      opt.convergence_out = v;
    } else if (!std::strcmp(argv[i], "--threads")) {
      const char* v = next("--threads");
      if (!v || !parse_int("--threads", v, 0, opt.threads)) return false;
    } else if (!std::strcmp(argv[i], "--batch")) {
      const char* v = next("--batch");
      if (!v || !parse_int("--batch", v, 1, opt.batch)) return false;
    } else if (!std::strcmp(argv[i], "--aggregate")) {
      opt.aggregate = true;
    } else if (!std::strcmp(argv[i], "--demands-file")) {
      const char* v = next("--demands-file");
      if (!v) return false;
      opt.demands_file = v;
    } else if (!std::strcmp(argv[i], "--integral")) {
      opt.integral = true;
    } else if (!std::strcmp(argv[i], "--warm-start")) {
      opt.warm_start = true;
    } else if (!std::strcmp(argv[i], "--mem-stats")) {
      opt.mem_stats = true;
    } else if (!std::strcmp(argv[i], "--dot")) {
      const char* v = next("--dot");
      if (!v) return false;
      opt.dot_path = v;
    } else if (!std::strcmp(argv[i], "--fault-plan")) {
      const char* v = next("--fault-plan");
      if (!v) return false;
      opt.fault_plan = v;
    } else if (!std::strcmp(argv[i], "--solve-budget")) {
      const char* v = next("--solve-budget");
      if (!v) return false;
      opt.solve_budget = v;
    } else if (!std::strcmp(argv[i], "--on-error")) {
      const char* v = next("--on-error");
      if (!v) return false;
      opt.on_error = v;
      if (opt.on_error != "fail" && opt.on_error != "skip") {
        std::fprintf(stderr, "--on-error needs fail or skip, got %s\n", v);
        return false;
      }
    } else if (!std::strcmp(argv[i], "--degrade")) {
      const char* v = next("--degrade");
      if (!v) return false;
      opt.degrade_override = v;
    } else if (!std::strcmp(argv[i], "--list-backends")) {
      list_backends();
      exit_ok = true;
      return false;
    } else if (!std::strcmp(argv[i], "--help")) {
      usage();
      exit_ok = true;
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
      return false;
    }
  }
  if (!opt.demands_file.empty() && (opt.demand_set || opt.batch > 1)) {
    std::fprintf(stderr,
                 "--demands-file streams the whole batch from the file; "
                 "--demand and --batch do not combine with it\n");
    return false;
  }
  if (opt.aggregate && opt.integral) {
    std::fprintf(stderr,
                 "--aggregate cannot combine with --integral (coalesced "
                 "demands lose their per-demand rounding streams; round a "
                 "raw batch instead)\n");
    return false;
  }
  if (opt.aggregate && opt.batch <= 1 && opt.demands_file.empty()) {
    std::fprintf(stderr,
                 "--aggregate needs a batch: --batch B > 1 or "
                 "--demands-file FILE\n");
    return false;
  }
  return true;
}

/// Flush the observability sinks at the end of a successful run (both
/// modes). The tracer was armed in main() before the engine was built, so
/// the exported timeline covers build/install as well as serving.
int finish_observability(const Options& opt, const sor::SorEngine& engine) {
  if (!opt.trace_json.empty()) {
    std::ofstream out(opt.trace_json);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_json.c_str());
      return 1;
    }
    sor::obs::TraceRecorder& rec = sor::obs::tracer();
    rec.write_chrome_json(out);
    std::printf("wrote Chrome trace (%zu span/instant event(s)) to %s\n",
                rec.size(), opt.trace_json.c_str());
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.metrics_out.c_str());
      return 1;
    }
    engine.metrics().write_prometheus(out);
    std::printf("wrote metrics exposition to %s\n", opt.metrics_out.c_str());
  }
  return 0;
}

/// --mem-stats: the engine-side service-memory gauges, shared by both
/// modes. Allocation counters print as "off" when the build does not
/// interpose operator new (sanitizer builds, -DSOR_ALLOC_STATS=OFF).
void print_mem_stats(const sor::SorEngine& engine) {
  const sor::SorEngine::MemStats ms = engine.mem_stats();
  std::printf(
      "memory: path arena %zu/%zu ints, %zu paths over %zu pairs, "
      "rss %.1f MiB (alloc counters %s)\n",
      ms.arena_ints, ms.arena_capacity, ms.live_paths, ms.installed_pairs,
      static_cast<double>(ms.rss_bytes) / (1024.0 * 1024.0),
      sor::runtime::counting_compiled() ? "on" : "off");
}

/// The topology's graph plus its default substrate spec.
struct Topology {
  sor::Graph graph;
  std::string default_backend;
};

// Graph construction is deliberately NOT delegated to
// scenario::make_scenario_graph: one-shot mode draws the expander from the
// CLI's running rng stream and supports the alpha-coupled gadget, while
// scenario mode derives everything from the spec seed for trace purity.
// The per-topology backend defaults ARE shared (scenario::default_backend)
// so the two modes cannot drift apart on that table.
Topology make_topology(const Options& opt, sor::Rng& rng) {
  const std::string backend = sor::scenario::default_backend(opt.topology);
  if (opt.topology == "hypercube") {
    return {sor::gen::hypercube(opt.size), backend};
  }
  if (opt.topology == "torus") {
    return {sor::gen::grid(opt.size, opt.size, /*wrap=*/true), backend};
  }
  if (opt.topology == "expander") {
    return {sor::gen::random_regular(opt.size, 4, rng), backend};
  }
  if (opt.topology == "abilene") {
    return {sor::gen::abilene(10.0), backend};
  }
  if (opt.topology == "fattree") {
    return {sor::gen::fat_tree(opt.size), backend};
  }
  if (opt.topology == "gadget") {
    const int k = sor::gen::lower_bound_k(opt.size, opt.alpha);
    return {sor::gen::lower_bound_gadget(opt.size, k), "shortest_path"};
  }
  throw std::invalid_argument("unknown topology " + opt.topology);
}

/// Applies --solve-budget's keys onto `solve`; false, with the error
/// printed, when they do not parse.
bool apply_solve_budget(const Options& opt, sor::MinCongestionOptions& solve) {
  if (opt.solve_budget.empty()) return true;
  const auto parsed = sor::MinCongestionOptions::parse(opt.solve_budget, solve);
  if (!parsed) {
    std::fprintf(stderr,
                 "error: bad --solve-budget %s (keys rounds=N>=1, "
                 "target_gap=G>=0, deadline_ms=D>=0)\n",
                 opt.solve_budget.c_str());
    return false;
  }
  solve = *parsed;
  return true;
}

/// Scenario mode: load/preset a spec, materialize the trace, drive the
/// engine across it, print the per-epoch service log.
int run_scenario_mode(const Options& opt) {
  namespace scn = sor::scenario;
  // One-shot-only flags must not be silently dropped in scenario mode:
  // the spec (or its explicit overrides below) owns those choices.
  if (opt.topology_set || opt.size_set || opt.demand_set || opt.batch > 1 ||
      opt.aggregate || !opt.demands_file.empty() || opt.integral ||
      !opt.dot_path.empty() || !opt.on_error.empty() ||
      !opt.convergence_out.empty()) {
    std::fprintf(stderr,
                 "error: --topology/--size/--demand/--batch/--aggregate/"
                 "--demands-file/--integral/--dot/--on-error/"
                 "--convergence-out do not apply to scenario mode "
                 "(set them in the spec; --backend/--alpha/--seed/--epochs/"
                 "--reinstall/--degrade/--solve-budget/--threads override "
                 "it)\n");
    return 1;
  }
  if (!opt.scenario_path.empty() && !opt.scenario_preset.empty()) {
    std::fprintf(stderr,
                 "error: --scenario and --scenario-preset are exclusive\n");
    return 1;
  }
  scn::ScenarioSpec spec;
  if (!opt.scenario_path.empty()) {
    std::ifstream in(opt.scenario_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   opt.scenario_path.c_str());
      return 1;
    }
    const auto loaded = sor::io::read_scenario(in);
    if (!loaded) {
      std::fprintf(stderr, "error: %s is not a valid scenario spec\n",
                   opt.scenario_path.c_str());
      return 1;
    }
    spec = *loaded;
  } else {
    const auto preset = scn::scenario_preset(opt.scenario_preset);
    if (!preset) {
      std::fprintf(stderr, "error: unknown preset %s; available:",
                   opt.scenario_preset.c_str());
      for (const auto& name : scn::scenario_preset_names()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    spec = *preset;
  }
  if (opt.seed_set) spec.seed = opt.seed;
  if (opt.epochs_override > 0) spec.epochs = opt.epochs_override;
  if (!opt.backend.empty()) spec.backend = opt.backend;
  if (opt.alpha_set) spec.alpha = opt.alpha;
  if (!opt.reinstall_override.empty()) {
    const auto policy = scn::ReinstallPolicy::parse(opt.reinstall_override);
    if (!policy) {
      std::fprintf(stderr, "error: bad --reinstall %s\n",
                   opt.reinstall_override.c_str());
      return 1;
    }
    spec.reinstall = *policy;
  }
  if (!apply_solve_budget(opt, spec.solve)) return 1;
  if (!opt.degrade_override.empty()) {
    const auto policy = scn::parse_degrade_policy(opt.degrade_override);
    if (!policy) {
      std::fprintf(stderr,
                   "error: bad --degrade %s (fail, skip_epoch, stale_route)\n",
                   opt.degrade_override.c_str());
      return 1;
    }
    spec.degrade = *policy;
  }
  if (opt.warm_start) spec.warm_start = true;
  if (!opt.scenario_out.empty()) {
    std::ofstream out(opt.scenario_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.scenario_out.c_str());
      return 1;
    }
    sor::io::write_scenario(out, spec);
    std::printf("wrote scenario spec to %s\n", opt.scenario_out.c_str());
  }

  sor::SorEngine engine = scn::build_scenario_engine(spec, opt.threads);
  std::printf(
      "scenario %s: %s on %d vertices / %d edges, backend %s\n"
      "  %d epochs of %s, reinstall %s\n",
      spec.name.c_str(), spec.topology.c_str(),
      engine.graph().num_vertices(), engine.graph().num_edges(),
      engine.backend().name().c_str(), spec.epochs,
      spec.model.to_string().c_str(), spec.reinstall.to_string().c_str());

  const scn::ScenarioTrace trace = scn::generate_trace(engine.graph(), spec);
  if (!opt.scenario_trace_out.empty()) {
    std::ofstream out(opt.scenario_trace_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.scenario_trace_out.c_str());
      return 1;
    }
    sor::io::write_trace(out, trace);
    std::printf("wrote scenario trace (%zu epochs, %zu events) to %s\n",
                trace.demands.size(), trace.events.size(),
                opt.scenario_trace_out.c_str());
  }

  const scn::ScenarioReport report = scn::run_scenario(engine, spec, trace);

  sor::Table table({"epoch", "events", "reinstall", "pairs", "coverage",
                    "congestion", "ratio", "install_ms", "route_ms"});
  for (const scn::EpochReport& row : report.epochs) {
    table.row()
        .cell(row.epoch)
        .cell(row.link_events)
        .cell(row.reinstalled ? (row.rebuilt ? "stage1+2" : "stage2") : "-")
        .cell(row.support)
        .cell(row.coverage, 3)
        .cell(row.congestion, 4)
        .cell(row.ratio, 2)
        .cell(row.install_ms, 1)
        .cell(row.route_ms, 1);
  }
  table.print();
  std::printf(
      "\n%d reinstalls after epoch 0; install %.0f ms total vs route %.0f ms"
      " total\nmax congestion %.4f, max ratio <= %.2f, coverage mean %.3f / "
      "min %.3f\n",
      report.reinstalls, report.total_install_ms, report.total_route_ms,
      report.max_congestion, report.max_ratio, report.mean_coverage,
      report.min_coverage);
  if (report.degraded_epochs > 0) {
    std::printf("%d degraded epoch(s) absorbed under policy %s\n",
                report.degraded_epochs, scn::to_string(spec.degrade));
  }
  if (spec.warm_start) {
    int warm_hits = 0;
    long long rounds = 0, saved = 0;
    for (const scn::EpochReport& row : report.epochs) {
      if (row.warm_hit) ++warm_hits;
      rounds += row.mwu_rounds;
      saved += row.rounds_saved;
    }
    std::printf("warm starts: %d/%zu epochs seeded, %lld solve rounds run, "
                "%lld saved vs cold\n",
                warm_hits, report.epochs.size(), rounds, saved);
  }
  if (opt.mem_stats) {
    print_mem_stats(engine);
    // Epoch 0 is warm-up (cold scratch arenas); afterwards a steady-state
    // epoch should route with 0 heap allocations.
    unsigned long long warmup = 0, steady_max = 0;
    for (const scn::EpochReport& row : report.epochs) {
      if (row.epoch == 0) {
        warmup = row.route_allocs;
      } else {
        steady_max = std::max<unsigned long long>(steady_max, row.route_allocs);
      }
    }
    std::printf("route allocs: %llu at epoch 0 (warm-up), max %llu after\n",
                warmup, steady_max);
  }
  return finish_observability(opt, engine);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool exit_ok = false;
  if (!parse(argc, argv, opt, exit_ok)) return exit_ok ? 0 : 1;
  // Arm the span recorder before anything else runs so the exported
  // timeline starts at the engine build, not at the first route.
  if (!opt.trace_json.empty()) sor::obs::tracer().enable();
  if (!opt.fault_plan.empty()) {
    auto plan = sor::fault::FaultPlan::parse(opt.fault_plan);
    if (!plan) {
      std::fprintf(stderr, "error: bad --fault-plan %s\n",
                   opt.fault_plan.c_str());
      return 1;
    }
    sor::fault::set_global_plan(
        std::make_shared<sor::fault::FaultPlan>(*plan));
  }
  if (!opt.scenario_path.empty() || !opt.scenario_preset.empty()) {
    try {
      return run_scenario_mode(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  // Mirror of run_scenario_mode's conflict check: scenario-only flags in
  // one-shot mode mean the user forgot --scenario/--scenario-preset.
  if (!opt.reinstall_override.empty() || opt.epochs_override > 0 ||
      !opt.scenario_out.empty() || !opt.scenario_trace_out.empty()) {
    std::fprintf(stderr,
                 "error: --reinstall/--epochs/--scenario-out/"
                 "--scenario-trace-out need scenario mode (--scenario FILE "
                 "or --scenario-preset NAME)\n");
    return 1;
  }
  if (!opt.convergence_out.empty() &&
      (opt.batch > 1 || !opt.demands_file.empty())) {
    std::fprintf(stderr,
                 "error: --convergence-out records the serial route's "
                 "per-round telemetry; it does not combine with --batch/"
                 "--demands-file\n");
    return 1;
  }
  if (opt.warm_start && (opt.batch > 1 || !opt.demands_file.empty())) {
    std::fprintf(stderr,
                 "error: --warm-start is serial-only; it does not combine "
                 "with --batch/--demands-file (batch demands have no epoch "
                 "order)\n");
    return 1;
  }
  sor::Rng rng(opt.seed);
  try {
  sor::MinCongestionOptions solve;
  if (!apply_solve_budget(opt, solve)) return 1;
  sor::SorEngine engine = [&] {
    Topology topo = make_topology(opt, rng);
    const std::string spec =
        opt.backend.empty() ? topo.default_backend : opt.backend;
    return sor::SorEngine::build(std::move(topo.graph), spec, opt.seed,
                                 opt.threads);
  }();
  std::printf("topology %s: %d vertices, %d edges\n", opt.topology.c_str(),
              engine.graph().num_vertices(), engine.graph().num_edges());

  if (!opt.demands_file.empty()) {
    // Two-pass streaming: pass 1 collects the file's support to install
    // paths over, pass 2 re-opens the file and routes it through the
    // scale-out batch pipeline — the batch itself is never materialized.
    std::vector<std::pair<int, int>> pairs;
    if (opt.on_error == "skip") {
      // Fault-tolerant support pass: a poisoned line contributes no pairs
      // here and becomes a per-demand error record in the routing pass
      // below, instead of killing the whole batch up front.
      sor::io::FileDemandSource pass1(opt.demands_file);
      std::span<const sor::DemandEntry> entries;
      for (;;) {
        try {
          if (!pass1.next(entries)) break;
        } catch (const sor::SorError& err) {
          if (err.code() == sor::ErrorCode::kStreamTruncated) break;
          continue;
        }
        for (const sor::DemandEntry& e : entries) pairs.emplace_back(e.s, e.t);
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    } else {
      sor::io::FileDemandSource pass1(opt.demands_file);
      pairs = sor::scale::collect_support_pairs(pass1);
    }
    sor::SamplingSpec sampling;
    sampling.alpha = opt.alpha;
    sampling.all_pairs = false;
    sampling.pairs = std::move(pairs);
    const sor::PathSystem& ps = engine.install_paths(sampling);
    std::printf("sampled %zu candidate paths (alpha = %d) over %zu pairs\n",
                ps.total_paths(), opt.alpha, ps.num_pairs());

    sor::RouteSpec route_spec;
    route_spec.round_integral = opt.integral;
    route_spec.mwu = solve;
    sor::BatchSpec batch_spec;
    batch_spec.keep_reports = !opt.aggregate;
    batch_spec.aggregate_duplicates = opt.aggregate;
    if (opt.on_error == "skip") {
      batch_spec.on_error = sor::OnError::kSkipAndReport;
    }

    sor::io::FileDemandSource pass2(opt.demands_file);
    const sor::BatchReport batch =
        engine.route_batch(pass2, route_spec, batch_spec);
    std::printf(
        "routed %zu demands (%zu distinct) on %d thread(s):\n  global "
        "congestion %.4f, max per-demand congestion %.4f\n  wall %.0f ms "
        "-> %.0f demands/sec\n",
        batch.num_demands, batch.num_groups, batch.threads,
        batch.global_congestion, batch.max_congestion, batch.wall_ms,
        batch.demands_per_sec());
    if (batch.num_failed > 0) {
      std::printf("%zu demand(s) failed and were skipped (%zu error "
                  "record(s)); surviving loads unaffected\n",
                  batch.num_failed, batch.errors.size());
    }
    if (opt.mem_stats) print_mem_stats(engine);
    return finish_observability(opt, engine);
  }

  const int n = engine.graph().num_vertices();
  auto make_demand = [&]() -> sor::Demand {
    if (opt.demand == "permutation") {
      return sor::gen::random_permutation_demand(n, rng);
    }
    if (opt.demand == "bitreversal") {
      if (opt.topology != "hypercube") {
        throw std::invalid_argument("bitreversal needs --topology hypercube");
      }
      return sor::gen::bit_reversal_demand(opt.size);
    }
    if (opt.demand == "gravity") {
      return sor::gen::gravity_demand(engine.graph(), 4.0 * n);
    }
    if (opt.demand == "pairs") {
      return sor::gen::random_pairs_demand(n, n / 2, rng);
    }
    throw std::invalid_argument("unknown demand " + opt.demand);
  };
  std::vector<sor::Demand> demands;
  demands.reserve(static_cast<std::size_t>(opt.batch));
  for (int b = 0; b < opt.batch; ++b) demands.push_back(make_demand());
  const sor::Demand& d = demands.front();
  std::printf("demand: %zu pairs, size %.1f%s\n", d.support_size(), d.size(),
              opt.batch > 1 ? " (first of batch)" : "");

  // Install once over the union of every batch demand's support — the
  // semi-oblivious amortization the batch is exercising.
  const sor::PathSystem& ps =
      engine.install_paths(sor::SamplingSpec::for_demands(demands, opt.alpha));
  std::printf("sampled %zu candidate paths (alpha = %d) from %s\n",
              ps.total_paths(), opt.alpha, engine.backend().name().c_str());

  sor::RouteSpec route_spec;
  route_spec.round_integral = opt.integral;
  route_spec.mwu = solve;
  route_spec.warm_start = opt.warm_start;
  route_spec.record_convergence = !opt.convergence_out.empty();

  if (opt.batch > 1) {
    sor::BatchSpec batch_spec;
    batch_spec.keep_reports = !opt.aggregate;
    batch_spec.aggregate_duplicates = opt.aggregate;
    if (opt.on_error == "skip") {
      batch_spec.on_error = sor::OnError::kSkipAndReport;
    }
    sor::scale::SpanDemandSource source(demands);
    const sor::BatchReport batch =
        engine.route_batch(source, route_spec, batch_spec);
    std::printf(
        "routed %d demands on %d thread(s): max congestion %.4f, "
        "max ratio <= %.2f\n",
        opt.batch, batch.threads, batch.max_congestion,
        batch.max_competitive_ratio);
    if (opt.aggregate) {
      std::printf("scale-out: %zu distinct demand(s), global congestion %.4f\n",
                  batch.num_groups, batch.global_congestion);
    }
    std::printf(
        "batch wall %.0f ms vs %.0f ms serial-equivalent -> speedup %.2fx\n",
        batch.wall_ms, batch.total_route_ms, batch.speedup_vs_serial());
    if (opt.integral) {
      int rounded = 0;
      double max_integral = 0.0;
      for (const sor::RouteReport& report : batch.reports) {
        if (!report.integral) continue;
        ++rounded;
        max_integral = std::max(max_integral, report.integral->congestion);
      }
      if (rounded > 0) {
        std::printf("integral congestion: max %.0f over %d/%d demands\n",
                    max_integral, rounded, opt.batch);
      } else {
        std::printf("(--integral skipped: no demand in the batch is integral)\n");
      }
    }
    if (opt.mem_stats) {
      print_mem_stats(engine);
      unsigned long long max_allocs = 0;
      for (const sor::RouteReport& r : batch.reports) {
        max_allocs = std::max<unsigned long long>(max_allocs, r.mem.allocs);
      }
      std::printf("route allocs: max %llu per demand (cold scratch)\n",
                  max_allocs);
    }
    if (!opt.dot_path.empty()) {
      std::fprintf(stderr,
                   "(--dot ignored: per-demand load drawing needs --batch 1)\n");
    }
    return finish_observability(opt, engine);
  }

  const sor::RouteReport report = engine.route(d, route_spec);
  if (!opt.convergence_out.empty()) {
    std::ofstream out(opt.convergence_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.convergence_out.c_str());
      return 1;
    }
    sor::obs::write_convergence_csv(out, report.convergence);
    std::printf("wrote %zu convergence record(s) to %s\n",
                report.convergence.size(), opt.convergence_out.c_str());
  }
  std::printf("fractional congestion: %.4f\n", report.congestion);
  std::printf("solve status: %s after %d rounds, certified optimality gap "
              "<= %.4f\n",
              sor::to_string(report.solution.status),
              report.solution.rounds_used, report.solution.optimality_gap);
  std::printf("offline optimum in [%.4f, %.4f] -> ratio <= %.2f\n",
              report.optimum->lower, report.optimum->upper,
              report.competitive_ratio);
  std::printf(
      "stage times: build %.0f ms, sample %.0f ms, route %.0f ms, "
      "optimum %.0f ms\n",
      report.times.build_ms, report.times.sample_ms, report.times.route_ms,
      report.times.optimum_ms);
  if (opt.mem_stats) {
    print_mem_stats(engine);
    std::printf("route allocs: %llu (%.1f KiB requested; cold scratch)\n",
                static_cast<unsigned long long>(report.mem.allocs),
                static_cast<double>(report.mem.alloc_bytes) / 1024.0);
  }

  if (opt.integral && report.integral) {
    std::printf("integral congestion: %.0f\n", report.integral->congestion);
  } else if (opt.integral) {
    std::printf("(--integral skipped: demand is not integral)\n");
  }

  if (!opt.dot_path.empty()) {
    std::ofstream out(opt.dot_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.dot_path.c_str());
      return 1;
    }
    sor::io::write_dot(out, engine.graph(), &report.solution.edge_load);
    std::printf("wrote %s (loads as penwidth)\n", opt.dot_path.c_str());
  }
  return finish_observability(opt, engine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

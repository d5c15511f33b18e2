// Experiment M9 — cross-epoch warm starts (src/warm/, docs/warm-start.md).
//
// Drives two engines over the SAME breathing-volume epoch trace (fixed
// support, diurnal volumes — the regime warm starts are built for), one
// routing cold every epoch, one carrying RouteSpec::warm_start state
// across epochs, with a capacity edit mid-trace exercising the seed's
// survival. Canonical stage rows (tools/bench_gate.py):
//
//   warm_rounds    the headline: speedup = total cold restricted-solve
//                  rounds / total warm rounds — the rounds-saved ratio.
//                  Deterministic for a fixed seed (round counts are part
//                  of the bit-exact solver contract), so the baseline
//                  pins it exactly; identical = the ratio is > 1 (warm
//                  genuinely saved rounds) AND a fresh warm engine's
//                  rerun of the whole sequence is bit-identical.
//   warm_work      the two totals behind that ratio, as value rows
//                  (instance "<instance>/cold_rounds" and
//                  "<instance>/warm_rounds", the total in ms_per_op),
//                  gated exactly so that a moved total shows which side
//                  moved; identical = that side's two passes agree.
//   warm_identity  cold==warm-disabled bit-identity: a fresh cold
//                  engine's rerun of the sequence matches the first cold
//                  run bit for bit — the warm subsystem being linked in
//                  and exercised in-process leaves cold routes untouched.
//   warm_cert      per-epoch cross-validation: each run's dual lower
//                  bound must lower-bound the OTHER run's exact
//                  congestion (warm starts move the starting iterate,
//                  never the certificate discipline).
//   warm_replay    re-serving the final epoch's bit-identical instance
//                  returns the stored report verbatim with the full
//                  cold-round saving.
//
// A row with identical=no is a bug, not a measurement.
//
//   bench_m9_warm_start [--quick] [--json PATH]
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/scenario.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One engine's pass over the trace: per-epoch reports plus totals.
struct PassResult {
  std::vector<RouteReport> reports;
  long long rounds = 0;
  double route_ms = 0.0;
};

/// Routes every epoch demand in order on a FRESH engine built from `spec`
/// (install once over the union support, capacity edit at mid-trace).
PassResult run_pass(const scenario::ScenarioSpec& spec,
                    const std::vector<Demand>& demands, bool warm) {
  SorEngine engine = scenario::build_scenario_engine(spec);
  engine.install_paths(SamplingSpec::for_demands(demands, spec.alpha));
  RouteSpec route_spec;
  route_spec.compute_optimum = false;
  route_spec.compute_lower_bound = false;
  route_spec.warm_start = warm;

  PassResult out;
  out.reports.resize(demands.size());
  const std::size_t edit_epoch = demands.size() / 2;
  for (std::size_t e = 0; e < demands.size(); ++e) {
    if (e == edit_epoch) {
      engine.set_edge_capacity(0, 0.5 * engine.graph().edge(0).capacity);
    }
    const auto start = Clock::now();
    engine.route_into(demands[e], route_spec, out.reports[e]);
    out.route_ms += ms_since(start);
    out.rounds += out.reports[e].solution.rounds_used;
  }
  return out;
}

/// Deterministic fields of two passes must match bit for bit.
bool passes_identical(const PassResult& a, const PassResult& b) {
  if (a.reports.size() != b.reports.size() || a.rounds != b.rounds) {
    return false;
  }
  for (std::size_t e = 0; e < a.reports.size(); ++e) {
    const RouteReport& x = a.reports[e];
    const RouteReport& y = b.reports[e];
    if (x.congestion != y.congestion ||
        x.solution.lower_bound != y.solution.lower_bound ||
        x.solution.rounds_used != y.solution.rounds_used ||
        x.solution.edge_load != y.solution.edge_load ||
        x.solution.weights != y.solution.weights) {
      return false;
    }
  }
  return true;
}

void bench_instance(Table& table, const std::string& name,
                    const scenario::ScenarioSpec& spec) {
  const std::vector<Demand> demands = [&] {
    const Graph g = scenario::make_scenario_graph(spec);
    return scenario::generate_trace(g, spec).demands;
  }();
  const int epochs = static_cast<int>(demands.size());

  const PassResult cold = run_pass(spec, demands, /*warm=*/false);
  const PassResult cold2 = run_pass(spec, demands, /*warm=*/false);
  const PassResult warm = run_pass(spec, demands, /*warm=*/true);
  const PassResult warm2 = run_pass(spec, demands, /*warm=*/true);

  // warm_rounds: the rounds-saved ratio, exact for a fixed seed.
  const double ratio = warm.rounds > 0 ? static_cast<double>(cold.rounds) /
                                             static_cast<double>(warm.rounds)
                                       : 0.0;
  const bool warm_deterministic = passes_identical(warm, warm2);
  const bool cold_deterministic = passes_identical(cold, cold2);
  sor::bench::stage_row(table, "warm_rounds", name, 1, warm.route_ms, epochs,
                        ratio,
                        (ratio > 1.0 && warm_deterministic) ? "yes" : "no");

  // warm_work: the round totals behind the ratio, exact for a fixed seed.
  sor::bench::value_row(table, "warm_work", name + "/cold_rounds",
                        static_cast<double>(cold.rounds),
                        cold_deterministic ? "yes" : "no");
  sor::bench::value_row(table, "warm_work", name + "/warm_rounds",
                        static_cast<double>(warm.rounds),
                        warm_deterministic ? "yes" : "no");

  // warm_identity: the cold path is untouched by the warm subsystem.
  sor::bench::stage_row(table, "warm_identity", name, 1, cold.route_ms,
                        epochs, 0.0, cold_deterministic ? "yes" : "no");

  // warm_cert: cross-valid LP certificates, every epoch, both directions.
  bool certs_ok = true;
  const double tol = 1e-9;
  for (int e = 0; e < epochs; ++e) {
    const RouteReport& w = warm.reports[static_cast<std::size_t>(e)];
    const RouteReport& c = cold.reports[static_cast<std::size_t>(e)];
    certs_ok = certs_ok &&
               w.solution.lower_bound <= c.congestion * (1.0 + tol) &&
               c.solution.lower_bound <= w.congestion * (1.0 + tol) &&
               w.congestion >= w.solution.lower_bound * (1.0 - tol) &&
               c.congestion >= c.solution.lower_bound * (1.0 - tol);
  }
  sor::bench::stage_row(table, "warm_cert", name, 1,
                        cold.route_ms + warm.route_ms, 2 * epochs, 0.0,
                        certs_ok ? "yes" : "no");

  // warm_replay: serve the final epoch's instance again on an engine that
  // just captured it — the stored report must come back verbatim.
  {
    SorEngine engine = scenario::build_scenario_engine(spec);
    engine.install_paths(SamplingSpec::for_demands(demands, spec.alpha));
    RouteSpec route_spec;
    route_spec.compute_optimum = false;
    route_spec.compute_lower_bound = false;
    route_spec.warm_start = true;
    const Demand& last = demands.back();
    const RouteReport first = engine.route(last, route_spec);
    const auto start = Clock::now();
    const RouteReport replay = engine.route(last, route_spec);
    const double replay_ms = ms_since(start);
    const bool ok = replay.warm.replayed &&
                    replay.warm.rounds_saved == first.solution.rounds_used &&
                    replay.congestion == first.congestion &&
                    replay.solution.edge_load == first.solution.edge_load;
    sor::bench::stage_row(table, "warm_replay", name, 1, replay_ms, 1, 0.0,
                          ok ? "yes" : "no");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M9 — cross-epoch warm starts",
         "Breathing-volume trace served cold vs warm-started: speedup is "
         "the total restricted-solve rounds ratio cold/warm (exact for a fixed seed; "
         "identical=yes additionally requires ratio > 1 and a bit-identical "
         "warm rerun), warm_work carries the cold and warm round totals, "
         "warm_identity pins the cold path bit-identical with "
         "the warm subsystem exercised in-process, warm_cert pins "
         "cross-valid LP certificates every epoch, warm_replay pins "
         "verbatim replay of a bit-identical instance.");

  Table table = stage_table();

  {
    sor::scenario::ScenarioSpec spec;
    spec.name = "diurnal";
    spec.topology = "torus";
    spec.size = args.quick ? 6 : 8;
    spec.backend = args.quick ? "racke:num_trees=4" : "racke:num_trees=6";
    spec.seed = 31;
    spec.epochs = args.quick ? 8 : 12;
    spec.alpha = 4;
    spec.model = *sor::scenario::TrafficModelSpec::parse(
        args.quick
            ? "diurnal_gravity:total=64,amplitude=0.6,period=4,max_pairs=48"
            : "diurnal_gravity:total=128,amplitude=0.6,period=6,max_pairs=96");
    bench_instance(table,
                   "torus(" + std::to_string(spec.size) + "x" +
                       std::to_string(spec.size) + ")+diurnal",
                   spec);
  }
  {
    // Same regime on a hypercube/valiant substrate: warm starts must not
    // be a racke artifact.
    sor::scenario::ScenarioSpec spec;
    spec.name = "diurnal_cube";
    spec.topology = "hypercube";
    spec.size = args.quick ? 4 : 5;
    spec.seed = 37;
    spec.epochs = args.quick ? 6 : 10;
    spec.alpha = 4;
    spec.model = *sor::scenario::TrafficModelSpec::parse(
        args.quick
            ? "diurnal_gravity:total=48,amplitude=0.6,period=3,max_pairs=32"
            : "diurnal_gravity:total=96,amplitude=0.6,period=5,max_pairs=64");
    bench_instance(table,
                   "hypercube(d=" + std::to_string(spec.size) + ")+diurnal",
                   spec);
  }

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m9_warm_start", table);
  sink.flush();
  return 0;
}

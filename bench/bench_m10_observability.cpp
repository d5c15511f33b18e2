// Experiment M10 — observability overhead (src/obs/,
// docs/observability.md).
//
// Serves the same serial route sequence three ways — observability off
// (the default), off again (determinism control), and fully on (TraceSpan
// recorder armed + per-round convergence telemetry) — and pins the
// subsystem's two contracts. Canonical stage rows (tools/bench_gate.py):
//
//   obs_route_overhead  the headline: speedup = untraced route wall-ms /
//                       traced route wall-ms (a ratio near 1.0; the
//                       baseline band catches an instrumentation
//                       regression). identical = a second traced pass is
//                       bit-identical to the first (recording is
//                       deterministic observation, not perturbation).
//   obs_identity        the hard contract: traced outputs bitwise-equal
//                       to untraced outputs, and the untraced rerun
//                       bit-identical to the first untraced pass — with
//                       observability ON or OFF, every deterministic
//                       output bit is the same.
//   obs_off_alloc       m7-style memory row (value, not a time): max heap
//                       allocations inside any steady-state route with
//                       the subsystem compiled in but disabled. Must be
//                       exactly 0 (--mem-zero) — the always-on counters
//                       and disabled spans keep the zero-alloc serving
//                       contract.
//
// A row with identical=no is a bug, not a measurement.
//
//   bench_m10_observability [--quick] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/alloc_stats.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Workload {
  Graph graph;
  std::string backend;
  std::vector<Demand> demands;
  int alpha = 4;
};

/// Breathing volumes over one fixed support — the steady-state serving
/// regime (stable demand shape) whose zero-alloc contract bench_m7 gates;
/// epoch 0 warms the scratch, later epochs must not allocate.
std::vector<Demand> breathing_epochs(const Demand& base, int epochs) {
  std::vector<Demand> out;
  for (int e = 0; e < epochs; ++e) {
    const double scale = 0.6 + 0.1 * static_cast<double>(e % 5);
    Demand d;
    for (const auto& [pair, value] : base.entries()) {
      d.set(pair.first, pair.second, value * scale);
    }
    out.push_back(std::move(d));
  }
  return out;
}

Workload make_torus(bool quick) {
  Workload w{gen::grid(quick ? 6 : 8, quick ? 6 : 8, true),
             "racke:num_trees=4",
             {},
             4};
  Rng rng(113);
  const Demand base = gen::random_pairs_demand(
      w.graph.num_vertices(), w.graph.num_vertices() / 2, rng);
  w.demands = breathing_epochs(base, quick ? 6 : 10);
  return w;
}

Workload make_cube(bool quick) {
  Workload w{gen::hypercube(quick ? 4 : 5), "valiant", {}, 4};
  Rng rng(211);
  const Demand base =
      gen::random_permutation_demand(w.graph.num_vertices(), rng);
  w.demands = breathing_epochs(base, quick ? 5 : 8);
  return w;
}

struct PassResult {
  std::vector<RouteReport> reports;
  double route_ms = 0.0;
};

/// Serves every demand in order on a fresh engine; `observed` arms the
/// global tracer (pre-sized ring) and per-round convergence recording.
PassResult run_pass(const Workload& w, bool observed) {
  if (observed) {
    obs::tracer().enable();
  } else {
    obs::tracer().disable();
  }
  SorEngine engine = SorEngine::build(Graph(w.graph), w.backend, 17);
  engine.install_paths(SamplingSpec::for_demands(w.demands, w.alpha));
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;
  spec.record_convergence = observed;

  PassResult out;
  out.reports.resize(w.demands.size());
  for (std::size_t e = 0; e < w.demands.size(); ++e) {
    const auto start = Clock::now();
    engine.route_into(w.demands[e], spec, out.reports[e]);
    out.route_ms += ms_since(start);
  }
  obs::tracer().disable();
  return out;
}

/// Deterministic output fields must match bit for bit (the traced pass
/// additionally carries convergence records; those are observation, not
/// output, and are excluded by construction of this comparison).
bool passes_identical(const PassResult& a, const PassResult& b) {
  if (a.reports.size() != b.reports.size()) return false;
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

/// Max heap allocations inside any steady-state route with observability
/// compiled in but off. Epoch 0 is warm-up (cold scratch).
std::uint64_t steady_allocs(const Workload& w) {
  obs::tracer().disable();
  SorEngine engine = SorEngine::build(Graph(w.graph), w.backend, 17);
  engine.install_paths(SamplingSpec::for_demands(w.demands, w.alpha));
  RouteSpec spec;
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;
  RouteReport report;
  std::uint64_t worst = 0;
  for (std::size_t e = 0; e < w.demands.size(); ++e) {
    runtime::AllocProbe probe;
    engine.route_into(w.demands[e], spec, report);
    if (e > 0) worst = std::max(worst, probe.delta().allocs);
  }
  return worst;
}

void bench_instance(Table& table, const std::string& name,
                    const Workload& w) {
  const int ops = static_cast<int>(w.demands.size());

  const PassResult off = run_pass(w, /*observed=*/false);
  const PassResult off2 = run_pass(w, /*observed=*/false);
  const PassResult on = run_pass(w, /*observed=*/true);
  const PassResult on2 = run_pass(w, /*observed=*/true);

  // obs_route_overhead: untraced/traced wall ratio; deterministic traced
  // reruns are part of the row's identity claim.
  const double ratio = on.route_ms > 0.0 ? off.route_ms / on.route_ms : 0.0;
  sor::bench::stage_row(table, "obs_route_overhead", name, 1, on.route_ms,
                        ops, ratio,
                        passes_identical(on, on2) ? "yes" : "no");

  // obs_identity: observability on vs off — every output bit the same.
  const bool identical =
      passes_identical(off, on) && passes_identical(off, off2);
  sor::bench::stage_row(table, "obs_identity", name, 1, off.route_ms, ops,
                        0.0, identical ? "yes" : "no");

  // obs_off_alloc: m7-style value row, gated --mem-zero. identical="-"
  // when the build cannot measure (no SOR_ALLOC_STATS interposer).
  const std::uint64_t allocs = steady_allocs(w);
  const bool counting = runtime::counting_compiled();
  sor::bench::value_row(table, "obs_off_alloc", name,
                        static_cast<double>(allocs),
                        counting ? (allocs == 0 ? "yes" : "no") : "-");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M10 — observability overhead",
         "The same serial route sequence served with observability off and "
         "fully on (armed TraceSpan recorder + per-round convergence "
         "telemetry): speedup is the untraced/traced wall-ms ratio (near "
         "1.0; the baseline band catches instrumentation regressions), "
         "obs_identity pins traced outputs bitwise-equal to untraced, "
         "obs_off_alloc pins the disabled subsystem's zero-alloc steady "
         "state (exact 0, --mem-zero).");

  Table table = stage_table();
  bench_instance(table, args.quick ? "torus(6x6)" : "torus(8x8)",
                 make_torus(args.quick));
  bench_instance(table, args.quick ? "hypercube(d=4)" : "hypercube(d=5)",
                 make_cube(args.quick));

  table.print();
  JsonSink sink(args.json_path);
  sink.add("m10_observability", table);
  sink.flush();
  return 0;
}

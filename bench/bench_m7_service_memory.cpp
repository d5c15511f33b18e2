// Experiment M7 — service-runtime memory: the long-lived serving loop's
// heap behavior under epochal churn.
//
// Drives SorEngine twice across a churn trace (run 1 warms every arena;
// run 2 is the measured steady state) and reports, per instance, memory
// value rows (bench_common.h's value_row: ms_per_op = the measured VALUE,
// not a time; no throughput):
//
//   mem_steady_allocs  max heap allocations inside any steady-state route
//                      call (run 2, epochs >= 1). The engine-owned scratch
//                      arenas + buffer-reusing route_into make this
//                      EXACTLY 0 — identical = yes iff it is 0, and the
//                      CI gate (bench_gate.py --mem-zero) fails on
//                      anything else. Emitted for the two stable-support
//                      instances (the second also runs the certificate
//                      and applies link events); a reinstall-per-epoch
//                      service legitimately allocates while path sets
//                      change shape.
//   mem_arena_peak     peak PathStore arena occupancy (ints) over run 2.
//                      Deterministic for a fixed seed (sampling is
//                      seeded), so the baseline gate pins it EXACTLY
//                      (--mem-flat tolerance 1.0): a reinstall that
//                      left old paths in the arena moves this number.
//                      identical =
//                      yes iff the second half's peak stayed within 5% of
//                      the first half's (no growth trend across churn).
//   mem_rss_growth     process RSS growth in MB across run 2 (warm
//                      steady state; expect ~0). Machine-dependent, so
//                      the gate allows slack (--mem-flat 1.10 + 2 MB).
//
// A build without SOR_ALLOC_STATS prints the rows with identical = "-"
// for the alloc row (vacuous zeros); the CI gate then fails loudly
// rather than celebrating an unmeasured contract.
//
//   bench_m7_service_memory [--quick] [--json PATH]
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/alloc_stats.h"
#include "scenario/scenario.h"

namespace {

using namespace sor;
using scenario::EpochReport;
using scenario::ScenarioReport;
using scenario::ScenarioSpec;
using scenario::ScenarioTrace;

struct MemOutcome {
  std::uint64_t steady_allocs = 0;  ///< max over run-2 epochs >= 1
  std::size_t arena_peak = 0;       ///< max arena_ints over run 2
  bool arena_flat = false;          ///< no growth trend across run 2
  double rss_growth_mb = 0.0;       ///< RSS delta across run 2
  double route_ms = 0.0;            ///< run-2 route wall, informational
};

MemOutcome run_instance(const ScenarioSpec& spec, const ScenarioTrace& trace) {
  SorEngine engine = scenario::build_scenario_engine(spec);
  std::vector<double> capacities;
  for (int e = 0; e < engine.graph().num_edges(); ++e) {
    capacities.push_back(engine.graph().edge(e).capacity);
  }
  // Run 1 warms every arena: scratch pool, route_into buffers, the
  // PathStore interning arena (incl. its reinstall high-water mark).
  scenario::run_scenario(engine, spec, trace);
  // Run 2 must replay run 1, so the capacities go back to where run 1
  // started: an outage still open at the last epoch never recovers, and
  // run_scenario restores events against the capacities it starts from.
  for (int e = 0; e < engine.graph().num_edges(); ++e) {
    const double capacity = capacities[static_cast<std::size_t>(e)];
    if (engine.graph().edge(e).capacity != capacity) {
      engine.set_edge_capacity(e, capacity);
    }
  }

  const std::size_t rss_before = runtime::rss_bytes();
  const ScenarioReport report = scenario::run_scenario(engine, spec, trace);
  const std::size_t rss_after = runtime::rss_bytes();

  MemOutcome out;
  out.rss_growth_mb =
      rss_after > rss_before
          ? static_cast<double>(rss_after - rss_before) / (1024.0 * 1024.0)
          : 0.0;
  out.route_ms = report.total_route_ms;
  std::size_t first_half_peak = 0, second_half_peak = 0;
  const std::size_t half = report.epochs.size() / 2;
  for (const EpochReport& row : report.epochs) {
    out.arena_peak = std::max(out.arena_peak, row.arena_ints);
    if (static_cast<std::size_t>(row.epoch) < half) {
      first_half_peak = std::max(first_half_peak, row.arena_ints);
    } else {
      second_half_peak = std::max(second_half_peak, row.arena_ints);
    }
    if (row.epoch >= 1) {
      out.steady_allocs = std::max(out.steady_allocs, row.route_allocs);
    }
  }
  out.arena_flat = static_cast<double>(second_half_peak) <=
                   static_cast<double>(first_half_peak) * 1.05;
  return out;
}

void bench_instance(sor::Table& table, const std::string& name,
                    const ScenarioSpec& spec, bool emit_zero_alloc_row) {
  const ScenarioTrace trace = [&] {
    const Graph g = scenario::make_scenario_graph(spec);
    return scenario::generate_trace(g, spec);
  }();
  const MemOutcome out = run_instance(spec, trace);
  const bool counting = runtime::counting_compiled();

  std::printf(
      "%s: %d epochs, route %.0f ms; steady allocs max %llu, arena peak "
      "%zu ints, rss growth %.2f MB\n",
      name.c_str(), spec.epochs, out.route_ms,
      static_cast<unsigned long long>(out.steady_allocs), out.arena_peak,
      out.rss_growth_mb);

  if (emit_zero_alloc_row) {
    const std::string zero_ok =
        counting ? (out.steady_allocs == 0 ? "yes" : "no") : "-";
    sor::bench::value_row(table, "mem_steady_allocs", name,
                          static_cast<double>(out.steady_allocs), zero_ok);
  }
  sor::bench::value_row(table, "mem_arena_peak", name,
                        static_cast<double>(out.arena_peak),
                        out.arena_flat ? "yes" : "no");
  sor::bench::value_row(table, "mem_rss_growth", name, out.rss_growth_mb, "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M7 — service-runtime memory",
         "Warm serving loop over churn traces: zero steady-state heap "
         "allocations (mem_steady_allocs, exact), flat PathStore arena "
         "under reinstall churn (mem_arena_peak, deterministic "
         "per seed), flat process RSS (mem_rss_growth, MB). Rows carry the "
         "measured value in ms_per_op.");
  if (!sor::runtime::counting_compiled()) {
    std::printf(
        "warning: built without SOR_ALLOC_STATS — allocation counts are "
        "vacuous zeros and the alloc row is unchecked (identical = -)\n");
  }
  const int epochs = args.quick ? 1500 : 10000;

  Table table = stage_table();

  {
    // Stable support, breathing volumes, install-once: the pure steady
    // state — after epoch 0 every route call must hit warm arenas only.
    ScenarioSpec spec;
    spec.name = "churn";
    spec.topology = "torus";
    spec.size = 6;
    spec.backend = "racke:num_trees=4";
    spec.seed = 29;
    spec.epochs = epochs;
    spec.solve.rounds = 60;
    spec.measure_ratio = false;
    spec.model = *scenario::TrafficModelSpec::parse(
        "diurnal_gravity:total=48,amplitude=0.5,period=12,max_pairs=32");
    spec.reinstall = *scenario::ReinstallPolicy::parse("never");
    bench_instance(table, "torus-churn/never", spec,
                   /*emit_zero_alloc_row=*/true);
  }

  {
    // The certificate under link churn: stable support and install-once
    // again, but with the ratio measured (so every route also runs the
    // distance bound and the optimum) and with capacity edits between
    // epochs. Each edit changes the distance bound's memo key, so the
    // first route after it recomputes every pair into the memo's kept
    // capacity; that route must stay allocation-free too.
    ScenarioSpec spec;
    spec.name = "links";
    spec.topology = "torus";
    spec.size = 5;
    spec.backend = "racke:num_trees=4";
    spec.seed = 13;
    spec.epochs = epochs;
    spec.solve.rounds = 60;
    spec.measure_ratio = true;
    spec.churn.rate = 0.3;
    spec.model = *scenario::TrafficModelSpec::parse(
        "diurnal_gravity:total=32,amplitude=0.5,period=8,max_pairs=24");
    spec.reinstall = *scenario::ReinstallPolicy::parse("never");
    bench_instance(table, "torus-links/never", spec,
                   /*emit_zero_alloc_row=*/true);
  }

  {
    // The adversarial memory case: a fresh permutation every epoch with a
    // reinstall per epoch (horizon 1), i.e. one PathSystem clear + sample
    // cycle per epoch for `epochs` epochs. A reinstall that kept the old
    // paths would grow the arena (and RSS) without bound; clearing it in
    // place keeps one generation, so the peak is the largest support's.
    ScenarioSpec spec;
    spec.name = "storm";
    spec.topology = "hypercube";
    spec.size = 5;
    spec.seed = 31;
    spec.epochs = epochs;
    spec.install_horizon = 1;
    spec.solve.rounds = 60;
    spec.measure_ratio = false;
    spec.model = *scenario::TrafficModelSpec::parse("permutation_storm");
    spec.reinstall = *scenario::ReinstallPolicy::parse("every_k:1");
    bench_instance(table, "hypercube-storm/every_1", spec,
                   /*emit_zero_alloc_row=*/false);
  }

  std::printf("\n");
  table.print();

  JsonSink sink(args.json_path);
  sink.add("m7_service_memory", table);
  sink.flush();
  return 0;
}

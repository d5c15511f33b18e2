// Experiment T8 — robustness under link failures (Section 1 motivation,
// SMORE's selling point [KYY+18]) plus the anytime-solve contract.
//
// Paper claim: semi-oblivious candidate sets sampled from an oblivious
// routing are diverse, so after link failures most pairs keep a live
// candidate path and a pure rate re-optimization (no new forwarding
// state) restores near-optimal congestion.
//
// Part 1 (stdout only): sweep alpha x number-of-failed-links on two
// topologies and report demand coverage and re-optimized congestion.
// Expected shape: coverage rises quickly with alpha (diversity), and the
// surviving congestion stays close to the no-failure baseline.
//
// Part 2 (canonical JsonSink rows, gated by tools/bench_gate.py):
//   phase "anytime_gap"      a restricted solve and an offline optimum
//                            capped at 16 rounds (the cap applies to each
//                            master solve of the optimum), each returning
//                            the iterate of its last round. The speedup
//                            column carries the certificate's tightness
//                            lower / upper = 1 / (1 + certified gap), so
//                            higher is better, as the gate assumes — it is
//                            seed-exact deterministic, so CI gates it
//                            against the committed baseline like any other
//                            machine-independent ratio.
//                            identical=yes iff the solve completed its 16
//                            rounds, a repeat run is bitwise equal AND the
//                            dual certificate holds
//                            (lower <= cong <= lower * (1 + gap)).
//   phase "anytime_identity" a run without a deadline vs one whose
//                            deadline never trips; identical=yes iff
//                            bitwise equal.
#include <chrono>
#include <cmath>

#include "bench_common.h"
#include "core/robustness.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void run_failure_sweep(const bench::Instance& inst, Rng& rng, bool quick) {
  std::printf("-- %s --\n", inst.name.c_str());
  const int n = inst.graph().num_vertices();
  const Demand d = gen::random_permutation_demand(n, rng);
  const auto pairs = support_pairs(d);

  Table table({"alpha", "failures", "coverage", "congestion", "baseline"});
  const std::vector<int> alphas = quick ? std::vector<int>{2, 4}
                                        : std::vector<int>{1, 2, 4, 8};
  for (int alpha : alphas) {
    const PathSystem ps =
        sample_path_system(inst.routing(), alpha, pairs, rng);
    MinCongestionOptions options;
    options.rounds = quick ? 120 : 250;
    const double baseline =
        route_fractional(inst.graph(), ps, d, options).congestion;
    for (int failures : {2, 6, 12}) {
      // Average over a few failure draws.
      double coverage = 0.0;
      double congestion = 0.0;
      const int trials = quick ? 2 : 3;
      for (int t = 0; t < trials; ++t) {
        const auto failed = sample_failures(inst.graph(), failures, rng);
        const auto report =
            evaluate_under_failures(inst.graph(), ps, d, failed, options);
        coverage += report.coverage() / trials;
        congestion += report.congestion / trials;
      }
      table.row()
          .cell(alpha)
          .cell(failures)
          .cell(coverage, 3)
          .cell(congestion, 2)
          .cell(baseline, 2);
    }
  }
  table.print();
  std::printf("\n");
}

bool same_solution(const SemiObliviousSolution& a,
                   const SemiObliviousSolution& b) {
  return a.congestion == b.congestion && a.lower_bound == b.lower_bound &&
         a.optimality_gap == b.optimality_gap && a.edge_load == b.edge_load &&
         a.weights == b.weights && a.status == b.status;
}

bool certificate_holds(double congestion, double lower, double gap) {
  return lower > 0.0 && lower <= congestion + 1e-12 && gap >= 0.0 &&
         congestion <= lower * (1.0 + gap) * (1.0 + 1e-9);
}

/// Emits the anytime rows for one instance: a capped restricted solve, a
/// capped offline optimum (both "anytime_gap"), and the idle-deadline
/// bit-identity row ("anytime_identity").
void run_anytime(Table& table, const bench::Instance& inst, Rng& rng,
                 bool quick) {
  const int n = inst.graph().num_vertices();
  const Demand d = gen::random_permutation_demand(n, rng);
  const PathSystem ps =
      sample_path_system(inst.routing(), 4, support_pairs(d), rng);

  MinCongestionOptions full;
  full.rounds = quick ? 120 : 250;
  MinCongestionOptions capped = full;
  capped.rounds = 16;

  // Restricted solver, capped: a seed-exact prefix of the full solve, so
  // the certified gap (and hence the speedup column) is deterministic.
  {
    const auto start = Clock::now();
    const SemiObliviousSolution a =
        route_fractional(inst.graph(), ps, d, capped);
    const double ms = ms_since(start);
    const SemiObliviousSolution b =
        route_fractional(inst.graph(), ps, d, capped);
    const bool ok =
        a.status == SolveStatus::kCompleted && a.rounds_used == 16 &&
        same_solution(a, b) &&
        certificate_holds(a.congestion, a.lower_bound, a.optimality_gap);
    bench::stage_row(table, "anytime_gap", inst.name + ",restricted", 1, ms,
                     1, 1.0 / (1.0 + a.optimality_gap), ok ? "yes" : "no");
  }

  // Offline optimum, capped: the cap applies to each master solve of its
  // column generation, and its gap is the certified upper / lower.
  {
    OptimumScratch scratch;
    const auto start = Clock::now();
    const OptimalCongestion a =
        optimal_congestion(inst.graph(), d, capped, scratch);
    const double ms = ms_since(start);
    const OptimalCongestion b = optimal_congestion(inst.graph(), d, capped);
    const double gap = a.upper / a.lower - 1.0;
    const bool ok = a.status == SolveStatus::kCompleted &&
                    scratch.result.rounds_used == 16 && a.upper == b.upper &&
                    a.lower == b.lower &&
                    certificate_holds(a.upper, a.lower, gap);
    bench::stage_row(table, "anytime_gap", inst.name + ",free", 1, ms, 1,
                     a.lower / a.upper, ok ? "yes" : "no");
  }

  // No deadline vs a deadline that never trips: bit-identical or the
  // deadline leaked into the clean path.
  {
    const auto start = Clock::now();
    const SemiObliviousSolution off =
        route_fractional(inst.graph(), ps, d, full);
    const double ms = ms_since(start);
    MinCongestionOptions idle = full;
    idle.deadline_ms = 1e9;  // never reached
    const SemiObliviousSolution with =
        route_fractional(inst.graph(), ps, d, idle);
    const bool ok = same_solution(off, with) &&
                    with.status != SolveStatus::kBudgetDeadline;
    bench::stage_row(table, "anytime_identity", inst.name, 1, ms, 1, -1.0,
                     ok ? "yes" : "no");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::banner("T8: link-failure robustness + anytime-solve certificates",
                "coverage after failures rises quickly with alpha; "
                "round-capped solves return their last iterate with a "
                "certificate, bit-identical when a deadline never trips");
  bench::JsonSink sink(args.json_path);
  Rng rng(71);

  Table anytime = bench::stage_table();
  {
    auto inst = args.quick ? bench::make_hypercube(5) : bench::make_hypercube(6);
    run_failure_sweep(inst, rng, args.quick);
    run_anytime(anytime, inst, rng, args.quick);
  }
  {
    auto inst = args.quick ? bench::make_torus(6, rng) : bench::make_torus(8, rng);
    run_failure_sweep(inst, rng, args.quick);
    run_anytime(anytime, inst, rng, args.quick);
  }

  std::printf("-- anytime-solve certificates --\n");
  anytime.print();
  sink.add("t8_robustness", anytime);
  return sink.flush() ? 0 : 1;
}

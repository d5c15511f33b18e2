// Experiment T2 — Section 1.1 deterministic-routing consequence.
//
// Paper claim (via [KKT91]): any deterministic oblivious routing on the
// hypercube suffers ~sqrt(n) congestion on some permutation — greedy
// bit-fixing exhibits it on bit-reversal/transpose — while a deterministic
// selection of O(log n) sampled paths with adaptive rate choice stays
// polylogarithmic.
//
// Expected shape: the greedy column doubles with every +2 dims (sqrt(n)
// scaling); the semi-oblivious column stays flat-ish near the optimum.
//
// Canonical JsonSink rows (--json PATH), gated by tools/bench_gate.py:
//   phase "kkt91_barrier"  one row per (dim, demand); identical=yes iff
//                          semi/lb <= 2 and greedy/lb >= sqrt(n)/4, so the
//                          gate fails the run when either side of the
//                          barrier claim does not hold. ms_per_op times the
//                          row; speedup carries greedy / semi.
// The whole table takes under a second, so --quick changes nothing.
#include <chrono>
#include <cmath>
#include <string>

#include "bench_common.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

void run(bench::JsonSink& sink) {
  bench::banner(
      "T2: deterministic hypercube routing (KKT91 barrier vs few paths)",
      "greedy 1-path congestion grows ~sqrt(n); alpha = log n sampled "
      "paths stay polylog");
  Rng rng(5);
  Table table({"dim", "n", "demand", "greedy-1path", "semi(a=logn)",
               "opt-lb", "greedy/lb", "semi/lb"});
  Table rows = bench::stage_table();
  for (int dim : {4, 6, 8, 10}) {
    bench::Instance inst = bench::make_hypercube(dim, /*seed=*/5 + dim);
    const Graph& cube = inst.graph();
    const auto greedy =
        BackendRegistry::instance().make(cube, "greedy_bitfix", rng);
    for (const char* which : {"bit-reversal", "transpose"}) {
      const auto start = Clock::now();
      const Demand d = std::string(which) == "bit-reversal"
                           ? gen::bit_reversal_demand(dim)
                           : gen::transpose_demand(dim);
      const double greedy_cong =
          estimate_congestion(*greedy, d.commodities(), 1, rng);
      const int alpha = dim;  // Theta(log n)
      inst.engine.install_paths(SamplingSpec::for_demand(d, alpha));
      RouteSpec spec;
      spec.mwu.rounds = 300;
      spec.compute_optimum = false;
      spec.compute_lower_bound = false;  // lb computed below
      const auto semi = inst.engine.route(d, spec);
      const double lb = bench::opt_lower_bound(cube, d, dim <= 6);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      table.row()
          .cell(std::to_string(dim) + " " + which)
          .cell(cube.num_vertices())
          .cell(d.size(), 0)
          .cell(greedy_cong, 1)
          .cell(semi.congestion, 2)
          .cell(lb, 2)
          .cell(greedy_cong / lb, 1)
          .cell(semi.congestion / lb, 2);
      const double sqrt_n = std::sqrt(static_cast<double>(cube.num_vertices()));
      const bool holds =
          semi.congestion / lb <= 2.0 && greedy_cong / lb >= sqrt_n / 4.0;
      bench::stage_row(rows, "kkt91_barrier",
                       "hypercube(d=" + std::to_string(dim) + ")," + which, 1,
                       ms, 1, greedy_cong / semi.congestion,
                       holds ? "yes" : "no");
    }
  }
  table.print();
  sink.add("t2_hypercube_det", rows);
  std::printf(
      "\nreading: greedy/lb roughly doubles per +2 dims (the sqrt(n)\n"
      "barrier); semi/lb stays bounded — few random paths suffice.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonSink sink(args.json_path);
  run(sink);
  return sink.flush() ? 0 : 1;
}

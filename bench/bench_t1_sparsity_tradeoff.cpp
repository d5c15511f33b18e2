// Experiment T1 — Theorems 2.3 & 2.5 (the sparsity/competitiveness curve).
//
// Paper claim: an alpha-sample of a competitive oblivious routing is
// n^{O(1/alpha)}-competitive; each extra path improves competitiveness
// polynomially, reaching polylog at alpha = O(log n / log log n).
//
// We sweep alpha on three topologies, measure the worst and mean
// competitive ratio over an ensemble of random permutation demands, and
// print the curve. Expected shape: steep drop from alpha = 1, flattening
// near alpha ~ log n.
//
// Canonical JsonSink rows (--json PATH), gated by tools/bench_gate.py:
//   phase "thm25_shape"  one row per (topology, alpha); identical=yes iff
//                        the mean ratio is <= 1.02 times the previous
//                        alpha's (the curve does not rise) and, at
//                        alpha = 16, <= the alpha = 1 mean divided by 3
//                        (it falls steeply). ms_per_op times the alpha's
//                        routes; speedup carries the alpha = 1 mean over
//                        this alpha's.
// The whole run takes about two seconds, so --quick changes nothing.
#include <chrono>
#include <set>

#include "bench_common.h"
#include "core/adversary_search.h"

namespace {

using namespace sor;

using Clock = std::chrono::steady_clock;

void run_instance(bench::Instance& inst, Rng& rng, Table& rows) {
  std::printf("-- %s: %d vertices, %d edges --\n", inst.name.c_str(),
              inst.graph().num_vertices(), inst.graph().num_edges());
  const int n = inst.graph().num_vertices();
  const int num_demands = 5;

  // Demands are fixed across alphas so columns are comparable.
  std::vector<Demand> demands;
  std::vector<double> opt_lb;
  for (int i = 0; i < num_demands; ++i) {
    demands.push_back(gen::random_permutation_demand(n, rng));
    opt_lb.push_back(
        bench::opt_lower_bound(inst.graph(), demands.back(), n <= 150));
  }

  // One pooled pair set so each alpha's sample covers all ensemble demands.
  std::vector<std::pair<int, int>> pairs;
  {
    std::set<std::pair<int, int>> pool;
    for (const Demand& d : demands) {
      for (const auto& [pair, value] : d.entries()) pool.insert(pair);
    }
    pairs.assign(pool.begin(), pool.end());
  }

  Table table({"alpha", "mean ratio", "max ratio", "sparsity"});
  double first_mean = 0.0;
  double previous_mean = 0.0;
  for (int alpha : {1, 2, 3, 4, 6, 8, 12, 16}) {
    const auto start = Clock::now();
    // One frozen path system per alpha, reused across the whole ensemble.
    const PathSystem& ps =
        inst.engine.install_paths({.alpha = alpha, .pairs = pairs});
    std::vector<double> ratios;
    for (int i = 0; i < num_demands; ++i) {
      RouteSpec spec;
      spec.mwu.rounds = 400;
      spec.compute_optimum = false;
      spec.compute_lower_bound = false;  // opt_lb[] is the denominator
      const auto report =
          inst.engine.route(demands[static_cast<std::size_t>(i)], spec);
      ratios.push_back(report.congestion /
                       opt_lb[static_cast<std::size_t>(i)]);
    }
    const Summary s = summarize(ratios);
    table.row()
        .cell(alpha)
        .cell(s.mean, 2)
        .cell(s.max, 2)
        .cell(ps.sparsity());
    if (alpha == 1) first_mean = s.mean;
    const bool holds = (alpha == 1 || s.mean <= 1.02 * previous_mean) &&
                       (alpha != 16 || s.mean <= first_mean / 3.0);
    previous_mean = s.mean;
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    bench::stage_row(rows, "thm25_shape",
                     inst.name + ",alpha=" + std::to_string(alpha), 1, ms,
                     num_demands, first_mean / s.mean, holds ? "yes" : "no");
  }
  table.print();
  std::printf("\n");
}

// Random ensembles under-estimate worst-case competitiveness, so we also
// hill-climb for bad permutation demands (adversary search) on a smaller
// hypercube where each candidate demand can be routed quickly.
void run_adversarial(Rng& rng) {
  std::printf(
      "-- adversarially searched demands (hypercube d=5, hill-climbed) --\n");
  auto inst = bench::make_hypercube(5);
  std::vector<int> vertices;
  for (int v = 0; v < inst.graph().num_vertices(); ++v) vertices.push_back(v);
  Table table({"alpha", "worst-found ratio", "improving moves"});
  for (int alpha : {1, 2, 4, 8}) {
    const PathSystem& ps = inst.engine.install_paths({.alpha = alpha});
    AdversarySearchOptions options;
    options.iterations = 40;
    options.pool = 2;
    const auto result =
        find_bad_permutation(inst.graph(), ps, vertices, rng, options);
    table.row()
        .cell(alpha)
        .cell(result.ratio, 2)
        .cell(result.improving_moves);
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonSink sink(args.json_path);
  bench::banner("T1: sparsity vs competitiveness (Theorems 2.3 & 2.5)",
                "competitive ratio of alpha-samples drops steeply with "
                "alpha and flattens near alpha ~ log n");
  Rng rng(11);
  Table rows = bench::stage_table();
  {
    auto inst = bench::make_hypercube(7);
    run_instance(inst, rng, rows);
  }
  {
    auto inst = bench::make_expander(128, 4, rng);
    run_instance(inst, rng, rows);
  }
  {
    auto inst = bench::make_torus(12, rng);
    run_instance(inst, rng, rows);
  }
  run_adversarial(rng);
  sink.add("t1_sparsity_tradeoff", rows);
  return sink.flush() ? 0 : 1;
}

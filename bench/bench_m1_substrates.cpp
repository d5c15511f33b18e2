// Experiment M1 — substrate micro-benchmarks (google-benchmark).
//
// Throughput of the building blocks: Dinic max-flow, all-pairs BFS,
// FRT tree construction, backend construction through the registry, path
// sampling, and the staged SorEngine route. These are the knobs that
// determine how far the experiment harnesses scale.
#include <benchmark/benchmark.h>

#include "api/sor_engine.h"
#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/shortest_path.h"
#include "oblivious/frt.h"

namespace {

using namespace sor;

void BM_DinicMaxFlow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Graph g = gen::random_regular(n, 6, rng);
  int pair = 0;
  for (auto _ : state) {
    const int s = pair % n;
    const int t = (pair * 7 + n / 2) % n;
    ++pair;
    if (s == t) continue;
    benchmark::DoNotOptimize(max_flow(g, s, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DinicMaxFlow)->Arg(64)->Arg(256)->Arg(1024);

void BM_AllPairsBfs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Graph g = gen::random_regular(n, 6, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_pairs_hop_distances(g));
  }
}
BENCHMARK(BM_AllPairsBfs)->Arg(64)->Arg(256);

void BM_FrtTreeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Graph g = gen::random_regular(n, 6, rng);
  const std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  for (auto _ : state) {
    FrtTree tree(g, unit, rng);
    benchmark::DoNotOptimize(tree.nodes().size());
  }
}
BENCHMARK(BM_FrtTreeBuild)->Arg(64)->Arg(256);

void BM_RackeConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Graph g = gen::random_regular(n, 6, rng);
  const auto& registry = BackendRegistry::instance();
  const BackendSpec spec = BackendSpec::parse("racke:num_trees=8");
  for (auto _ : state) {
    auto routing = registry.make(g, spec, rng);
    benchmark::DoNotOptimize(routing.get());
  }
}
BENCHMARK(BM_RackeConstruction)->Arg(64)->Arg(128);

void BM_ValiantPathSampling(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const Graph g = gen::hypercube(dim);
  Rng rng(5);
  const auto routing = BackendRegistry::instance().make(g, "valiant", rng);
  const int n = g.num_vertices();
  for (auto _ : state) {
    const int s = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    int t = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    if (s == t) t = s ^ 1;
    benchmark::DoNotOptimize(routing->sample_path(s, t, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValiantPathSampling)->Arg(8)->Arg(12);

void BM_MwuRestrictedSolve(benchmark::State& state) {
  // Stage 3 throughput through the facade: many revealed demands routed
  // over one frozen PathSystem.
  const int dim = static_cast<int>(state.range(0));
  SorEngine engine = SorEngine::build(gen::hypercube(dim), "valiant", 6);
  Rng rng(6);
  const Demand d =
      gen::random_permutation_demand(engine.graph().num_vertices(), rng);
  engine.install_paths(SamplingSpec::for_demand(d, /*alpha=*/4));
  RouteSpec spec;
  spec.mwu.rounds = 200;
  spec.mwu.target_gap = 1.0;  // force full rounds for stable timing
  spec.compute_optimum = false;
  spec.compute_lower_bound = false;  // time the restricted solve alone
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route(d, spec).congestion);
  }
}
BENCHMARK(BM_MwuRestrictedSolve)->Arg(6)->Arg(8);

void BM_MwuFreeOptimum(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const Graph g = gen::hypercube(dim);
  Rng rng(7);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  MinCongestionOptions options;
  options.rounds = 100;
  options.target_gap = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_congestion(g, d, options).upper);
  }
}
BENCHMARK(BM_MwuFreeOptimum)->Arg(5)->Arg(7);

}  // namespace

BENCHMARK_MAIN();

// Experiment M2 — ablations of the two main design choices (DESIGN.md
// substitutions #1 and #3).
//
// (a) Räcke-style routing = iteratively reweighted FRT trees. Ablate the
//     number of trees and the reweighting strength eta (eta = 0 disables
//     the congestion feedback, leaving i.i.d. FRT trees). Claim: both more
//     trees and reweighting matter; the defaults (12 trees, eta = 6) sit
//     past the knee.
// (b) The restricted min-congestion solver. Ablate the round budget and
//     report the certified optimality gap (congestion / dual lower
//     bound). Claim: a few hundred rounds reach a few percent, justifying
//     the default.
#include "bench_common.h"

namespace {

using namespace sor;

void racke_ablation() {
  std::printf("-- (a) Racke trees: num_trees x eta -> oblivious cong/opt --\n");
  // Two structurally different graphs: a torus (uniform) and two cliques
  // joined by few bridges (congestion bottleneck that reweighting must
  // learn to spread over).
  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"torus(8x8)", gen::grid(8, 8, true)});
  cases.push_back({"two_cliques(8,3)", gen::two_cliques(8, 3)});

  for (auto& cs : cases) {
    // Fixed demand ensemble and fixed OPT denominator across all cells.
    std::vector<Demand> demands;
    std::vector<double> opt_lb;
    Rng demand_rng(99);
    for (int i = 0; i < 3; ++i) {
      demands.push_back(
          gen::random_permutation_demand(cs.graph.num_vertices(), demand_rng));
      opt_lb.push_back(bench::opt_lower_bound(cs.graph, demands.back(), true));
    }
    Table table({"num_trees", "eta=0 (iid FRT)", "eta=6 (reweighted)"});
    for (int trees : {1, 2, 4, 8, 16}) {
      std::vector<double> cell;
      for (double eta : {0.0, 6.0}) {
        Rng build_rng(1234);  // same randomness for both etas
        BackendSpec spec{.name = "racke",
                         .params = {{"num_trees", static_cast<double>(trees)},
                                    {"eta", eta}}};
        const auto routing =
            BackendRegistry::instance().make(cs.graph, spec, build_rng);
        double worst = 0.0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
          const double cong = estimate_congestion(
              *routing, demands[i].commodities(), 24, build_rng);
          worst = std::max(worst, cong / opt_lb[i]);
        }
        cell.push_back(worst);
      }
      table.row().cell(trees).cell(cell[0], 2).cell(cell[1], 2);
    }
    std::printf("%s\n", cs.name.c_str());
    table.print();
    std::printf("\n");
  }
}

void mwu_ablation(Rng& rng) {
  std::printf("-- (b) restricted solver: rounds -> certified gap (cong / dual lb) --\n");
  const Graph g = gen::hypercube(6);
  const auto valiant = BackendRegistry::instance().make(g, "valiant", rng);
  const Demand d = gen::random_permutation_demand(g.num_vertices(), rng);
  const PathSystem ps = sample_path_system(*valiant, 4, support_pairs(d), rng);

  Table table({"rounds", "congestion", "dual lb", "certified gap"});
  for (int rounds : {25, 50, 100, 200, 400, 800, 1600}) {
    MinCongestionOptions options;
    options.rounds = rounds;
    options.target_gap = 0.0;  // never met: every round runs
    const auto routed = route_fractional(g, ps, d, options);
    table.row()
        .cell(rounds)
        .cell(routed.congestion, 3)
        .cell(routed.lower_bound, 3)
        .cell(routed.congestion / routed.lower_bound, 3);
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner("M2: design-choice ablations",
                "(a) Racke = reweighted FRT trees: trees x eta; "
                "(b) restricted-solve round budget vs certified optimality gap");
  Rng rng(81);
  racke_ablation();
  mwu_ablation(rng);
  return 0;
}

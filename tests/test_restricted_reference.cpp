// Pins the restricted MWU solver (min_congestion_over_paths_into) bit for
// bit to a self-contained reference loop written the textbook way:
//  * every edge's exp(log_x - max_log) is recomputed each round, and
//    max_log is a fresh max over all edges;
//  * the normalizing total is the documented segmented sum: the untouched
//    edges' count times their shared value, plus the active edges' values
//    in four lanes over activation order (the tail folds into lane 0);
//  * lengths are (x / total) / cap;
//  * each first-occurrence-deduplicated candidate is summed left to right
//    from +0.0 and the argmin is strict `<` in candidate order;
//  * round loads, cumulative loads, the width and the log_x step run over
//    all m edges, and newly loaded edges join the active list in
//    first-touch order;
//  * eta, the width normalizer, the early exit, the round budget's
//    best-iterate rewind and the returned weights and loads follow the
//    solver's documented contract.
// Weights, edge loads, congestion, lower bound, rounds and status must
// match to the bit on seeded random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/min_congestion.h"
#include "util/rng.h"

namespace sor {
namespace {

struct Instance {
  Graph g;
  std::vector<Commodity> commodities;
  FlatCandidates candidates;
};

// A ring of n vertices whose neighbours are joined by 1-3 parallel edges
// with capacities drawn from {0.5, 1, 2}, so equal-length candidates (and
// hence argmin ties) are common. Commodity j goes from s to s + h (mod n)
// with h in [1, 30]; its candidates take a random parallel edge per hop
// clockwise, or the whole counter-clockwise arc, or repeat an earlier
// candidate. Some commodities have one candidate, some a zero amount.
Instance random_instance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  const int n = 32;
  Instance inst{Graph(n), {}, {}};
  std::vector<std::vector<int>> hop_edges(static_cast<std::size_t>(n));
  const double capacities[] = {0.5, 1.0, 2.0};
  for (int v = 0; v < n; ++v) {
    const int copies = rng.uniform_int(1, 3);
    for (int c = 0; c < copies; ++c) {
      hop_edges[static_cast<std::size_t>(v)].push_back(inst.g.add_edge(
          v, (v + 1) % n, capacities[rng.uniform_int(0, 2)]));
    }
  }
  const auto hop = [&](int v) -> const std::vector<int>& {
    return hop_edges[static_cast<std::size_t>(((v % n) + n) % n)];
  };
  const int k = rng.uniform_int(1, 14);
  inst.candidates.clear();
  for (int j = 0; j < k; ++j) {
    const int s = rng.uniform_int(0, n - 1);
    const int h = rng.uniform_int(1, 30);
    const double amount =
        rng.bernoulli(0.15) ? 0.0 : 0.25 * rng.uniform_int(1, 12);
    inst.commodities.push_back({s, (s + h) % n, amount});
    const int num_paths = rng.bernoulli(0.3) ? 1 : rng.uniform_int(2, 7);
    std::vector<std::vector<int>> paths;
    for (int i = 0; i < num_paths; ++i) {
      std::vector<int> edges;
      if (!paths.empty() && rng.bernoulli(0.2)) {
        edges = paths[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(paths.size()) - 1))];
      } else if (n - h <= 30 && rng.bernoulli(0.2)) {
        for (int q = 0; q < n - h; ++q) edges.push_back(hop(s - 1 - q)[0]);
      } else {
        for (int q = 0; q < h; ++q) {
          const auto& parallel = hop(s + q);
          edges.push_back(parallel[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(parallel.size()) - 1))]);
        }
      }
      inst.candidates.add_path(edges);
      paths.push_back(std::move(edges));
    }
    inst.candidates.end_commodity();
  }
  return inst;
}

double certified_gap(double congestion, double lower_bound) {
  if (congestion <= 0.0) return 0.0;
  if (lower_bound <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, congestion / lower_bound - 1.0);
}

CongestionResult reference_solve(const Instance& inst,
                                 const MinCongestionOptions& options,
                                 const MwuWarmStart* warm) {
  const Graph& g = inst.g;
  const auto& commodities = inst.commodities;
  const FlatCandidates& cands = inst.candidates;
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  CongestionResult out;
  out.path_weights.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.path_weights[j].assign(cands.num_paths(j), 0.0);
  }
  out.edge_load.assign(m, 0.0);
  if (k == 0 || m == 0) return out;
  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) {
    cap[e] = g.edge(static_cast<int>(e)).capacity;
  }

  // First occurrences only: a repeated candidate always ties its first
  // copy, so the strict argmin never picks it.
  std::vector<std::vector<std::size_t>> distinct(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cands.num_paths(j); ++i) {
      const auto edges = cands.edges(j, i);
      bool repeat = false;
      for (std::size_t d : distinct[j]) {
        const auto other = cands.edges(j, d);
        repeat = repeat || std::equal(edges.begin(), edges.end(),
                                      other.begin(), other.end());
      }
      if (!repeat) distinct[j].push_back(i);
    }
  }

  std::vector<double> log_x(m, 0.0);
  std::vector<int> active;
  std::vector<char> is_active(m, 0);
  if (warm != nullptr && warm->scale > 0.0 && warm->log_x.size() == m) {
    for (std::size_t e = 0; e < m; ++e) {
      const double seeded = warm->log_x[e] * warm->scale;
      if (seeded > 0.0 && std::isfinite(seeded)) {
        log_x[e] = seeded;
        is_active[e] = 1;
        active.push_back(static_cast<int>(e));
      }
    }
  }

  const double eta =
      std::sqrt(std::log(static_cast<double>(m) + 2.0) /
                static_cast<double>(std::max(options.rounds, 1)));
  const SolveBudget& budget = options.budget;
  const int round_cap =
      (budget.max_rounds > 0 && budget.max_rounds < options.rounds)
          ? budget.max_rounds
          : options.rounds;
  const double gap_mult =
      budget.target_gap > 0.0 ? budget.target_gap : options.target_gap;
  const bool track_best = budget.max_rounds > 0;

  std::vector<std::vector<int>> counts(k);
  for (std::size_t j = 0; j < k; ++j) counts[j].assign(cands.num_paths(j), 0);
  std::vector<std::vector<int>> best_counts = counts;
  std::vector<double> cumulative(m, 0.0);
  double width_norm = 0.0;
  double best_lower = 0.0;
  double best_seen = std::numeric_limits<double>::infinity();
  int best_round = 0;
  bool target_hit = false;

  const auto max_ratio = [&](int rounds) {
    double worst = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      worst = std::max(worst,
                       cumulative[e] / (static_cast<double>(rounds) * cap[e]));
    }
    return worst;
  };

  int round = 0;
  for (round = 0; round < round_cap; ++round) {
    double max_log = 0.0;
    for (std::size_t e = 0; e < m; ++e) max_log = std::max(max_log, log_x[e]);
    std::vector<double> x(m);
    for (std::size_t e = 0; e < m; ++e) x[e] = std::exp(log_x[e] - max_log);
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t full = active.size() - active.size() % 4;
    for (std::size_t a = 0; a < active.size(); ++a) {
      lane[a < full ? a % 4 : 0] += x[static_cast<std::size_t>(active[a])];
    }
    const double total =
        static_cast<double>(m - active.size()) * std::exp(0.0 - max_log) +
        ((lane[0] + lane[1]) + (lane[2] + lane[3]));
    std::vector<double> length(m);
    for (std::size_t e = 0; e < m; ++e) length[e] = (x[e] / total) / cap[e];

    // Best response per commodity and the round's dual certificate.
    std::vector<int> chosen(k, -1);
    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      double chosen_len = 0.0;
      if (commodities[j].amount > 0.0 && !distinct[j].empty()) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_i = distinct[j].front();
        for (std::size_t i : distinct[j]) {
          double sum = 0.0;
          for (int e : cands.edges(j, i)) {
            sum += length[static_cast<std::size_t>(e)];
          }
          if (sum < best) {
            best = sum;
            best_i = i;
          }
        }
        chosen[j] = static_cast<int>(best_i);
        chosen_len = best;
        ++counts[j][best_i];
      }
      dual += commodities[j].amount * chosen_len;
    }
    best_lower = std::max(best_lower, dual);

    std::vector<double> round_load(m, 0.0);
    std::vector<int> first_touch;
    for (std::size_t j = 0; j < k; ++j) {
      if (chosen[j] < 0) continue;
      for (int e : cands.edges(j, static_cast<std::size_t>(chosen[j]))) {
        if (round_load[static_cast<std::size_t>(e)] == 0.0) {
          first_touch.push_back(e);
        }
        round_load[static_cast<std::size_t>(e)] += commodities[j].amount;
      }
    }
    double width = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      cumulative[e] += round_load[e];
      width = std::max(width, round_load[e] / cap[e]);
    }
    width_norm = std::max(width_norm, width);
    if (width_norm > 0.0) {
      for (std::size_t e = 0; e < m; ++e) {
        log_x[e] += eta * (round_load[e] / cap[e]) / width_norm;
      }
      for (int e : first_touch) {
        if (!is_active[static_cast<std::size_t>(e)]) {
          is_active[static_cast<std::size_t>(e)] = 1;
          active.push_back(e);
        }
      }
    }

    if (track_best) {
      const double cur = max_ratio(round + 1);
      if (cur < best_seen) {
        best_seen = cur;
        best_round = round + 1;
        best_counts = counts;
      }
    }
    if (round + 1 >= options.min_rounds && best_lower > 0.0 &&
        max_ratio(round + 1) <= best_lower * gap_mult) {
      ++round;
      target_hit = true;
      break;
    }
  }

  SolveStatus status = SolveStatus::kCompleted;
  if (target_hit) {
    status = SolveStatus::kTargetReached;
  } else if (round_cap < options.rounds && round >= round_cap) {
    status = SolveStatus::kBudgetRounds;
  }
  if (status == SolveStatus::kBudgetRounds && best_round > 0 &&
      best_round < round) {
    round = best_round;
    counts = best_counts;
  }

  const int total_rounds = std::max(round, 1);
  for (std::size_t j = 0; j < k; ++j) {
    if (commodities[j].amount <= 0.0) continue;
    for (std::size_t i : distinct[j]) {
      out.path_weights[j][i] = commodities[j].amount *
                               static_cast<double>(counts[j][i]) /
                               static_cast<double>(total_rounds);
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cands.num_paths(j); ++i) {
      const double w = out.path_weights[j][i];
      if (w <= 0.0) continue;
      for (int e : cands.edges(j, i)) {
        out.edge_load[static_cast<std::size_t>(e)] += w;
      }
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    out.congestion = std::max(out.congestion, out.edge_load[e] / cap[e]);
  }
  out.lower_bound = best_lower;
  out.rounds_used = round;
  out.status = status;
  out.optimality_gap = certified_gap(out.congestion, out.lower_bound);
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bitwise_equal(const CongestionResult& solver,
                          const CongestionResult& ref) {
  EXPECT_EQ(bits(solver.congestion), bits(ref.congestion));
  EXPECT_EQ(bits(solver.lower_bound), bits(ref.lower_bound));
  EXPECT_EQ(bits(solver.optimality_gap), bits(ref.optimality_gap));
  EXPECT_EQ(solver.rounds_used, ref.rounds_used);
  EXPECT_EQ(solver.status, ref.status);
  ASSERT_EQ(solver.edge_load.size(), ref.edge_load.size());
  for (std::size_t e = 0; e < ref.edge_load.size(); ++e) {
    EXPECT_EQ(bits(solver.edge_load[e]), bits(ref.edge_load[e])) << "edge " << e;
  }
  ASSERT_EQ(solver.path_weights.size(), ref.path_weights.size());
  for (std::size_t j = 0; j < ref.path_weights.size(); ++j) {
    ASSERT_EQ(solver.path_weights[j].size(), ref.path_weights[j].size());
    for (std::size_t i = 0; i < ref.path_weights[j].size(); ++i) {
      EXPECT_EQ(bits(solver.path_weights[j][i]), bits(ref.path_weights[j][i]))
          << "commodity " << j << " path " << i;
    }
  }
}

class RestrictedReferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestrictedReferenceSweep, SolverMatchesReferenceBitForBit) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = random_instance(seed);
  const std::size_t m = static_cast<std::size_t>(inst.g.num_edges());

  // One scratch serves every solve below, after a different instance has
  // already shaped it, so leftover state from earlier solves must not leak.
  MinCongestionScratch scratch;
  CongestionResult out;
  const Instance decoy = random_instance(seed + 1000);
  min_congestion_over_paths_into(decoy.g, decoy.commodities, decoy.candidates,
                                 {}, {}, scratch, out);

  MinCongestionOptions cold;
  cold.rounds = 300;
  cold.min_rounds = 30;
  MinCongestionOptions early = cold;
  early.target_gap = 1.25;
  MinCongestionOptions capped = cold;
  capped.budget.max_rounds = 41;

  std::vector<double> seed_log_x(m, 0.0);
  Rng rng(seed + 77);
  for (double& v : seed_log_x) {
    if (rng.bernoulli(0.4)) v = rng.uniform_double(0.0, 3.0);
  }
  const MwuWarmStart warm{seed_log_x, 0.7};

  struct Case {
    const char* name;
    const MinCongestionOptions* options;
    const MwuWarmStart* warm;
  };
  for (const Case& c : {Case{"cold", &cold, nullptr},
                        Case{"early exit", &early, nullptr},
                        Case{"round budget", &capped, nullptr},
                        Case{"warm seed", &cold, &warm},
                        Case{"warm seed, round budget", &capped, &warm}}) {
    SCOPED_TRACE(c.name);
    MwuHooks hooks;
    hooks.warm = c.warm;
    min_congestion_over_paths_into(inst.g, inst.commodities, inst.candidates,
                                   *c.options, hooks, scratch, out);
    expect_bitwise_equal(out, reference_solve(inst, *c.options, c.warm));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestrictedReferenceSweep,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace sor

// Pins the restricted Frank–Wolfe solver (min_congestion_over_paths_into)
// bit for bit to a self-contained reference loop written the textbook way:
//  * the flow, the best response's flow, the softmax, the lengths, the
//    Frank–Wolfe gap, the curvature, the step and the congestion all run
//    over all m edges, in edge order;
//  * the normalizing total is the documented segmented sum: the count of
//    edges on no candidate times their shared value exp(-beta * U), plus a
//    serial sum over the other edges in increasing edge id;
//  * each first-occurrence-deduplicated candidate is summed left to right
//    from +0.0 and the argmin is strict `<` in candidate order;
//  * a warm seed row is folded onto first occurrences and scaled to the
//    amount and unseeded commodities enter on their round-0 best
//    response; the early exit fires at the first round whose congestion
//    is within the target gap of the running lower bound, cold or seeded;
//    eps, the step, the round cap, a deadline on an injected clock and the
//    returned weights (those of the last round run) and loads follow the
//    solver's documented contract;
//  * every round leaves one convergence record: the round, the congestion,
//    the dual, the running lower bound, the certified gap and the count of
//    edges the best response loads.
// Weights, edge loads, congestion, lower bound, rounds, status, the
// captured lengths and, with a sink attached, every record must match to
// the bit on seeded random instances, and on instances where all
// commodities, or all but the first, have one distinct candidate: rounds
// with a Frank–Wolfe gap of 0, which take no step, are common there.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/min_congestion.h"
#include "obs/convergence.h"
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
// candidate. Some commodities have one candidate, some a zero amount. From
// commodity `repeat_from` on, every candidate after a commodity's first
// repeats it, so those commodities have one distinct candidate each.
Instance random_instance(std::uint64_t seed,
                         int repeat_from = std::numeric_limits<int>::max()) {
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
      if (j >= repeat_from && !paths.empty()) {
        edges = paths.front();
      } else if (!paths.empty() && rng.bernoulli(0.2)) {
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

struct Reference {
  CongestionResult result;
  std::vector<double> lengths;  // the last round's, one per edge
  std::vector<obs::ConvergenceRecord> records;  // one per round
};

// A clock that reads 0 until its `trip`-th reading after the first, then
// reads past any deadline: the first reading is the solve's start.
class TripClock final : public SolveClock {
 public:
  explicit TripClock(int trip) : trip_(trip) {}
  double now_ms() override { return reads_++ < trip_ ? 0.0 : 1e9; }

 private:
  int trip_;
  int reads_ = 0;
};

Reference reference_solve(const Instance& inst,
                          const MinCongestionOptions& options,
                          const std::vector<std::vector<double>>* warm,
                          SolveClock* clock) {
  const Graph& g = inst.g;
  const auto& commodities = inst.commodities;
  const FlatCandidates& cands = inst.candidates;
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  Reference ref;
  CongestionResult& out = ref.result;
  out.path_weights.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.path_weights[j].assign(cands.num_paths(j), 0.0);
  }
  out.edge_load.assign(m, 0.0);
  if (k == 0 || m == 0) return ref;
  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) {
    cap[e] = g.edge(static_cast<int>(e)).capacity;
  }

  // First occurrences only: a repeated candidate always ties its first
  // copy, so the strict argmin never picks it. first_of[j][i] is the
  // first occurrence of candidate i.
  std::vector<std::vector<std::size_t>> distinct(k);
  std::vector<std::vector<std::size_t>> first_of(k);
  std::vector<char> on_candidate(m, 0);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cands.num_paths(j); ++i) {
      const auto edges = cands.edges(j, i);
      std::size_t first = i;
      for (std::size_t d : distinct[j]) {
        const auto other = cands.edges(j, d);
        if (first == i && std::equal(edges.begin(), edges.end(),
                                     other.begin(), other.end())) {
          first = d;
        }
      }
      first_of[j].push_back(first);
      if (first == i) distinct[j].push_back(i);
      if (commodities[j].amount > 0.0) {
        for (int e : edges) on_candidate[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  const double others = static_cast<double>(
      std::count(on_candidate.begin(), on_candidate.end(), 0));

  // Weights over candidate indices (copies stay 0) and the flow.
  std::vector<std::vector<double>> w(k);
  std::vector<char> seeded(k, 0);
  std::vector<double> flow(m, 0.0);
  for (std::size_t j = 0; j < k; ++j) w[j].assign(cands.num_paths(j), 0.0);
  if (warm != nullptr && warm->size() == k) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<double>& row = (*warm)[j];
      if (commodities[j].amount <= 0.0 || row.size() != cands.num_paths(j)) {
        continue;
      }
      double sum = 0.0;
      bool usable = true;
      for (double v : row) {
        usable = usable && std::isfinite(v) && v >= 0.0;
        sum += v;
      }
      if (!usable || !(sum > 0.0) || !std::isfinite(sum)) continue;
      for (std::size_t i = 0; i < row.size(); ++i) w[j][first_of[j][i]] += row[i];
      for (std::size_t i : distinct[j]) {
        w[j][i] *= commodities[j].amount / sum;
        for (int e : cands.edges(j, i)) {
          flow[static_cast<std::size_t>(e)] += w[j][i];
        }
      }
      seeded[j] = 1;
    }
  }

  const double log_m = std::log(static_cast<double>(m) + 2.0);
  const double eps_floor = std::max(0.01, log_m / 700.0);
  const double start = options.deadline_ms > 0.0 ? clock->now_ms() : 0.0;

  const auto max_ratio = [&] {
    double worst = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      worst = std::max(worst, flow[e] / cap[e]);
    }
    return worst;
  };
  double eps = 1.0;
  double u = max_ratio();
  double best_lower = 0.0;
  SolveStatus status = SolveStatus::kCompleted;
  std::vector<double> x(m, 0.0);
  std::vector<double> length(m, 0.0);

  int round = 0;
  while (round < options.rounds) {
    const double beta = u > 0.0 ? log_m / (eps * u) : 0.0;
    const double shared = std::exp(-beta * u);
    double on_sum = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      x[e] = on_candidate[e] ? std::exp(beta * (flow[e] / cap[e] - u))
                             : shared;
      if (on_candidate[e]) on_sum += x[e];
    }
    const double total = others * shared + on_sum;
    for (std::size_t e = 0; e < m; ++e) length[e] = x[e] / total / cap[e];

    // Best response per commodity and the round's dual certificate.
    std::vector<int> chosen(k, -1);
    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      double chosen_len = 0.0;
      if (commodities[j].amount > 0.0) {
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
      }
      dual += commodities[j].amount * chosen_len;
    }
    best_lower = std::max(best_lower, dual);
    std::vector<double> response(m, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      if (chosen[j] < 0) continue;
      for (int e : cands.edges(j, static_cast<std::size_t>(chosen[j]))) {
        response[static_cast<std::size_t>(e)] += commodities[j].amount;
      }
    }

    if (round == 0) {
      for (std::size_t j = 0; j < k; ++j) {
        if (chosen[j] < 0 || seeded[j]) continue;
        w[j][static_cast<std::size_t>(chosen[j])] += commodities[j].amount;
        for (int e : cands.edges(j, static_cast<std::size_t>(chosen[j]))) {
          flow[static_cast<std::size_t>(e)] += commodities[j].amount;
        }
      }
    } else {
      double fw_gap = 0.0;
      double curvature = 0.0;
      for (std::size_t e = 0; e < m; ++e) {
        fw_gap += length[e] * (flow[e] - response[e]);
        const double q = (response[e] - flow[e]) / cap[e];
        curvature += x[e] / total * (q * q);
      }
      const double sigma =
          fw_gap > 0.0 ? std::min(1.0, fw_gap / (beta * curvature)) : 0.0;
      if (fw_gap <= 0.1 * eps * u) eps = std::max(eps * 0.5, eps_floor);
      for (std::size_t e = 0; e < m; ++e) {
        flow[e] += sigma * (response[e] - flow[e]);
      }
      for (std::size_t j = 0; j < k; ++j) {
        for (double& v : w[j]) v *= 1.0 - sigma;
        if (chosen[j] >= 0) {
          w[j][static_cast<std::size_t>(chosen[j])] +=
              sigma * commodities[j].amount;
        }
      }
    }
    u = max_ratio();
    ++round;
    ref.lengths = length;
    const auto loaded = std::count_if(response.begin(), response.end(),
                                      [](double b) { return b > 0.0; });
    ref.records.push_back({round, u, dual, best_lower,
                           certified_gap(u, best_lower),
                           static_cast<int>(loaded)});

    if (best_lower > 0.0 && u <= best_lower * options.target_gap) {
      status = SolveStatus::kTargetReached;
      break;
    }
    if (options.deadline_ms > 0.0 && round % kDeadlineCheckRounds == 0 &&
        clock->now_ms() - start >= options.deadline_ms) {
      status = SolveStatus::kBudgetDeadline;
      break;
    }
  }

  out.path_weights = w;
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cands.num_paths(j); ++i) {
      const double v = out.path_weights[j][i];
      if (v <= 0.0) continue;
      for (int e : cands.edges(j, i)) {
        out.edge_load[static_cast<std::size_t>(e)] += v;
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
  return ref;
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

void expect_lengths_equal(const std::vector<double>& solver,
                          const std::vector<double>& ref) {
  ASSERT_EQ(solver.size(), ref.size());
  for (std::size_t e = 0; e < ref.size(); ++e) {
    EXPECT_EQ(bits(solver[e]), bits(ref[e])) << "length of edge " << e;
  }
}

void expect_records_equal(const std::vector<obs::ConvergenceRecord>& solver,
                          const std::vector<obs::ConvergenceRecord>& ref) {
  ASSERT_EQ(solver.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "record " << r);
    EXPECT_EQ(solver[r].round, ref[r].round);
    EXPECT_EQ(bits(solver[r].congestion), bits(ref[r].congestion));
    EXPECT_EQ(bits(solver[r].dual), bits(ref[r].dual));
    EXPECT_EQ(bits(solver[r].best_lower), bits(ref[r].best_lower));
    EXPECT_EQ(bits(solver[r].gap), bits(ref[r].gap));
    EXPECT_EQ(solver[r].touched_edges, ref[r].touched_edges);
  }
}

// Solves `inst` through `scratch` in every case below, without and with a
// sink, and compares each solve with the reference.
void expect_matches_reference(const Instance& inst, std::uint64_t seed,
                              MinCongestionScratch& scratch,
                              CongestionResult& out) {
  MinCongestionOptions cold;
  cold.rounds = 300;
  MinCongestionOptions early = cold;
  early.target_gap = 1.25;
  MinCongestionOptions capped = cold;
  capped.rounds = 41;
  MinCongestionOptions deadline = cold;
  deadline.deadline_ms = 5.0;

  // A seed over every candidate: random splits, some rows all zero or of
  // the wrong length (those commodities enter cold), copies seeded too.
  Rng rng(seed + 77);
  std::vector<std::vector<double>> seed_weights;
  for (std::size_t j = 0; j < inst.commodities.size(); ++j) {
    std::vector<double> row(inst.candidates.num_paths(j), 0.0);
    if (rng.bernoulli(0.15)) row.push_back(1.0);
    if (!rng.bernoulli(0.2)) {
      for (double& v : row) {
        if (rng.bernoulli(0.6)) v = rng.uniform_double(0.0, 3.0);
      }
    }
    seed_weights.push_back(std::move(row));
  }

  struct Case {
    const char* name;
    const MinCongestionOptions* options;
    const std::vector<std::vector<double>>* warm;
    int trip;  // the deadline clock's tripping checkpoint, 0 = no clock
  };
  for (const Case& c : {Case{"cold", &cold, nullptr, 0},
                        Case{"early exit", &early, nullptr, 0},
                        Case{"round budget", &capped, nullptr, 0},
                        Case{"deadline, second checkpoint", &deadline,
                             nullptr, 2},
                        Case{"warm seed", &cold, &seed_weights, 0},
                        Case{"warm seed, early exit", &early, &seed_weights, 0},
                        Case{"warm seed, round budget", &capped,
                             &seed_weights, 0}}) {
    SCOPED_TRACE(c.name);
    TripClock reference_clock(c.trip);
    const Reference ref = reference_solve(inst, *c.options, c.warm,
                                          &reference_clock);
    // Without a sink, then with one: attaching it changes no result.
    for (const bool with_sink : {false, true}) {
      SCOPED_TRACE(with_sink ? "sink attached" : "no sink");
      TripClock solver_clock(c.trip);
      std::vector<double> lengths;
      std::vector<obs::ConvergenceRecord> records;
      obs::ConvergenceSink sink(records);
      MwuHooks hooks;
      hooks.warm = c.warm;
      hooks.capture_lengths = &lengths;
      if (c.trip > 0) hooks.clock = &solver_clock;
      if (with_sink) hooks.sink = &sink;
      min_congestion_over_paths_into(inst.g, inst.commodities,
                                     inst.candidates, *c.options, hooks,
                                     scratch, out);
      expect_bitwise_equal(out, ref.result);
      expect_lengths_equal(lengths, ref.lengths);
      if (with_sink) expect_records_equal(records, ref.records);
    }
  }
}

class RestrictedReferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestrictedReferenceSweep, SolverMatchesReferenceBitForBit) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());

  // One scratch serves every solve below, after a different instance has
  // already shaped it, so leftover state from earlier solves must not leak.
  MinCongestionScratch scratch;
  CongestionResult out;
  const Instance decoy = random_instance(seed + 1000);
  min_congestion_over_paths_into(decoy.g, decoy.commodities, decoy.candidates,
                                 {}, {}, scratch, out);
  {
    SCOPED_TRACE("random candidates");
    expect_matches_reference(random_instance(seed), seed, scratch, out);
  }
  {
    // The best response is the flow itself from round 1, so every later
    // round has a Frank–Wolfe gap of 0 and takes no step (sigma == 0).
    SCOPED_TRACE("one distinct candidate per commodity");
    expect_matches_reference(random_instance(seed, 0), seed, scratch, out);
  }
  {
    // The same but for the first commodity: a stepless round can precede a
    // step, whose gap a B left over from that round would change.
    SCOPED_TRACE("one distinct candidate per commodity but the first");
    expect_matches_reference(random_instance(seed, 1), seed, scratch, out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestrictedReferenceSweep,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace sor

#include "lp/min_congestion.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/shortest_path.h"
#include "obs/convergence.h"

namespace sor {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kCompleted: return "completed";
    case SolveStatus::kTargetReached: return "target_reached";
    case SolveStatus::kBudgetDeadline: return "budget_deadline";
  }
  return "unknown";
}

std::optional<MinCongestionOptions> MinCongestionOptions::parse(
    const std::string& text, const MinCongestionOptions& base) {
  // A value is the whole of its token (from_chars reads no space, '+' or
  // locale); negative values and inf / nan are refused.
  const auto number = [](const std::string& value, auto& out) {
    const auto res =
        std::from_chars(value.data(), value.data() + value.size(), out);
    return res.ec == std::errc{} && res.ptr == value.data() + value.size() &&
           std::isfinite(static_cast<double>(out)) && out >= 0;
  };
  MinCongestionOptions options = base;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = false;
    if (key == "rounds") {
      ok = number(value, options.rounds) && options.rounds >= 1;
    } else if (key == "target_gap") {
      ok = number(value, options.target_gap);
    } else if (key == "deadline_ms") {
      ok = number(value, options.deadline_ms);
    }
    if (!ok) return std::nullopt;
  }
  return options;
}

std::string MinCongestionOptions::to_string() const {
  const auto fmt = [](double value) {
    char buffer[32];
    const auto res = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, res.ptr);
  };
  std::ostringstream out;
  out << "rounds=" << rounds << ",target_gap=" << fmt(target_gap)
      << ",deadline_ms=" << fmt(deadline_ms);
  return out.str();
}

namespace {

/// Certified suboptimality of (upper, dual lower) — see
/// CongestionResult::optimality_gap.
double certified_gap(double congestion, double lower_bound) {
  if (congestion <= 0.0) return 0.0;
  if (lower_bound <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, congestion / lower_bound - 1.0);
}

}  // namespace

double congestion_of_weights(const Graph& g,
                             const std::vector<Commodity>& commodities,
                             const FlatCandidates& candidates,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load) {
  assert(candidates.num_commodities() == commodities.size());
  assert(weights.size() == commodities.size());
  // Accumulate straight into the caller's vector when given one (assign
  // keeps its capacity; same accumulation order, identical values) so the
  // warm serving path never materializes a local load vector.
  std::vector<double> local;
  std::vector<double>& load = edge_load ? *edge_load : local;
  load.assign(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    assert(weights[j].size() == candidates.num_paths(j));
    for (std::size_t i = 0; i < weights[j].size(); ++i) {
      if (weights[j][i] <= 0.0) continue;
      for (int e : candidates.edges(j, i)) {
        load[static_cast<std::size_t>(e)] += weights[j][i];
      }
    }
  }
  double congestion = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    congestion = std::max(congestion,
                          load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  return congestion;
}

double congestion_of_weights(const Graph& g,
                             const std::vector<Commodity>& commodities,
                             const std::vector<std::vector<Path>>& paths,
                             const std::vector<std::vector<double>>& weights,
                             std::vector<double>* edge_load) {
  assert(paths.size() == commodities.size());
  return congestion_of_weights(g, commodities, flatten_candidates(g, paths),
                               weights, edge_load);
}

namespace {

constexpr std::size_t kLanes = 8;

// The restricted solve: commodity j may only use its candidate paths. This
// is THE hot loop of the serving path (one solve per revealed demand), so
// its per-round work costs O(candidate footprint), not O(m):
//
//  * duplicate candidates are deduplicated up front: sampling is with
//    replacement, and a duplicate's length always EQUALS its first
//    occurrence, so the strict `<` argmin can never select it — dropping
//    it from the scan changes nothing (its weight stays 0); a zero-demand
//    commodity routes nothing and scans no candidate at all;
//  * the flow, the softmax numerators and the lengths are kept only for
//    the footprint (the edges on SOME distinct candidate): every other
//    edge has flow 0, and the path sums never read it;
//  * the normalizing total is a segmented sum: the (m - |footprint|)
//    other edges fold into one (count * shared value) product (the
//    association documented on min_congestion_over_paths);
//  * every distinct candidate of the solve is summed in ONE pass over lane
//    blocks (see prepare_candidates), then each commodity takes its argmin
//    over its own sums in dedup order.

/// Per-solve setup of the candidate side of `sc`: the distinct candidates
/// (and which of them each candidate copies), their lane blocks, the path
/// sums and the footprint in increasing edge id. sc.cap must already hold
/// one capacity per edge.
void prepare_candidates(const std::vector<Commodity>& commodities,
                        const FlatCandidates& candidates,
                        MinCongestionScratch& sc) {
  const std::size_t k = commodities.size();
  const std::size_t m = sc.cap.size();
  // distinct: each positive-demand commodity's first-occurrence
  // candidates, commodity-major; commodity_first: prefix over distinct
  // per commodity; original_index: candidate index of each distinct path;
  // distinct_of: the distinct path of every candidate, commodity-major
  // over all candidates (-1 for a zero-demand commodity's).
  auto& distinct = sc.distinct;
  distinct.clear();
  sc.original_index.clear();
  sc.distinct_of.clear();
  sc.commodity_first.assign(1, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const Commodity& c = commodities[j];
    if (c.amount > 0.0) {
      if (candidates.num_paths(j) == 0) {
        std::ostringstream msg;
        msg << "min_congestion_over_paths: pair (" << c.s << ", " << c.t
            << ") has demand " << c.amount << " but no candidate path";
        throw std::invalid_argument(msg.str());
      }
      const std::size_t first = distinct.size();
      for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
        const auto path = candidates.edges(j, i);
        const auto copy = std::find_if(
            distinct.begin() + static_cast<std::ptrdiff_t>(first),
            distinct.end(), [&](std::span<const int> other) {
              return std::equal(path.begin(), path.end(), other.begin(),
                                other.end());
            });
        sc.distinct_of.push_back(
            static_cast<std::int32_t>(copy - distinct.begin()));
        if (copy != distinct.end()) continue;
        distinct.push_back(path);
        sc.original_index.push_back(static_cast<std::int32_t>(i));
      }
    } else {
      sc.distinct_of.insert(sc.distinct_of.end(), candidates.num_paths(j), -1);
    }
    sc.commodity_first.push_back(static_cast<std::int64_t>(distinct.size()));
  }
  const std::size_t num_distinct = distinct.size();
  sc.chosen.assign(k, -1);
  sc.chosen_len.assign(k, 0.0);

  // Lane blocks. A stable counting sort by hop count orders the distinct
  // paths into by_hops, which is padded to whole blocks of kLanes with
  // the dump slot num_distinct. Block b holds the paths by_hops[kLanes*b
  // ..] transposed — hop h of lane l at lane_edges[block_first[b] +
  // kLanes*h + l] — for as many hops as its longest (last) path. A
  // shorter lane is padded with edge id m, whose length stays +0.0: its
  // sum is a left-to-right chain from +0.0 like a serial one, and
  // x + (+0.0) == x for every x >= +0.0, so padding changes no sum.
  std::size_t max_hops = 0;
  for (const auto path : distinct) max_hops = std::max(max_hops, path.size());
  auto& hop_first = sc.hop_first;
  hop_first.assign(max_hops + 2, 0);
  for (const auto path : distinct) ++hop_first[path.size() + 1];
  for (std::size_t h = 1; h < hop_first.size(); ++h) {
    hop_first[h] += hop_first[h - 1];
  }
  auto& by_hops = sc.by_hops;
  by_hops.assign((num_distinct + kLanes - 1) / kLanes * kLanes,
                 static_cast<std::int32_t>(num_distinct));
  for (std::size_t d = 0; d < num_distinct; ++d) {
    by_hops[hop_first[distinct[d].size()]++] = static_cast<std::int32_t>(d);
  }
  sc.lane_edges.clear();
  sc.block_first.assign(1, 0);
  for (std::size_t first = 0; first < by_hops.size(); first += kLanes) {
    const std::size_t last = std::min(first + kLanes, num_distinct) - 1;
    const std::size_t hops =
        distinct[static_cast<std::size_t>(by_hops[last])].size();
    for (std::size_t h = 0; h < hops; ++h) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t d = static_cast<std::size_t>(by_hops[first + l]);
        sc.lane_edges.push_back(d < num_distinct && h < distinct[d].size()
                                    ? distinct[d][h]
                                    : static_cast<int>(m));
      }
    }
    sc.block_first.push_back(static_cast<std::int64_t>(sc.lane_edges.size()));
  }
  sc.path_len.assign(num_distinct + 1, 0.0);
  sc.lengths.assign(m + 1, 0.0);  // lengths[m]: the padding edge's +0.0

  // The footprint in increasing edge id, so that every sum over it runs in
  // the order of a serial sum over all m edges.
  sc.in_cand.assign(m, 0);
  for (const auto path : distinct) {
    for (int e : path) sc.in_cand[static_cast<std::size_t>(e)] = 1;
  }
  sc.cand_edges.clear();
  for (std::size_t e = 0; e < m; ++e) {
    if (sc.in_cand[e]) sc.cand_edges.push_back(static_cast<int>(e));
  }
}

/// The router's best response to sc.lengths: per commodity its shortest
/// distinct candidate, written to sc.chosen[j] and sc.chosen_len[j].
void best_response(std::size_t k, MinCongestionScratch& sc) {
  // Every distinct path's length, kLanes paths at a time: each lane is
  // its own left-to-right addition chain from +0.0, so every sum is
  // bit-identical to a serial evaluation; the lanes only break the
  // latency dependence BETWEEN paths.
  const double* lengths = sc.lengths.data();
  const int* lane_edges = sc.lane_edges.data();
  const std::int32_t* owner = sc.by_hops.data();
  for (std::size_t b = 0; b + 1 < sc.block_first.size();
       ++b, owner += kLanes) {
    double sum[kLanes] = {};
    const int* stop = lane_edges + sc.block_first[b + 1];
    for (const int* hop = lane_edges + sc.block_first[b]; hop != stop;
         hop += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        sum[l] += lengths[static_cast<std::size_t>(hop[l])];
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      sc.path_len[static_cast<std::size_t>(owner[l])] = sum[l];
    }
  }

  // Per commodity, the strict `<` argmin over its distinct paths in dedup
  // order, so ties resolve exactly as a serial scan of the candidates.
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t begin = static_cast<std::size_t>(sc.commodity_first[j]);
    const std::size_t end =
        static_cast<std::size_t>(sc.commodity_first[j + 1]);
    if (begin == end) continue;  // zero demand: no path, length 0
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_d = begin;
    for (std::size_t d = begin; d < end; ++d) {
      if (sc.path_len[d] < best) {
        best = sc.path_len[d];
        best_d = d;
      }
    }
    sc.chosen[j] = static_cast<std::int32_t>(best_d);
    sc.chosen_len[j] = best;
  }
}

/// Folds each usable row of `seed` (see MwuHooks::warm) into sc.weight,
/// scaled to its commodity's amount, and marks the commodity in sc.seeded;
/// sc.load gets the seeded flow.
void apply_seed(const std::vector<Commodity>& commodities,
                const FlatCandidates& candidates,
                const std::vector<std::vector<double>>& seed,
                MinCongestionScratch& sc) {
  std::size_t first_candidate = 0;  // commodity j's offset in distinct_of
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const std::size_t num_paths = candidates.num_paths(j);
    const std::vector<double>& row = seed[j];
    const std::size_t first = first_candidate;
    first_candidate += num_paths;
    if (commodities[j].amount <= 0.0 || row.size() != num_paths) continue;
    double sum = 0.0;
    bool usable = true;
    for (double w : row) {
      usable = usable && std::isfinite(w) && w >= 0.0;
      sum += w;
    }
    if (!usable || !(sum > 0.0) || !std::isfinite(sum)) continue;
    for (std::size_t i = 0; i < num_paths; ++i) {
      sc.weight[static_cast<std::size_t>(sc.distinct_of[first + i])] += row[i];
    }
    const double scale = commodities[j].amount / sum;
    const std::size_t begin = static_cast<std::size_t>(sc.commodity_first[j]);
    const std::size_t end =
        static_cast<std::size_t>(sc.commodity_first[j + 1]);
    for (std::size_t d = begin; d < end; ++d) {
      sc.weight[d] *= scale;
      for (int e : sc.distinct[d]) {
        sc.load[static_cast<std::size_t>(e)] += sc.weight[d];
      }
    }
    sc.seeded[j] = 1;
  }
}

/// Milliseconds on the wall clock, the deadline's default time source.
class SteadyClock final : public SolveClock {
 public:
  double now_ms() override {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

void MinCongestionScratch::reserve(std::size_t paths, std::size_t edges,
                                   std::size_t max_hops) {
  distinct.reserve(paths);
  original_index.reserve(paths);
  distinct_of.reserve(paths);
  hop_first.reserve(max_hops + 2);
  by_hops.reserve(paths + kLanes);
  // Blocks are hop-sorted, so their padding adds at most kLanes * max_hops.
  lane_edges.reserve(edges + kLanes * max_hops);
  block_first.reserve(paths / kLanes + 2);
  path_len.reserve(paths + 1);
  weight.reserve(paths);
}

// ---- the Frank–Wolfe loop --------------------------------------------------
// The iteration is documented on min_congestion_over_paths (the flat
// overload). Against the textbook loop over all m edges
// (tests/test_restricted_reference.cpp) every shortcut below is
// bit-identical, except the segmented total documented there:
//  * an edge off the footprint has F = B = 0, so its terms of G, kappa,
//    the flow step and U are +0.0 (or a max against 0.0), which leave IEEE
//    doubles bit-unchanged; the footprint is walked in increasing edge id,
//    the order of the textbook's serial sums;
//  * B is summed densely, each chosen path adding its amount in commodity
//    order as the textbook does, and reset to 0 over the footprint by the
//    pass that last reads it: the step, or a pass of its own in a round
//    that takes none (the entry round, sigma == 0);
//  * each quotient is computed once and stored: x_e / total in expv (the
//    lengths and the curvature read it, since x / total / cap and
//    x / total * q parse as (x / total) / cap and (x / total) * q), and
//    F_e / cap_e in ratio, written with the congestion max by the pass
//    that moves F and read by the next round's exps;
//  * a step with sigma == 0 is skipped: F + 0 * (B - F) and w * (1 - 0)
//    are F and w, so U and ratio stay current.
void min_congestion_over_paths_into(const Graph& g,
                                    const std::vector<Commodity>& commodities,
                                    const FlatCandidates& candidates,
                                    const MinCongestionOptions& options,
                                    const MwuHooks& hooks,
                                    MinCongestionScratch& sc,
                                    CongestionResult& out) {
  if (options.rounds < 1) {
    throw std::invalid_argument(
        "min_congestion_over_paths: rounds must be >= 1, got " +
        std::to_string(options.rounds));
  }
  assert(candidates.num_commodities() == commodities.size());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = commodities.size();
  out.edge_load.assign(m, 0.0);
  out.congestion = 0.0;
  out.lower_bound = 0.0;
  out.rounds_used = 0;
  out.status = SolveStatus::kCompleted;
  out.optimality_gap = 0.0;
  resize_keeping_buffers(out.path_weights, k, sc.spare_weights);
  for (std::size_t j = 0; j < k; ++j) {
    out.path_weights[j].assign(candidates.num_paths(j), 0.0);
  }
  if (k == 0 || m == 0) return;

  // Dense capacity array (the Edge structs are 3x wider than needed here).
  auto& cap = sc.cap;
  cap.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    cap[e] = g.edge(static_cast<int>(e)).capacity;
  }
  prepare_candidates(commodities, candidates, sc);
  const std::size_t num_distinct = sc.distinct.size();

  // ---- Frank–Wolfe state (scratch-backed; assign/clear keep capacity) ----
  auto& load = sc.load;
  auto& response = sc.response;
  auto& expv = sc.expv;
  auto& lengths = sc.lengths;
  auto& ratio = sc.ratio;
  auto& weight = sc.weight;
  const auto& footprint = sc.cand_edges;
  load.assign(m, 0.0);
  response.assign(m, 0.0);
  expv.assign(m, 0.0);
  ratio.assign(m, 0.0);
  weight.assign(num_distinct, 0.0);
  sc.seeded.assign(k, 0);
  if (hooks.warm != nullptr && hooks.warm->size() == k) {
    apply_seed(commodities, candidates, *hooks.warm, sc);
  }

  const double log_m = std::log(static_cast<double>(m) + 2.0);
  const double eps_floor = std::max(0.01, log_m / 700.0);
  const double others = static_cast<double>(m - footprint.size());
  double eps = 1.0;
  double congestion = 0.0;  // U of the current iterate
  for (int e : footprint) {
    const auto i = static_cast<std::size_t>(e);
    ratio[i] = load[i] / cap[i];
    congestion = std::max(congestion, ratio[i]);
  }
  // The last round's softmax normalization, kept for the length capture.
  double shared = 1.0;
  double total = static_cast<double>(m);
  double best_lower = 0.0;

  // The limits: a round cap, a gap bar and a deadline; nothing derives
  // from the cap, so a capped solve walks a prefix of a longer one. The
  // clock is only read when a deadline is set.
  SteadyClock steady;
  SolveClock& clock = hooks.clock != nullptr ? *hooks.clock : steady;
  const double start_ms = options.deadline_ms > 0.0 ? clock.now_ms() : 0.0;
  SolveStatus status = SolveStatus::kCompleted;

  int round = 0;
  while (round < options.rounds) {
    // Lengths: the gradient of Phi at the current flow. With no flow yet
    // (a cold round 0) every x_e is exp(0) = 1.
    const double beta = congestion > 0.0 ? log_m / (eps * congestion) : 0.0;
    shared = std::exp(-beta * congestion);
    double footprint_sum = 0.0;
    for (int e : footprint) {
      const auto i = static_cast<std::size_t>(e);
      expv[i] = std::exp(beta * (ratio[i] - congestion));
      footprint_sum += expv[i];
    }
    total = others * shared + footprint_sum;
    for (int e : footprint) {
      const auto i = static_cast<std::size_t>(e);
      expv[i] /= total;
      lengths[i] = expv[i] / cap[i];
    }

    best_response(k, sc);

    // Dual certificate: opt >= sum_j d_j * dist(s_j,t_j) / sum_e cap_e * len_e
    // and sum_e cap_e * len_e == sum_e x_e / total == 1.
    double dual = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      dual += commodities[j].amount * sc.chosen_len[j];
    }
    best_lower = std::max(best_lower, dual);

    // The best response's flow B: each chosen path adds its amount.
    for (std::size_t j = 0; j < k; ++j) {
      if (sc.chosen[j] < 0) continue;
      const double amount = commodities[j].amount;
      for (int e : sc.distinct[static_cast<std::size_t>(sc.chosen[j])]) {
        response[static_cast<std::size_t>(e)] += amount;
      }
    }
    int response_edges = 0;  // amounts are > 0, so B_e != 0 iff B loads e
    if (hooks.sink != nullptr) {
      for (int e : footprint) {
        response_edges += response[static_cast<std::size_t>(e)] != 0.0;
      }
    }

    if (round == 0) {
      // Entry: every unseeded commodity routes whole on its response.
      for (std::size_t j = 0; j < k; ++j) {
        if (sc.chosen[j] < 0 || sc.seeded[j]) continue;
        const auto d = static_cast<std::size_t>(sc.chosen[j]);
        weight[d] += commodities[j].amount;
        for (int e : sc.distinct[d]) {
          load[static_cast<std::size_t>(e)] += commodities[j].amount;
        }
      }
      congestion = 0.0;
      for (int e : footprint) {
        const auto i = static_cast<std::size_t>(e);
        response[i] = 0.0;
        ratio[i] = load[i] / cap[i];
        congestion = std::max(congestion, ratio[i]);
      }
    } else {
      // The Frank–Wolfe gap, the quadratic model's curvature, the step.
      double fw_gap = 0.0;
      double curvature = 0.0;
      for (int e : footprint) {
        const auto i = static_cast<std::size_t>(e);
        fw_gap += lengths[i] * (load[i] - response[i]);
        const double q = (response[i] - load[i]) / cap[i];
        curvature += expv[i] * (q * q);
      }
      const double sigma =
          fw_gap > 0.0 ? std::min(1.0, fw_gap / (beta * curvature)) : 0.0;
      if (fw_gap <= 0.1 * eps * congestion) {
        eps = std::max(eps * 0.5, eps_floor);
      }
      if (sigma > 0.0) {
        congestion = 0.0;
        for (int e : footprint) {
          const auto i = static_cast<std::size_t>(e);
          load[i] += sigma * (response[i] - load[i]);
          response[i] = 0.0;
          ratio[i] = load[i] / cap[i];
          congestion = std::max(congestion, ratio[i]);
        }
        const double keep = 1.0 - sigma;
        for (double& w : weight) w *= keep;
        for (std::size_t j = 0; j < k; ++j) {
          if (sc.chosen[j] < 0) continue;
          weight[static_cast<std::size_t>(sc.chosen[j])] +=
              sigma * commodities[j].amount;
        }
      } else {
        // F did not move, so U and ratio are still current.
        for (int e : footprint) response[static_cast<std::size_t>(e)] = 0.0;
      }
    }
    ++round;

    // Observation and stops read the iterate this round left.
    if (hooks.sink != nullptr) {
      hooks.sink->record({round, congestion, dual, best_lower,
                          certified_gap(congestion, best_lower),
                          response_edges});
    }
    if (best_lower > 0.0 && congestion <= best_lower * options.target_gap) {
      status = SolveStatus::kTargetReached;
      break;
    }
    if (options.deadline_ms > 0.0 && round % kDeadlineCheckRounds == 0 &&
        clock.now_ms() - start_ms >= options.deadline_ms) {
      status = SolveStatus::kBudgetDeadline;
      break;
    }
  }

  // The weights over the ORIGINAL candidate indexing (duplicates keep their
  // reset weight: 0); the returned loads and congestion are those of
  // exactly these weights.
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t begin = static_cast<std::size_t>(sc.commodity_first[j]);
    const std::size_t end =
        static_cast<std::size_t>(sc.commodity_first[j + 1]);
    for (std::size_t d = begin; d < end; ++d) {
      out.path_weights[j][static_cast<std::size_t>(sc.original_index[d])] =
          weight[d];
    }
  }
  out.congestion = congestion_of_weights(g, commodities, candidates,
                                         out.path_weights, &out.edge_load);
  out.lower_bound = best_lower;
  out.rounds_used = round;
  out.status = status;
  out.optimality_gap = certified_gap(out.congestion, out.lower_bound);

  if (hooks.capture_lengths != nullptr) {
    auto& captured = *hooks.capture_lengths;
    captured.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
      captured[e] = round > 0 && sc.in_cand[e] ? lengths[e]
                                               : shared / total / cap[e];
    }
  }
}

CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates, const MinCongestionOptions& options) {
  MinCongestionScratch scratch;
  CongestionResult result;
  min_congestion_over_paths_into(g, commodities, candidates, options, {},
                                 scratch, result);
  return result;
}

CongestionResult min_congestion_over_paths(
    const Graph& g, const std::vector<Commodity>& commodities,
    const std::vector<std::vector<Path>>& candidate_paths,
    const MinCongestionOptions& options) {
  assert(candidate_paths.size() == commodities.size());
  // One edge resolution per hop, here and never again: the solve itself
  // runs on the flat representation.
  return min_congestion_over_paths(
      g, commodities, flatten_candidates(g, candidate_paths), options);
}

namespace {

// Column generation's two constants: the master solves' round cap and the
// iteration cap (min_congestion_by_columns_into).
constexpr int kMasterRounds = 50;
constexpr int kMaxIterations = 16;

/// Rebuilds sc.columns with each commodity's priced path appended when it
/// is not yet one of its columns; returns whether any was.
bool append_new_columns(ColumnGenerationScratch& sc) {
  bool added = false;
  sc.next.clear();
  for (std::size_t j = 0; j < sc.columns.num_commodities(); ++j) {
    for (std::size_t i = 0; i < sc.columns.num_paths(j); ++i) {
      sc.next.add_path(sc.columns.edges(j, i));
    }
    if (sc.priced.num_paths(j) > 0) {
      const auto path = sc.priced.edges(j, 0);
      bool known = false;
      for (std::size_t i = 0; i < sc.columns.num_paths(j) && !known; ++i) {
        known = std::ranges::equal(path, sc.columns.edges(j, i));
      }
      if (!known) {
        sc.next.add_path(path);
        added = true;
      }
    }
    sc.next.end_commodity();
  }
  std::swap(sc.columns, sc.next);
  return added;
}

}  // namespace

void min_congestion_by_columns_into(const Graph& g,
                                    const std::vector<Commodity>& commodities,
                                    const MinCongestionOptions& options,
                                    ColumnPricer& pricer,
                                    ColumnGenerationScratch& sc,
                                    CongestionResult& out) {
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  auto& lengths = sc.lengths;
  lengths.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    lengths[e] = 1.0 / g.edge(static_cast<int>(e)).capacity;
  }
  // Under lengths 1/cap_e, sum_e cap_e * len_e is m: the distance bound.
  sc.columns.clear();
  const double first_numerator = pricer.price(lengths, sc.columns);
  double lower = m > 0 ? first_numerator / static_cast<double>(m) : 0.0;

  // Size every buffer once for the columns to come (the weight rows after
  // each master solve, which sizes them): a commodity ends with at most
  // 1 + kMaxIterations columns, and a column seldom runs past twice the
  // length of the first, shortest ones (a headroom, not a bound: past it
  // the edge buffers still grow). A pricing round's paths are shortest
  // under positive lengths, so simple: k * (n - 1) edges bound them, and
  // that bound is reserved up to the columns' own reservation.
  const std::size_t k = commodities.size();
  const std::size_t max_columns = k * (1 + kMaxIterations);
  const std::size_t first_edges = sc.columns.total_edges();
  const std::size_t max_edges = 2 * (1 + kMaxIterations) * first_edges;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t priced_edges = k * (n > 0 ? n - 1 : 0);
  sc.columns.reserve(max_columns, max_edges, k);
  sc.next.reserve(max_columns, max_edges, k);
  sc.priced.reserve(k, std::min(priced_edges, max_edges), k);
  sc.mwu.reserve(max_columns, max_edges, n);

  MinCongestionOptions master = options;
  master.rounds = std::min(options.rounds, kMasterRounds);
  // The first master solve runs cold. Each later one, and the final solve,
  // starts from the weights of the one before, padded with 0 for the
  // columns appended since (columns are only appended, so every old index
  // still names its path).
  MwuHooks hooks{.warm = nullptr, .capture_lengths = &lengths};
  const int iterations = commodities.empty() || m == 0 ? 0 : kMaxIterations;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    min_congestion_over_paths_into(g, commodities, sc.columns, master, hooks,
                                   sc.mwu, out);
    for (auto& row : out.path_weights) row.reserve(1 + kMaxIterations);

    // Price under the solve's final lengths.
    double denominator = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      denominator += g.edge(static_cast<int>(e)).capacity * lengths[e];
    }
    sc.priced.clear();
    const double numerator = pricer.price(lengths, sc.priced);
    if (denominator > 0.0) lower = std::max(lower, numerator / denominator);
    const bool added = append_new_columns(sc);
    std::swap(sc.weights, out.path_weights);
    for (std::size_t j = 0; j < k; ++j) {
      sc.weights[j].resize(sc.columns.num_paths(j), 0.0);
    }
    hooks.warm = &sc.weights;
    if (!added || out.congestion <= lower * options.target_gap) break;
  }

  min_congestion_over_paths_into(g, commodities, sc.columns, options,
                                 MwuHooks{.warm = hooks.warm}, sc.mwu, out);
  out.lower_bound = lower;
  out.optimality_gap = certified_gap(out.congestion, lower);
}

namespace {

/// The exact LPs are feasible and bounded, so any other status is the
/// simplex failing numerically; never pass its output off as the optimum.
void throw_unless_optimal(const LpSolution& solution, const char* who) {
  if (solution.status != LpStatus::kOptimal) {
    throw std::runtime_error(std::string(who) +
                             ": the dense simplex found no optimal basis");
  }
}

}  // namespace

CongestionResult min_congestion_over_paths_exact(
    const Graph& g, const std::vector<Commodity>& commodities,
    const FlatCandidates& candidates) {
  assert(candidates.num_commodities() == commodities.size());
  const std::size_t k = commodities.size();

  // Variables: one weight per (commodity, candidate path), then t (the
  // congestion bound) last.
  std::vector<std::size_t> var_offset(k, 0);
  std::size_t num_path_vars = 0;
  for (std::size_t j = 0; j < k; ++j) {
    var_offset[j] = num_path_vars;
    num_path_vars += candidates.num_paths(j);
  }
  const std::size_t t_var = num_path_vars;

  LinearProgram lp;
  lp.objective.assign(num_path_vars + 1, 0.0);
  lp.objective[t_var] = 1.0;

  // Demand satisfaction: sum_i w_{j,i} = d_j.
  for (std::size_t j = 0; j < k; ++j) {
    if (commodities[j].amount <= 0.0) continue;
    std::vector<double> row(num_path_vars + 1, 0.0);
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      row[var_offset[j] + i] = 1.0;
    }
    lp.add_constraint(std::move(row), Relation::kEqual, commodities[j].amount);
  }

  // Capacity: sum over paths using e of w - cap_e * t <= 0.
  std::vector<std::vector<std::pair<std::size_t, double>>> edge_terms(
      static_cast<std::size_t>(g.num_edges()));
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      for (int e : candidates.edges(j, i)) {
        edge_terms[static_cast<std::size_t>(e)].emplace_back(
            var_offset[j] + i, 1.0);
      }
    }
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& terms = edge_terms[static_cast<std::size_t>(e)];
    if (terms.empty()) continue;
    std::vector<double> row(num_path_vars + 1, 0.0);
    for (const auto& [var, coef] : terms) row[var] += coef;
    row[t_var] = -g.edge(e).capacity;
    lp.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }

  const LpSolution solution = solve(lp);
  throw_unless_optimal(solution, "min_congestion_over_paths_exact");

  CongestionResult result;
  result.path_weights.assign(k, {});
  for (std::size_t j = 0; j < k; ++j) {
    result.path_weights[j].assign(candidates.num_paths(j), 0.0);
    for (std::size_t i = 0; i < candidates.num_paths(j); ++i) {
      result.path_weights[j][i] = solution.x[var_offset[j] + i];
    }
  }
  result.congestion = congestion_of_weights(
      g, commodities, candidates, result.path_weights, &result.edge_load);
  result.lower_bound = solution.objective;
  return result;
}

double min_congestion_free_exact(const Graph& g,
                                 const std::vector<Commodity>& commodities) {
  // Edge-flow formulation with directed arc variables per commodity:
  // f_{j,a} >= 0 for both orientations a of every edge, conservation at all
  // vertices (net outflow d_j at s_j, -d_j at t_j, 0 elsewhere), capacity
  // sum_j (f_{j,e+} + f_{j,e-}) <= cap_e * t; minimize t.
  const std::size_t k = commodities.size();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t vars_per_commodity = 2 * m;
  const std::size_t t_var = k * vars_per_commodity;

  LinearProgram lp;
  lp.objective.assign(t_var + 1, 0.0);
  lp.objective[t_var] = 1.0;

  auto arc_var = [&](std::size_t j, std::size_t e, bool forward) {
    return j * vars_per_commodity + 2 * e + (forward ? 0 : 1);
  };

  for (std::size_t j = 0; j < k; ++j) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      std::vector<double> row(t_var + 1, 0.0);
      bool nonzero = false;
      for (int eid : g.incident(v)) {
        const Edge& e = g.edge(eid);
        const std::size_t se = static_cast<std::size_t>(eid);
        // Forward arc u->v direction of the edge as stored.
        if (e.u == v) {
          row[arc_var(j, se, true)] += 1.0;   // leaves v
          row[arc_var(j, se, false)] -= 1.0;  // enters v
        } else {
          row[arc_var(j, se, true)] -= 1.0;
          row[arc_var(j, se, false)] += 1.0;
        }
        nonzero = true;
      }
      double rhs = 0.0;
      if (v == commodities[j].s) rhs = commodities[j].amount;
      if (v == commodities[j].t) rhs = -commodities[j].amount;
      if (!nonzero && rhs == 0.0) continue;
      lp.add_constraint(std::move(row), Relation::kEqual, rhs);
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    std::vector<double> row(t_var + 1, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      row[arc_var(j, e, true)] = 1.0;
      row[arc_var(j, e, false)] = 1.0;
    }
    row[t_var] = -g.edge(static_cast<int>(e)).capacity;
    lp.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }

  const LpSolution solution = solve(lp);
  throw_unless_optimal(solution, "min_congestion_free_exact");
  return solution.objective;
}

}  // namespace sor

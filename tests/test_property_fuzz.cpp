// Randomized cross-module property tests ("fuzz" sweeps): each test draws
// many random instances and checks an invariant that must hold exactly,
// regardless of the draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/demand.h"
#include "core/path_system.h"
#include "core/semi_oblivious.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/shortest_path.h"
#include "io/demand_stream.h"
#include "io/scenario_io.h"
#include "io/serialization.h"
#include "oblivious/shortest_path_routing.h"
#include "runtime/alloc_stats.h"
#include "scenario/scenario.h"

namespace sor {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ull + 1};
};

TEST_P(FuzzSweep, SimplifyWalkInvariants) {
  // Any walk over any alphabet: output is simple, keeps endpoints, and
  // every consecutive output pair was consecutive somewhere in a valid
  // traversal sense (subsequence of collapses). We check the first three.
  for (int trial = 0; trial < 200; ++trial) {
    const int len = rng_.uniform_int(1, 20);
    Path walk;
    walk.push_back(rng_.uniform_int(0, 5));
    for (int i = 1; i < len; ++i) {
      walk.push_back(rng_.uniform_int(0, 5));
    }
    const Path simple = simplify_walk(walk);
    ASSERT_FALSE(simple.empty());
    EXPECT_EQ(simple.front(), walk.front());
    EXPECT_EQ(simple.back(), walk.back());
    std::set<int> seen(simple.begin(), simple.end());
    EXPECT_EQ(seen.size(), simple.size());
    // All output vertices appeared in the input.
    for (int v : simple) {
      EXPECT_NE(std::find(walk.begin(), walk.end(), v), walk.end());
    }
    // And it is exactly the textbook cut: a repeated vertex truncates the
    // path back to its first occurrence.
    Path textbook;
    for (int v : walk) {
      const auto seen_at = std::find(textbook.begin(), textbook.end(), v);
      if (seen_at == textbook.end()) {
        textbook.push_back(v);
      } else {
        textbook.erase(seen_at + 1, textbook.end());
      }
    }
    EXPECT_EQ(simple, textbook);
  }
}

TEST_P(FuzzSweep, MaxFlowDualityAndSymmetry) {
  const Graph g = gen::erdos_renyi_connected(10, 0.35, rng_);
  for (int trial = 0; trial < 5; ++trial) {
    const int s = rng_.uniform_int(0, 9);
    int t = rng_.uniform_int(0, 9);
    if (s == t) continue;
    std::vector<char> side;
    const double flow = min_cut(g, s, t, &side);
    // Flow equals the capacity of the returned cut (strong duality).
    EXPECT_NEAR(g.boundary_capacity(side), flow, 1e-7);
    // Undirected max flow is symmetric.
    EXPECT_NEAR(max_flow(g, t, s), flow, 1e-7);
    // Flow is bounded by both endpoint degrees (capacity 1 edges).
    EXPECT_LE(flow, std::min(g.degree(s), g.degree(t)) + 1e-9);
  }
}

TEST_P(FuzzSweep, RoutingConservesDemand) {
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng_);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(12, 5, rng_, 1.5);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 3, support_pairs(d), rng_);
  const auto solution = route_fractional(g, ps, d);
  // Per-commodity conservation and global load accounting:
  // sum_e load_e == sum_j amount_j * hops(weighted avg path).
  double expected_load = 0.0;
  for (std::size_t j = 0; j < solution.commodities.size(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < solution.weights[j].size(); ++i) {
      sum += solution.weights[j][i];
      expected_load += solution.weights[j][i] *
                       static_cast<double>(solution.candidates.edges(j, i).size());
    }
    EXPECT_NEAR(sum, solution.commodities[j].amount, 1e-7);
  }
  double total_load = 0.0;
  for (double l : solution.edge_load) total_load += l;
  EXPECT_NEAR(total_load, expected_load, 1e-6);
}

TEST_P(FuzzSweep, OptimalCongestionCertificatesOrdered) {
  const Graph g = gen::erdos_renyi_connected(10, 0.4, rng_);
  const Demand d = gen::random_pairs_demand(10, 4, rng_);
  if (d.empty()) return;
  MinCongestionOptions options;
  options.rounds = 300;
  const auto opt = optimal_congestion(g, d, options);
  EXPECT_LE(opt.lower, opt.upper + 1e-9);
  EXPECT_GE(opt.lower, 0.0);
  // The distance bound is also below the feasible upper bound.
  EXPECT_LE(distance_lower_bound(g, d), opt.upper + 1e-9);
}

TEST_P(FuzzSweep, GraphIoRoundTrip) {
  const Graph g = gen::erdos_renyi_connected(8, 0.4, rng_);
  std::stringstream buffer;
  io::write_graph(buffer, g);
  const auto loaded = io::read_graph(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).u, g.edge(e).u);
    EXPECT_EQ(loaded->edge(e).v, g.edge(e).v);
  }
}

TEST_P(FuzzSweep, PathSystemIoRoundTrip) {
  const Graph g = gen::erdos_renyi_connected(9, 0.4, rng_);
  RandomShortestPathRouting routing(g);
  const Demand d = gen::random_pairs_demand(9, 4, rng_);
  if (d.empty()) return;
  const PathSystem ps =
      sample_path_system(routing, 2, support_pairs(d), rng_);
  std::stringstream buffer;
  io::write_path_system(buffer, ps);
  const auto loaded = io::read_path_system(buffer, g);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_paths(), ps.total_paths());
  EXPECT_EQ(loaded->sparsity(), ps.sparsity());
}

TEST_P(FuzzSweep, ShortestPathSamplerAlwaysTight) {
  const Graph g = gen::random_regular(14, 4, rng_);
  ShortestPathSampler sampler(g);
  for (int trial = 0; trial < 20; ++trial) {
    const int s = rng_.uniform_int(0, 13);
    int t = rng_.uniform_int(0, 13);
    if (s == t) continue;
    const Path p = sampler.sample(s, t, rng_);
    EXPECT_TRUE(is_valid_path(g, p, s, t));
    EXPECT_EQ(hop_count(p), sampler.hop_distance(s, t));
  }
}

// ---- reader mutation fuzzing ----------------------------------------------
// Every src/io reader gets a serialized valid instance and a few hundred
// seeded mutations of it: a byte flip, a deleted or duplicated span, a
// truncation, or a number replaced by nan, inf, -1 or 1e400. A read must
// return (nullopt or a value) or throw the exception type its header
// documents; any other exception, an assert or a sanitizer report is a
// reader bug.

/// The [begin, end) spans of the numbers in `text`: maximal runs of digits
/// and dots that hold a digit.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(
    const std::string& text) {
  const auto numeric = [](char c) {
    return (c >= '0' && c <= '9') || c == '.';
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    if (!numeric(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    bool digit = false;
    for (; end < text.size() && numeric(text[end]); ++end) {
      digit = digit || text[end] != '.';
    }
    if (digit) spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

/// One seeded mutation of a nonempty `text`.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(out.size()) - 1));
  const std::size_t len = std::min(
      static_cast<std::size_t>(rng.uniform_int(1, 8)), out.size() - pos);
  switch (rng.uniform_int(0, 4)) {
    case 0:  // byte flip
      out[pos] = static_cast<char>(out[pos] ^ rng.uniform_int(1, 255));
      break;
    case 1:  // deletion
      out.erase(pos, len);
      break;
    case 2:  // duplication
      out.insert(pos, out.substr(pos, len));
      break;
    case 3:  // truncation
      out.resize(pos);
      break;
    default: {  // a number replaced
      static const char* const kNumbers[] = {"nan", "inf", "-1", "1e400"};
      const auto spans = number_spans(out);
      if (spans.empty()) break;
      const auto [begin, end] = spans[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(spans.size()) - 1))];
      out.replace(begin, end - begin, kNumbers[rng.uniform_int(0, 3)]);
    }
  }
  return out;
}

/// One reader under test: a serialized valid instance and a read of any
/// text, which returns whether it produced a value and may throw
/// std::invalid_argument iff its header says so.
struct Reader {
  const char* name;
  std::string valid;
  std::function<bool(std::istream&)> read;
  bool throws_invalid_argument = false;
};

/// Reads `text`; true iff the read produced a value.
bool expect_read_survives(const Reader& reader, const std::string& text) {
  std::istringstream in(text);
  try {
    return reader.read(in);
  } catch (const std::invalid_argument& e) {
    if (!reader.throws_invalid_argument) {
      ADD_FAILURE() << reader.name << " threw " << e.what() << " on:\n"
                    << text;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader.name << " threw " << e.what() << " on:\n"
                  << text;
  }
  return false;
}

/// A small graph with parallel edges and capacities drawn from (0.5, 4).
Graph capacitated_graph(Rng& rng) {
  const Graph base = gen::erdos_renyi_connected(9, 0.4, rng);
  Graph g(base.num_vertices());
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, rng.uniform_double(0.5, 4.0));
    if (rng.bernoulli(0.2)) g.add_edge(e.u, e.v, rng.uniform_double(0.5, 4.0));
  }
  return g;
}

/// Up to `pairs` random pairs of n vertices, amounts drawn from (0.1, 3).
Demand random_amounts_demand(int n, int pairs, Rng& rng) {
  Demand d;
  for (int i = 0; i < pairs; ++i) {
    const int s = rng.uniform_int(0, n - 1);
    const int t = rng.uniform_int(0, n - 1);
    if (s != t) d.set(s, t, rng.uniform_double(0.1, 3.0));
  }
  return d;
}

std::vector<Reader> readers(const Graph& g, Rng& rng) {
  const int n = g.num_vertices();
  std::ostringstream graph_text;
  io::write_graph(graph_text, g);

  std::ostringstream demand_text;
  io::write_demand(demand_text, random_amounts_demand(n, 6, rng));

  RandomShortestPathRouting routing(g);
  const Demand pairs = random_amounts_demand(n, 4, rng);
  std::ostringstream paths_text;
  io::write_path_system(
      paths_text, sample_path_system(routing, 2, support_pairs(pairs), rng));

  scenario::ScenarioSpec spec = *scenario::scenario_preset("failover");
  spec.solve = {.rounds = 40, .target_gap = 1.05, .deadline_ms = 2.5};
  spec.warm_start = true;
  spec.events.push_back({.epoch = 3, .kind = scenario::LinkEvent::Kind::kScale,
                         .u = 2, .v = 3, .factor = 0.5});
  std::ostringstream scenario_text;
  io::write_scenario(scenario_text, spec);

  scenario::ScenarioTrace trace;
  for (int e = 0; e < 3; ++e) {
    trace.demands.push_back(random_amounts_demand(n, 4, rng));
  }
  trace.events = {{.epoch = 1, .u = 0, .v = 1},
                  {.epoch = 2, .kind = scenario::LinkEvent::Kind::kScale,
                   .u = 2, .v = 3, .factor = 0.25}};
  std::ostringstream trace_text;
  io::write_trace(trace_text, trace);

  std::ostringstream stream_text;
  stream_text << "# demand stream\n";
  for (int line = 0; line < 4; ++line) {
    const Demand d = random_amounts_demand(n, 3, rng);
    for (const auto& [pair, value] : d.entries()) {
      stream_text << pair.first << ' ' << pair.second << ' ' << value << "  ";
    }
    stream_text << "\n";
  }

  return {
      {"read_graph", graph_text.str(),
       [](std::istream& in) { return io::read_graph(in).has_value(); }},
      {"read_demand", demand_text.str(),
       [](std::istream& in) { return io::read_demand(in).has_value(); }},
      {"read_path_system", paths_text.str(),
       [&g](std::istream& in) {
         return io::read_path_system(in, g).has_value();
       }},
      {"read_scenario", scenario_text.str(),
       [](std::istream& in) { return io::read_scenario(in).has_value(); }},
      {"read_trace", trace_text.str(),
       [n](std::istream& in) { return io::read_trace(in, n).has_value(); }},
      {"DemandTextSource", stream_text.str(),
       [](std::istream& in) {
         io::DemandTextSource source(in);
         std::span<const DemandEntry> demand;
         while (source.next(demand)) {
         }
         return true;
       },
       /*throws_invalid_argument=*/true},
  };
}

TEST_P(FuzzSweep, ReadersSurviveMutatedInput) {
  const Graph g = capacitated_graph(rng_);
  for (const Reader& reader : readers(g, rng_)) {
    SCOPED_TRACE(reader.name);
    EXPECT_TRUE(expect_read_survives(reader, reader.valid));
    for (int trial = 0; trial < 300; ++trial) {
      expect_read_survives(reader, mutate(reader.valid, rng_));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 10));

// Inputs that once crashed a reader. The sweep above found the first: a
// churn knob of "inf" was cast to int (undefined behavior, reported by
// UBSan); "nan" knobs passed the range checks.
TEST(ReaderRegressions, NonFiniteOrOutOfRangeChurnIsRejected) {
  for (const char* churn :
       {"rate=0.5,down_factor=0.05,mean_outage=inf", "mean_outage=nan",
        "mean_outage=1e300", "rate=nan", "down_factor=inf"}) {
    SCOPED_TRACE(churn);
    std::istringstream in(std::string("scenario v1\nchurn ") + churn + "\n");
    EXPECT_FALSE(io::read_scenario(in).has_value());
  }
  std::istringstream in("scenario v1\nchurn mean_outage=2.5\n");
  const auto spec = io::read_scenario(in);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->churn.mean_outage, 2);
}

// Written cases: std::stod reads "nan" and "inf", and BackendSpec::parse
// kept them, so this scenario loaded and served 12 empty epochs, and
// racke:eta=inf reached the tree build. The one check in the spec parser
// covers backends, traffic models and churn.
TEST(ReaderRegressions, NonFiniteSpecValuesAreRejected) {
  for (const char* line :
       {"model diurnal_gravity:total=nan,amplitude=0.6,period=6",
        "model diurnal_gravity:total=32,amplitude=inf,period=6",
        "backend racke:eta=inf", "backend racke:eta=-inf"}) {
    SCOPED_TRACE(line);
    std::istringstream in(std::string("scenario v1\n") + line + "\n");
    EXPECT_FALSE(io::read_scenario(in).has_value());
  }
  std::istringstream in(
      "scenario v1\nmodel diurnal_gravity:total=16,amplitude=0.6,period=6\n"
      "backend racke:eta=4\n");
  EXPECT_TRUE(io::read_scenario(in).has_value());
}

// The solver's limits have one line, `solve`, parsed by
// MinCongestionOptions::parse: a cap below 1 or a non-finite value is
// refused there, and the retired `mwu_rounds` and `budget` keywords are
// unknown like any other.
TEST(ReaderRegressions, SolveLineIsTheOnlySolverKeyword) {
  for (const char* line : {"solve rounds=0", "solve deadline_ms=nan",
                           "solve target_gap=inf", "solve rounds=8 extra",
                           "mwu_rounds 8", "budget max_rounds=8"}) {
    SCOPED_TRACE(line);
    std::istringstream in(std::string("scenario v1\n") + line + "\n");
    EXPECT_FALSE(io::read_scenario(in).has_value());
  }
  std::istringstream in("scenario v1\nsolve rounds=8\n");
  const auto spec = io::read_scenario(in);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->solve, (MinCongestionOptions{.rounds = 8}));
}

// A written case: read_trace assigned the header's `epochs` count of empty
// demands before reading any, so these 25 bytes peaked at 186 MB.
TEST(ReaderRegressions, TraceHeaderCountIsNotPreallocated) {
  std::istringstream in("trace v1\nepochs 4000000");
  const runtime::AllocProbe probe;
  EXPECT_FALSE(io::read_trace(in, 0).has_value());
  if (runtime::counting_compiled()) {
    EXPECT_LT(probe.delta().alloc_bytes, std::uint64_t{1} << 20);
  }
}

// A written case: "3 3 3" is a valid path of no pair, and PathSystem's
// add_path asserts s != t, so a Debug build aborted on it.
TEST(ReaderRegressions, PathSystemSelfPairIsRejected) {
  const Graph g = gen::hypercube(2);
  std::istringstream valid("0 1 0 1\n");
  EXPECT_TRUE(io::read_path_system(valid, g).has_value());
  std::istringstream self_pair("0 1 0 1\n3 3 3\n");
  EXPECT_FALSE(io::read_path_system(self_pair, g).has_value());
}

}  // namespace
}  // namespace sor

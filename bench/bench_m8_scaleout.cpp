// Experiment M8 — scale-out routing: streaming million-entry demand
// epochs through aggregation across thread counts.
//
// A SyntheticEntrySource streams N single-pair demand entries (skewed
// draw from a fixed pool of P pairs, values in {1, 2}) straight into
// SorEngine::route_batch in aggregate-only mode — the batch is NEVER
// materialized, and the engine's working set is a function of the number
// of DISTINCT demands (<= 2P), not of N. Rows, canonical stage schema:
//
//   scaleout_route  one row per thread count over the SAME
//                   stream. ops = N entries, so ops_per_sec is the
//                   headline demands/sec (machine-dependent; the gate
//                   only requires it nonzero). speedup = the AGGREGATION
//                   FACTOR N / num_groups — deterministic for a fixed
//                   seed, so the baseline pins the coalescing behavior
//                   itself, immune to wall-clock noise. identical = the
//                   config's BatchReport (global loads, congestion,
//                   group counts) is bit-identical to the 1-thread
//                   reference — the scale-out determinism contract of
//                   api/sor_engine.h. The CI gate requires
//                   identical=yes on EVERY row of this phase.
//   scaleout_mem    RSS growth in MB across a measured re-run after a
//                   warm-up run (an m7-style value row): aggregate-only
//                   mode must hold memory flat in the stream length.
//                   Machine-dependent, so the gate allows slack
//                   (--mem-flat scaleout_mem:1.25:8.0).
//
// A row with identical=no is a bug, not a measurement.
//
//   bench_m8_scaleout [--quick] [--json PATH]
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "runtime/alloc_stats.h"
#include "scale/demand_source.h"

namespace {

using namespace sor;

/// Streams N single-pair entries from a fixed pair pool without ever
/// materializing them: entry i is a deterministic function of (seed, i),
/// so two sources with the same parameters produce the identical stream.
/// The pair index is min of two uniform draws — a skewed (triangular)
/// popularity profile, so hot pairs coalesce into heavy groups the way a
/// real ingestion feed's duplicates would.
class SyntheticEntrySource final : public scale::DemandSource {
 public:
  SyntheticEntrySource(std::span<const std::pair<int, int>> pool,
                       std::size_t count, std::uint64_t seed)
      : pool_(pool), count_(count), rng_(seed) {}

  bool next(std::span<const DemandEntry>& out) override {
    if (produced_ >= count_) return false;
    const std::uint64_t a = rng_.uniform_u64(pool_.size());
    const std::uint64_t b = rng_.uniform_u64(pool_.size());
    const auto& [s, t] = pool_[a < b ? a : b];
    entry_.s = s;
    entry_.t = t;
    entry_.value = rng_.bernoulli(0.5) ? 1.0 : 2.0;
    out = std::span<const DemandEntry>(&entry_, 1);
    ++produced_;
    return true;
  }

 private:
  std::span<const std::pair<int, int>> pool_;
  std::size_t count_ = 0;
  std::size_t produced_ = 0;
  Rng rng_;
  DemandEntry entry_;
};

/// P distinct ordered pairs over [0, n), deterministic per seed.
std::vector<std::pair<int, int>> make_pair_pool(int n, int count,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> pool;
  while (static_cast<int>(pool.size()) < count) {
    const int s = rng.uniform_int(0, n - 1);
    const int t = rng.uniform_int(0, n - 1);
    if (s == t) continue;
    const std::pair<int, int> p(s, t);
    bool seen = false;
    for (const auto& q : pool) seen = seen || q == p;
    if (!seen) pool.push_back(p);
  }
  return pool;
}

/// The mode-invariant outputs two configs must agree on, bit for bit.
bool batches_identical(const BatchReport& a, const BatchReport& b) {
  return a.num_demands == b.num_demands && a.num_groups == b.num_groups &&
         a.max_congestion == b.max_congestion &&
         a.max_competitive_ratio == b.max_competitive_ratio &&
         a.global_edge_load == b.global_edge_load &&
         a.global_congestion == b.global_congestion;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sor::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  banner("M8 — scale-out routing",
         "Streams a million-entry demand epoch (quick: 100k+) through the "
         "aggregate-only route_batch pipeline: speedup is the aggregation "
         "factor entries/groups (deterministic per seed), ops_per_sec the "
         "headline demands/sec, identical pins bit-identity of every "
         "thread count against the 1-thread reference, and scaleout_mem "
         "pins flat memory in the stream length.");

  const std::size_t entries = args.quick ? 120'000 : 1'200'000;
  const int dim = args.quick ? 6 : 7;
  const int pool_size = args.quick ? 96 : 256;
  const std::uint64_t pool_seed = 61, stream_seed = 67, engine_seed = 71;
  const std::string base = (args.quick ? "hypercube6-120k" : "hypercube7-1m");

  const Graph g = gen::hypercube(dim);
  const auto pool = make_pair_pool(g.num_vertices(), pool_size, pool_seed);

  // ONE engine for every config: set_threads() re-widens the pool between
  // runs, so the sweep also proves live re-threading of a warm engine.
  // Paths install once.
  SorEngine engine =
      SorEngine::build(gen::hypercube(dim), "racke:num_trees=4", engine_seed);
  {
    SamplingSpec sampling;
    sampling.alpha = args.quick ? 3 : 4;
    sampling.all_pairs = false;
    sampling.pairs = pool;
    engine.install_paths(sampling);
  }

  RouteSpec route_spec;
  route_spec.mwu.rounds = 60;
  BatchSpec lean;
  lean.keep_reports = false;
  lean.aggregate_duplicates = true;

  auto run_config = [&](int threads) {
    engine.set_threads(threads);
    SyntheticEntrySource source(pool, entries, stream_seed);
    return engine.route_batch(source, route_spec, lean);
  };

  Table table = stage_table();

  // Reference: serial. Its aggregation factor is the gated speedup on
  // every row (same stream => same factor for all configs).
  const auto ref_start = std::chrono::steady_clock::now();
  const BatchReport reference = run_config(1);
  const double ref_ms = ms_since(ref_start);
  const double agg_factor = static_cast<double>(reference.num_demands) /
                            static_cast<double>(reference.num_groups);
  std::printf(
      "%s: %zu entries -> %zu groups (aggregation factor %.1f), "
      "reference wall %.0f ms (%.0f demands/sec)\n",
      base.c_str(), reference.num_demands, reference.num_groups, agg_factor,
      ref_ms, reference.demands_per_sec());
  stage_row(table, "scaleout_route", base, 1, ref_ms,
            static_cast<int>(entries), agg_factor, "yes");

  // Thread sweep — every config must reproduce the reference bit for bit.
  for (int threads : {2, 4, 8}) {
    const auto start = std::chrono::steady_clock::now();
    const BatchReport run = run_config(threads);
    const double ms = ms_since(start);
    const bool same = batches_identical(reference, run);
    std::printf("  threads=%d: wall %.0f ms, identical=%s\n", threads, ms,
                same ? "yes" : "no");
    stage_row(table, "scaleout_route", base, threads, ms,
              static_cast<int>(entries), agg_factor, same ? "yes" : "no");
  }

  // Flat-memory gauge, m7 discipline: the configs above were the warm-up;
  // RSS growth across one more full streaming run must be ~0 (the whole
  // point of aggregate-only mode at 10^6 entries).
  {
    engine.set_threads(1);
    const std::size_t rss_before = runtime::rss_bytes();
    SyntheticEntrySource source(pool, entries, stream_seed);
    const BatchReport rerun = engine.route_batch(source, route_spec, lean);
    const std::size_t rss_after = runtime::rss_bytes();
    const double growth_mb =
        rss_after > rss_before
            ? static_cast<double>(rss_after - rss_before) / (1024.0 * 1024.0)
            : 0.0;
    std::printf("  measured re-run: rss growth %.2f MB, identical=%s\n",
                growth_mb, batches_identical(reference, rerun) ? "yes" : "no");
    value_row(table, "scaleout_mem", base, growth_mb,
              batches_identical(reference, rerun) ? "yes" : "no");
  }

  std::printf("\n");
  table.print();

  JsonSink sink(args.json_path);
  sink.add("m8_scaleout", table);
  sink.flush();
  return 0;
}

// SorEngine::route_batch — the scale-out batch pipeline.
//
// Three phases, with one determinism contract (see sor_engine.h):
//
//   1. Streaming ingest. Demands are pulled from the DemandSource one at
//      a time, validated (entry invariants + installed pairs — so a bad
//      batch still throws before ANY routing, like the span overload
//      always did), grouped by exact content in the engine's
//      BatchAggregator, and assigned one freshly-forked Rng stream each
//      in pull order. Nothing is materialized per demand beyond the
//      group index (and the streams, only when rounding needs them).
//   2. Chunked solves. The solve units — groups under aggregation,
//      individual demands otherwise — are processed in fixed-size chunks
//      through a ring of reused solve slots; within a chunk, units fan
//      out across the worker pool, each leasing scratch from the engine's
//      one scratch pool (scratch contents never influence results).
//   3. Canonical serial fold. After each chunk, the slots are folded —
//      in unit order, on the calling thread — into the global per-edge
//      load as multiplicity * load, one dense multiply-add per group
//      representative. Unit order visits representatives in first-seen
//      group order whether aggregation is on or off, so the fold's
//      floating-point sequence (and hence every output bit) is invariant
//      across aggregation modes, thread counts, and chunk boundaries.
//
// Graceful degradation (BatchSpec::on_error == kSkipAndReport): a demand
// that fails — during ingest (malformed entry, stream read error,
// uninstalled pair) or during its solve (organic or fault-injected worker
// exception, scratch acquisition failure) — becomes a DemandError record
// instead of unwinding the batch. The determinism contract extends to the
// degraded run:
//   * the engine still forks exactly one Rng stream per pull attempt
//     (poisoned pulls included), so the stream discipline is independent
//     of WHICH demands fail;
//   * solve-time failures are caught inside the worker and recorded during
//     the serial fold in unit order, never via the pool's exception path;
//   * failed/poisoned units fold ZERO load, so the surviving units' loads
//     are bit-identical across thread counts — and identical to a batch
//     that never contained the failed demands.
// Solve-site fault injection in the batch is keyed by the stable unit
// index (FaultPlan::fires), not a visit counter, for the same reason.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/sor_engine.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scale/demand_source.h"

namespace sor {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Solve-slot ring size: bounds retained RouteReport buffers in
/// aggregate-only mode (results never depend on it — the fold is in unit
/// order across chunk boundaries).
constexpr std::size_t kChunk = 256;

// Per solve-slot outcome of the current chunk.
constexpr char kSlotOk = 0;
constexpr char kSlotFailed = 1;    ///< solve threw; error captured
constexpr char kSlotPoisoned = 2;  ///< ingest-poisoned unit (raw mode)

}  // namespace

BatchReport SorEngine::route_batch(std::span<const Demand> demands,
                                   const RouteSpec& spec) {
  scale::SpanDemandSource source(demands);
  return route_batch(source, spec, BatchSpec{});
}

BatchReport SorEngine::route_batch(scale::DemandSource& source,
                                   const RouteSpec& spec,
                                   const BatchSpec& bspec) {
  if (!bspec.keep_reports && !bspec.aggregate_duplicates) {
    throw std::invalid_argument(
        "route_batch: aggregate-only mode (keep_reports=false) requires "
        "aggregate_duplicates=true — a raw batch without reports computes "
        "nothing the aggregated one does not");
  }
  if (spec.warm_start) {
    throw std::invalid_argument(
        "route_batch: warm_start is a serial route()/route_into() feature — "
        "batch demands have no epoch order for a previous-solve capture to "
        "be 'previous' in");
  }
  const bool needs_streams = spec.round_integral || spec.simulate_packets;
  if (bspec.aggregate_duplicates && needs_streams) {
    throw std::invalid_argument(
        "route_batch: aggregate_duplicates cannot combine with "
        "round_integral/simulate_packets — coalesced demands would lose "
        "their input-order Rng stream mapping (route duplicates raw, or "
        "round downstream)");
  }
  const PathSystem& ps = paths();  // std::logic_error before install_paths()
  obs::TraceSpan batch_span("batch", "batch");
  const auto start = Clock::now();
  const int n = graph_->num_vertices();
  const std::size_t num_edges =
      static_cast<std::size_t>(graph_->num_edges());
  const bool skip = bspec.on_error == OnError::kSkipAndReport;
  fault::FaultPlan* plan = active_fault_plan();

  BatchReport batch;
  batch.spec = bspec;

  // Checks each pulled demand's entry invariants in entry order, exactly
  // as the historical inline loop did; returns the first violation.
  auto validate =
      [&](std::span<const DemandEntry> es) -> std::optional<SorError> {
    const DemandEntry* prev = nullptr;
    for (const DemandEntry& e : es) {
      if (e.s < 0 || e.s >= n || e.t < 0 || e.t >= n || e.s == e.t ||
          !(e.value > 0.0) || !std::isfinite(e.value)) {
        std::ostringstream msg;
        msg << "route_batch: malformed demand entry (" << e.s << ", " << e.t
            << ") = " << e.value << " (need 0 <= s,t < " << n
            << ", s != t, value > 0)";
        return SorError(ErrorCode::kMalformedDemand, "route_batch", msg.str());
      }
      if (prev != nullptr &&
          !(std::pair(prev->s, prev->t) < std::pair(e.s, e.t))) {
        return SorError(
            ErrorCode::kMalformedDemand, "route_batch",
            "route_batch: DemandSource entries must be strictly increasing "
            "by (s, t)");
      }
      if (!ps.has_pair(e.s, e.t)) {
        std::ostringstream msg;
        msg << "SorEngine::route: demand pair (" << e.s << ", " << e.t
            << ") has no installed candidate paths; "
            << "install_paths() over the demand's support first";
        return SorError(ErrorCode::kUninstalledPair, "route_batch", msg.str());
      }
      prev = &e;
    }
    return std::nullopt;
  };

  // ---- Phase 1: streaming ingest + grouping ---------------------------
  // One stream per pulled demand, forked in pull order — ALWAYS, so the
  // engine stream evolves identically whatever the BatchSpec (the span
  // overload's historical split-per-demand behavior) and whichever
  // demands are poisoned. Stored only when rounding/simulation will draw
  // from it.
  auto fork_stream = [&] {
    if (needs_streams) {
      batch_streams_.push_back(rng_.fork());
    } else {
      (void)rng_.fork();
    }
  };
  // A poisoned pull occupies a demand slot: an error record and no group.
  auto poison = [&](ErrorCode code, const std::string& site,
                    const char* detail) {
    batch.errors.push_back({batch_unit_group_.size(), code, site, detail});
    batch_unit_group_.push_back(-1);
    ++batch.num_failed;
  };
  batch_agg_.reset();
  batch_streams_.clear();
  batch_unit_group_.clear();
  batch_group_first_.clear();
  std::span<const DemandEntry> entries;
  for (;;) {
    bool have = false;
    if (skip) {
      // A throwing pull still occupies a demand slot (error record, one
      // Rng fork) and the stream is re-pulled — sources advance past a
      // poisoned record, except truncation, which ends the stream.
      try {
        have = source.next(entries);
      } catch (const SorError& err) {
        poison(err.code(), err.site(), err.what());
        fork_stream();
        if (err.code() == ErrorCode::kStreamTruncated) break;
        continue;
      } catch (const std::exception& err) {
        poison(ErrorCode::kStreamRead, "demand_stream", err.what());
        fork_stream();
        continue;
      }
    } else {
      have = source.next(entries);
    }
    if (!have) break;
    std::optional<SorError> bad = validate(entries);
    if (bad && !skip) throw *bad;
    if (bad) {
      poison(bad->code(), bad->site(), bad->what());
    } else {
      const int g = batch_agg_.add(entries);
      batch_unit_group_.push_back(g);
      if (static_cast<std::size_t>(g) == batch_group_first_.size()) {
        batch_group_first_.push_back(
            static_cast<std::int64_t>(batch_unit_group_.size()) - 1);
      }
    }
    fork_stream();
  }

  const std::size_t num_demands = batch_unit_group_.size();
  const std::span<const scale::DemandGroup> groups = batch_agg_.groups();

  batch.num_demands = num_demands;
  batch.num_groups = groups.size();
  util::ThreadPool* workers = pool();
  batch.threads = workers ? workers->num_threads() : 1;
  batch.global_edge_load.assign(num_edges, 0.0);

  const bool agg = bspec.aggregate_duplicates;
  const std::size_t units = agg ? groups.size() : num_demands;
  if (bspec.keep_reports) batch.reports.resize(num_demands);
  if (agg && bspec.keep_reports) batch_group_reports_.resize(groups.size());

  const std::size_t slots = std::min(kChunk, std::max<std::size_t>(units, 1));
  if (batch_slot_demands_.size() < slots) batch_slot_demands_.resize(slots);
  if (batch_slot_reports_.size() < slots) batch_slot_reports_.resize(slots);
  if (batch_slot_state_.size() < slots) batch_slot_state_.resize(slots);
  if (batch_slot_errors_.size() < slots) batch_slot_errors_.resize(slots);

  // ---- Phase 2 + 3: chunked solves, canonical serial fold -------------
  for (std::size_t lo = 0; lo < units; lo += kChunk) {
    const std::size_t hi = std::min(units, lo + kChunk);
    auto solve_unit = [&](std::size_t k, std::size_t u, int g) {
      Demand& d = batch_slot_demands_[k];
      d.assign(batch_agg_.group_entries(g));
      // Fault sites inside the batch are keyed by the STABLE unit index
      // (never a visit counter), so which units fail is a pure function
      // of the plan — identical across thread counts.
      if (plan && plan->fires(fault::Site::kScratchAlloc, u)) {
        throw SorError(ErrorCode::kScratchAlloc, "scratch_pool",
                       "route_batch: injected scratch-arena allocation "
                       "failure (fault-plan site scratch_alloc)");
      }
      auto lease = scratch_pool_.acquire();
      if (plan && plan->fires(fault::Site::kWorkerThrow, u)) {
        throw SorError(ErrorCode::kWorkerFault, "worker",
                       "route_batch: injected worker fault (fault-plan site "
                       "worker_throw)");
      }
      if (needs_streams) {
        route_one_into(d, spec, batch_streams_[u], *lease,
                       batch_slot_reports_[k]);
      } else {
        Rng unused(0);  // the fractional stages draw nothing
        route_one_into(d, spec, unused, *lease, batch_slot_reports_[k]);
      }
    };
    auto solve = [&](std::size_t k) {
      const std::size_t u = lo + k;
      const int g = agg ? static_cast<int>(u) : batch_unit_group_[u];
      if (g < 0) {
        batch_slot_state_[k] = kSlotPoisoned;  // recorded during ingest
        return;
      }
      if (!skip) {
        batch_slot_state_[k] = kSlotOk;
        solve_unit(k, u, g);
        return;
      }
      // Degraded mode: capture the failure in the slot; the serial fold
      // below surfaces it in unit order (the pool never sees it).
      try {
        solve_unit(k, u, g);
        batch_slot_state_[k] = kSlotOk;
      } catch (const SorError& err) {
        batch_slot_state_[k] = kSlotFailed;
        batch_slot_errors_[k] = {0, err.code(), err.site(), err.what()};
      } catch (const std::exception& err) {
        batch_slot_state_[k] = kSlotFailed;
        batch_slot_errors_[k] =
            {0, ErrorCode::kWorkerFault, "worker", err.what()};
      }
    };
    if (workers) {
      workers->parallel_for(hi - lo, solve);
    } else {
      for (std::size_t k = 0; k < hi - lo; ++k) solve(k);
    }

    for (std::size_t k = 0; k < hi - lo; ++k) {
      const std::size_t u = lo + k;
      if (batch_slot_state_[k] == kSlotPoisoned) continue;
      const int g = agg ? static_cast<int>(u) : batch_unit_group_[u];
      if (batch_slot_state_[k] == kSlotFailed) {
        DemandError err = std::move(batch_slot_errors_[k]);
        // A failed unit is reported at its representative's pull index
        // and counts every member demand as failed.
        err.index = static_cast<std::size_t>(
            batch_group_first_[static_cast<std::size_t>(g)]);
        batch.errors.push_back(std::move(err));
        batch.num_failed += static_cast<std::size_t>(
            groups[static_cast<std::size_t>(g)].multiplicity);
        if (agg && bspec.keep_reports) {
          // The group-report cache persists across batches; a failed
          // group must not leak a stale report into de-aggregation.
          batch_group_reports_[static_cast<std::size_t>(g)] = RouteReport{};
        }
        continue;  // folds zero load; reports slot stays default
      }
      RouteReport& r = batch_slot_reports_[k];
      batch.max_congestion = std::max(batch.max_congestion, r.congestion);
      batch.max_competitive_ratio =
          std::max(batch.max_competitive_ratio, r.competitive_ratio);
      batch.total_route_ms += r.times.route_ms + r.times.lower_bound_ms +
                              r.times.optimum_ms + r.times.rounding_ms +
                              r.times.sim_ms;
      const scale::DemandGroup& group =
          groups[static_cast<std::size_t>(g)];
      // Fold exactly once per group, at its representative, in unit
      // order — the canonical sequence shared by every mode.
      if (agg || batch_group_first_[static_cast<std::size_t>(g)] ==
                     static_cast<std::int64_t>(u)) {
        const double m = static_cast<double>(group.multiplicity);
        const std::vector<double>& load = r.solution.edge_load;
        double* acc = batch.global_edge_load.data();
        const std::size_t count = std::min(num_edges, load.size());
        for (std::size_t e = 0; e < count; ++e) acc[e] += m * load[e];
      }
      if (bspec.keep_reports) {
        if (agg) {
          batch_group_reports_[static_cast<std::size_t>(g)] = std::move(r);
        } else {
          batch.reports[u] = std::move(r);
        }
      }
    }
  }

  if (agg && bspec.keep_reports) {
    // De-aggregation: demand i's report is a copy of its group's —
    // bit-identical to solving i directly, because with rounding and
    // simulation rejected the solve is a deterministic Rng-free function
    // of the demand content the group keys on. Poisoned demands (no
    // group) keep their default report.
    for (std::size_t i = 0; i < num_demands; ++i) {
      const std::int32_t g = batch_unit_group_[i];
      if (g < 0) continue;
      batch.reports[i] = batch_group_reports_[static_cast<std::size_t>(g)];
    }
  }

  // Ingest errors landed in pull order, solve errors in unit order; merge
  // into one index-sorted record stream (deterministic: indices from the
  // two phases never collide for the same failure).
  std::sort(batch.errors.begin(), batch.errors.end(),
            [](const DemandError& a, const DemandError& b) {
              return a.index < b.index;
            });

  for (std::size_t e = 0; e < num_edges; ++e) {
    batch.global_congestion =
        std::max(batch.global_congestion,
                 batch.global_edge_load[e] / graph_->edges()[e].capacity);
  }
  batch.wall_ms = ms_since(start);
  obs::ServiceCounters& counters = obs::service_counters();
  counters.batches.fetch_add(1, std::memory_order_relaxed);
  counters.batch_demands.fetch_add(batch.num_demands,
                                   std::memory_order_relaxed);
  counters.batch_failed.fetch_add(batch.num_failed, std::memory_order_relaxed);
  batch_span.set_arg("demands", batch.num_demands);
  return batch;
}

}  // namespace sor

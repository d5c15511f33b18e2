// MetricsRegistry + ServiceCounters — service-level metrics with
// Prometheus-style text exposition.
//
// Two halves, split by where the cost lands:
//
//  * ServiceCounters is the HOT half: a fixed struct of relaxed atomic
//    counters (plus one fixed-bucket latency histogram) bumped inline on
//    the serving paths — engine routes, batches, scenario epochs,
//    warm-start hits, fault fires. An uncontended relaxed fetch_add is a
//    few nanoseconds, never allocates, and never touches floating-point
//    solver state, so the counters are always on without violating the
//    zero-alloc steady state (bench_m7) or bit-identity. One process-wide
//    instance (service_counters()) so the fault layer and the scenario
//    runner can bump it without plumbing an engine through.
//  * MetricsRegistry is the COLD half: a snapshot container filled at
//    exposition time (SorEngine::metrics(), sor_cli --metrics-out).
//    Gauges carry a present flag — an unmeasured gauge (e.g. alloc
//    counters in a build without SOR_ALLOC_STATS, RSS on a platform
//    without /proc) is ABSENT from the exposition, never 0: a reader must
//    not mistake "cannot measure" for "measured zero".
//
// Exposition format: Prometheus text (# TYPE lines, histogram as
// cumulative _bucket{le="..."} series + _sum/_count). Doubles are
// rendered with the shared shortest-round-trip formatter
// (io::detail::format_double), so values round-trip exactly and the file
// is byte-stable for a fixed counter state.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sor::obs {

/// Fixed-bucket latency histogram with atomic counts (relaxed; totals are
/// exact, cross-bucket snapshots are not torn in practice because
/// exposition happens after serving quiesces). Bounds are milliseconds.
class LatencyHistogram {
 public:
  static constexpr int kNumBounds = 10;
  /// Upper bounds in ms; the implicit +Inf bucket follows.
  static const double kBoundsMs[kNumBounds];

  void observe_ms(double ms);
  void reset();

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Total observed milliseconds (accumulated in integer microseconds to
  /// keep the hot path free of atomic-double CAS loops).
  double sum_ms() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBounds + 1] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// The always-on counters of the serving process. Every field is a
/// monotonically increasing event count; reset() exists for tests and
/// bench harnesses that measure deltas.
struct ServiceCounters {
  std::atomic<std::uint64_t> routes_served{0};    ///< route/route_into calls
  std::atomic<std::uint64_t> mwu_rounds{0};       ///< restricted-solve rounds paid
  std::atomic<std::uint64_t> batches{0};          ///< route_batch calls
  std::atomic<std::uint64_t> batch_demands{0};    ///< demands pulled across batches
  std::atomic<std::uint64_t> batch_failed{0};     ///< demands skipped (on_error)
  std::atomic<std::uint64_t> installs{0};         ///< install_paths calls
  std::atomic<std::uint64_t> rebuilds{0};         ///< rebuild_backend calls
  std::atomic<std::uint64_t> capacity_edits{0};   ///< set_edge_capacity calls
  std::atomic<std::uint64_t> warm_hits{0};        ///< warm routes seeded by a capture
  std::atomic<std::uint64_t> warm_replays{0};     ///< bit-identical replays served
  std::atomic<std::uint64_t> warm_rounds_saved{0};///< restricted rounds warm starts saved
  std::atomic<std::uint64_t> scenario_epochs{0};  ///< scenario epochs served
  std::atomic<std::uint64_t> degraded_epochs{0};  ///< epochs served degraded
  std::atomic<std::uint64_t> scenario_reinstalls{0}; ///< epochs that reinstalled
  std::atomic<std::uint64_t> fault_fires{0};      ///< injected faults triggered

  LatencyHistogram route_ms;  ///< wall-ms per route_one_into call

  /// Zeroes every counter and the histogram (tests / delta measurement).
  void reset();
};

/// The process-wide counters (see the header comment for why global).
ServiceCounters& service_counters();

/// Snapshot container for exposition. Entries render in insertion order.
class MetricsRegistry {
 public:
  void counter(std::string name, std::uint64_t value, std::string help = "");
  void gauge(std::string name, double value, std::string help = "");
  /// Copies one histogram snapshot under `name` (Prometheus _bucket/_sum/
  /// _count series).
  void histogram(std::string name, const LatencyHistogram& h,
                 std::string help = "");

  /// True iff a counter or gauge entry with this exact name exists —
  /// tests assert unmeasured gauges ABSENT with this.
  bool has(const std::string& name) const;
  /// The value of a counter/gauge entry, or `fallback` if absent.
  double value_or(const std::string& name, double fallback) const;

  /// Prometheus text exposition (see header comment).
  void write_prometheus(std::ostream& out) const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind = Kind::kCounter;
    std::string name;
    std::string help;
    double value = 0.0;  ///< counter/gauge value
    // Histogram snapshot (kHistogram only).
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace sor::obs

// Deterministic fault injection.
//
// A FaultPlan names failure sites inside the serving pipeline and decides —
// as a pure function of (plan, site, visit index) — whether each visit
// fires an injected failure. Tests and CI exercise every recovery path
// reproducibly: the same plan string produces the same faults on every
// run and every thread count.
//
// Plan grammar (';' or ',' separated rules):
//
//   seed=S            seed for probabilistic rules (default 0)
//   <site>@K          fire exactly on the K-th visit (1-based)
//   <site>%N          fire on every N-th visit (1-based)
//   <site>~P          fire each visit with probability P, derived from a
//                     counter-mode hash of (seed, site, index) — fully
//                     deterministic for a fixed seed
//
// Sites: stream_read, stream_bitflip, edge_capacity, scratch_alloc,
//        worker_throw, io_truncate, install.
//
// Example: "seed=7;stream_bitflip@3;worker_throw%10;edge_capacity~0.01"
//
// Sites visited from parallel workers (worker_throw) are keyed by a stable
// work-item index via fires(site, index); serially visited sites use the
// plan's per-site atomic visit counter via fire_next(site). Injected
// failures are thrown as SorError with the matching ErrorCode, so they ride
// the same graceful-degradation paths as organic failures.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sor::fault {

enum class Site {
  kStreamRead = 0,    ///< DemandTextSource::next read failure
  kStreamBitflip = 1, ///< sign-bit flip of a parsed demand value
  kEdgeCapacity = 2,  ///< SorEngine::set_edge_capacity sees 0 / NaN
  kScratchAlloc = 3,  ///< scratch-arena acquisition failure
  kWorkerThrow = 4,   ///< exception inside a route_batch worker (unit index)
  kIoTruncate = 5,    ///< FileDemandSource mid-stream truncation
  kInstall = 6,       ///< SorEngine::install_paths failure
};
inline constexpr int kNumSites = 7;

const char* site_name(Site site);
std::optional<Site> parse_site(std::string_view name);

class FaultPlan {
 public:
  FaultPlan() = default;
  // Copyable despite the atomic visit counters (counter values transfer
  // non-atomically; copy a plan before handing it to concurrent users).
  FaultPlan(const FaultPlan& other) { *this = other; }
  FaultPlan& operator=(const FaultPlan& other) {
    if (this != &other) {
      rules_ = other.rules_;
      seed_ = other.seed_;
      for (int i = 0; i < kNumSites; ++i) {
        counters_[static_cast<std::size_t>(i)].store(
            other.counters_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
    return *this;
  }

  /// Parses the grammar above. Nullopt on any unknown site, malformed
  /// trigger, or out-of-range parameter (typos must fail loudly).
  static std::optional<FaultPlan> parse(const std::string& text);

  /// Pure decision for sites with an externally supplied stable index
  /// (0-based). Thread-safe, no state mutated.
  bool fires(Site site, std::uint64_t index) const;

  /// Serial-site form: consumes this site's next visit index and decides.
  /// The counter is atomic, so interleaved visits are safe; use fires()
  /// with a stable index where cross-thread determinism matters.
  bool fire_next(Site site);

  /// Canonical round-trippable text form.
  std::string to_string() const;

  bool empty() const { return rules_.empty(); }
  /// True if any rule names `site`.
  bool covers(Site site) const;

 private:
  struct Rule {
    Site site = Site::kStreamRead;
    enum class Kind { kAt, kEvery, kProb } kind = Kind::kAt;
    std::uint64_t k = 1;   ///< kAt / kEvery parameter (1-based)
    double p = 0.0;        ///< kProb parameter in [0, 1]
  };

  std::vector<Rule> rules_;
  std::uint64_t seed_ = 0;
  std::array<std::atomic<std::uint64_t>, kNumSites> counters_{};
};

/// Process-global plan: set explicitly (CLI --fault-plan) or picked up once
/// from the SOR_FAULT_PLAN environment variable on first access. Engines
/// and streams without their own plan consult this one. Returns nullptr
/// when no plan is installed.
std::shared_ptr<FaultPlan> global_plan();
/// Installs (or clears, with nullptr) the process-global plan.
void set_global_plan(std::shared_ptr<FaultPlan> plan);

}  // namespace sor::fault

// Solver convergence telemetry — the per-round trajectory of the
// restricted solve.
//
// The restricted Frank–Wolfe solve (lp/min_congestion.h) is an anytime
// algorithm: every round leaves an iterate with an exact congestion and
// carries a dual lower bound, and this records the two closing on each
// other round by round. The solve accepts an opt-in ConvergenceSink
// through MwuHooks::sink; when attached, each round appends one
// ConvergenceRecord after its step, before the early-exit checks.
// SorEngine attaches one to the route's restricted solve only (never to
// the optimum's master solves): a route records one record per round (up
// to max_records).
//
// Contract (same discipline as the other pointers on MwuHooks):
//  * sink == nullptr (the default) is free: the solvers never allocate
//    for it and produce bit-identical outputs to a build without the
//    field.
//  * A non-null sink OBSERVES only — it never feeds back into solver
//    state, so results with and without a sink are bit-identical too
//    (bench_m10's identity row pins this). Every recorded value but
//    touched_edges is one the round computes anyway; that count takes one
//    pass over the footprint per round, only while a sink is attached.
//  * Recording is allocation-bounded: the sink refuses records beyond
//    max_records (counting the overflow) instead of growing without
//    bound, and the backing vector's capacity is retained across reuse —
//    a steady-state serving loop with convergence recording on reaches a
//    fixed memory footprint.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

namespace sor::obs {

/// One round of the restricted solve, recorded after its step.
struct ConvergenceRecord {
  int round = 0;           ///< 1-based round number
  double congestion = 0.0; ///< the iterate's max_e F_e / cap_e after the step
  double dual = 0.0;       ///< this round's dual certificate value
  double best_lower = 0.0; ///< running max dual — the certified lower bound
  /// Certified suboptimality at this round: congestion / best_lower - 1
  /// (+inf while no positive dual bound has been collected).
  double gap = 0.0;
  int touched_edges = 0;   ///< edges the round's best response loads

  friend bool operator==(const ConvergenceRecord&,
                         const ConvergenceRecord&) = default;
};

/// Append-only per-round sink bound to a caller-owned record vector (so
/// RouteReport::convergence can be filled in place, capacity retained).
/// Constructing the sink clears the vector; record() drops past
/// max_records.
class ConvergenceSink {
 public:
  static constexpr std::size_t kDefaultMaxRecords = 4096;

  explicit ConvergenceSink(std::vector<ConvergenceRecord>& out,
                           std::size_t max_records = kDefaultMaxRecords)
      : out_(&out), max_(max_records) {
    out_->clear();
  }

  void record(const ConvergenceRecord& r) {
    if (out_->size() < max_) {
      out_->push_back(r);
    } else {
      ++dropped_;
    }
  }

  /// Records rejected because max_records was reached.
  std::size_t dropped() const { return dropped_; }

 private:
  std::vector<ConvergenceRecord>* out_;
  std::size_t max_;
  std::size_t dropped_ = 0;
};

/// CSV dump: header "round,congestion,dual,best_lower,gap,touched_edges",
/// one row per record, doubles in shortest round-trip form
/// (io::detail::format_double) — byte-stable for a fixed seed.
/// tools/plot_convergence.py renders this.
void write_convergence_csv(std::ostream& out,
                           std::span<const ConvergenceRecord> records);

/// JSON dump (array of objects, same fields/formatting discipline).
void write_convergence_json(std::ostream& out,
                            std::span<const ConvergenceRecord> records);

}  // namespace sor::obs

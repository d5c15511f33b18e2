// Solver convergence telemetry — the per-round trajectory of an MWU solve.
//
// The paper's multiplicative-weights analysis bounds exactly the quantity
// this records: the congestion of the averaged iterate closing on the dual
// lower bound round by round. Both MWU solvers (restricted and free, see
// lp/min_congestion.h) accept an opt-in ConvergenceSink through
// MwuHooks::sink; when attached, each round appends one ConvergenceRecord
// AFTER the round's load aggregation, before the early-exit checks.
// SorEngine attaches one to the restricted solve only: a route records
// one record per restricted round (up to max_records).
//
// Contract (same discipline as the warm/capture pointers on MwuHooks):
//  * sink == nullptr (the default) is free: the solvers never read the
//    clock, never allocate, and produce bit-identical outputs to a build
//    without the field.
//  * A non-null sink OBSERVES only — it never feeds back into solver
//    state, so results with and without a sink are bit-identical too
//    (bench_m10's identity row pins this). Recording costs one extra
//    O(m) congestion scan per round.
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

/// One MWU round, recorded after that round's loads were folded in.
struct ConvergenceRecord {
  int round = 0;           ///< 1-based round number
  double congestion = 0.0; ///< max_e cumulative_load_e / (round * cap_e)
  double dual = 0.0;       ///< this round's dual certificate value
  double best_lower = 0.0; ///< running max dual — the certified lower bound
  /// Certified suboptimality at this round: congestion / best_lower - 1
  /// (+inf while no positive dual bound has been collected).
  double gap = 0.0;
  int touched_edges = 0;   ///< edges carrying nonzero load this round

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

// TraceRecorder — low-overhead scoped-span tracing of the routing pipeline,
// exportable as Chrome trace_event JSON (chrome://tracing / Perfetto).
//
// Design constraints (docs/observability.md is the contract):
//
//  * OFF is free and invisible. The recorder is disabled by default; a
//    disabled TraceSpan constructor is one relaxed atomic load and the
//    destructor a branch — no clock read, no lock, no allocation — so
//    instrumented hot paths keep the zero-alloc steady state (bench_m7)
//    and outputs stay bit-identical to a build without the subsystem
//    (tracing never touches solver state either way).
//  * ON is allocation-bounded. enable(capacity) pre-sizes one event ring;
//    recording writes POD records into pre-existing slots under a mutex
//    (an uncontended lock + struct copy, no heap traffic). When the ring
//    fills, new events are DROPPED and counted (dropped()) rather than
//    grown or overwritten — the head of a trace (build/install) is the
//    expensive, unrepeatable part, so it is what survives.
//  * Event names/categories are 'static storage duration' C strings
//    (string literals at every call site); records store the pointers.
//
// Span taxonomy (category.name) — see docs/observability.md for the table:
//   engine.build / engine.install / engine.route / engine.lower_bound /
//   engine.optimum / engine.rounding / engine.sim / engine.rebuild,
//   batch.batch,
//   scenario.epoch, warm.replay / warm.seed / warm.cold / warm.capture;
//   instant events runtime.scratch_mint, scale.agg_table_grow, and
//   fault.<site_name> at every fault-injection fire.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

namespace sor::obs {

/// One named integer payload of an event (rendered under "args"); the slot
/// is unused when name is null.
struct TraceArg {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

/// The most payloads one event carries (engine.route's three).
inline constexpr std::size_t kMaxTraceArgs = 3;

/// One completed span or instant event. POD: name/cat and the payload
/// names point at string literals, times are integer microseconds since
/// enable().
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t start_us = 0;  ///< microseconds since enable()
  std::uint64_t dur_us = 0;    ///< span duration (0 for instant events)
  std::uint32_t tid = 0;       ///< small sequential per-thread id
  bool instant = false;        ///< true = trace_event ph:"i", false = ph:"X"
  /// Optional payloads, the used slots first, in the order they were set.
  std::array<TraceArg, kMaxTraceArgs> args{};
};

/// The process-wide recorder behind obs::tracer(). Thread-safe: spans from
/// concurrent batch workers interleave under one mutex (recording happens
/// once per completed span, not per sample, so the lock is cold).
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Arms the recorder: clears prior events, (re)sizes the ring to
  /// `capacity` slots — the only allocation the recorder ever performs —
  /// and restarts the trace clock at 0.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Disarms recording. Events already recorded stay readable/exportable.
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a completed span (no-op when disabled — callers normally go
  /// through TraceSpan, which never reaches here disabled).
  void record_span(const char* name, const char* cat,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end,
                   const std::array<TraceArg, kMaxTraceArgs>& args = {});
  /// Records a zero-duration instant event (fault fires).
  void record_instant(const char* name, const char* cat,
                      const char* arg_name = nullptr, std::uint64_t arg = 0);

  /// Events recorded so far (stable snapshot copy).
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  /// Events rejected because the ring was full since the last enable().
  std::uint64_t dropped() const;
  /// Drops every recorded event (capacity and enablement retained).
  void clear();

  /// Chrome trace_event JSON ({"traceEvents":[...]}): ph:"X" complete
  /// events for spans, ph:"i" for instants, ts/dur in microseconds.
  /// Loadable in chrome://tracing and Perfetto. Timestamps are wall-clock
  /// measurements, so trace FILES are not byte-stable run to run; every
  /// numeric value is still emitted in shortest round-trip form.
  void write_chrome_json(std::ostream& out) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< pre-sized at enable(); append-only
  /// Logical slot bound — NOT ring_.capacity(): a re-enable with a smaller
  /// capacity must tighten the bound even though the old allocation stays.
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_{};

  std::uint64_t us_since_epoch(std::chrono::steady_clock::time_point t) const;
};

/// The process-global recorder (sor_cli --trace-json arms it).
TraceRecorder& tracer();

/// Small sequential id of the calling thread (first call registers).
std::uint32_t trace_thread_id();

/// RAII scoped span over the global recorder. Cost when tracing is off:
/// one relaxed atomic load in the constructor, one branch in the
/// destructor. `name` and `cat` must be string literals (or otherwise
/// outlive the recorder's contents).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, const char* arg_name = nullptr,
            std::uint64_t arg = 0) {
    if (tracer().enabled()) {
      name_ = name;
      cat_ = cat;
      args_[0] = {arg_name, arg};
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      tracer().record_span(name_, cat_, start_,
                           std::chrono::steady_clock::now(), args_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an integer payload after construction (e.g. a count only
  /// known at scope exit) in the next free slot; past kMaxTraceArgs it is
  /// dropped. No-op when tracing was off at entry.
  void set_arg(const char* arg_name, std::uint64_t arg) {
    for (TraceArg& slot : args_) {
      if (slot.name == nullptr) {
        slot = {arg_name, arg};
        return;
      }
    }
  }

 private:
  const char* name_ = nullptr;  ///< null = tracing was off at construction
  const char* cat_ = nullptr;
  std::array<TraceArg, kMaxTraceArgs> args_{};
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sor::obs

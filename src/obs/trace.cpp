#include "obs/trace.h"

#include <ostream>

#include "io/serialization.h"

namespace sor::obs {

namespace {

std::atomic<std::uint32_t> g_next_thread_id{0};

}  // namespace

std::uint32_t trace_thread_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceRecorder::enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.reserve(capacity_);
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::us_since_epoch(
    std::chrono::steady_clock::time_point t) const {
  if (t < epoch_) return 0;  // span started before enable(); clamp
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
          .count());
}

void TraceRecorder::record_span(
    const char* name, const char* cat,
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end,
    const std::array<TraceArg, kMaxTraceArgs>& args) {
  if (!enabled()) return;
  const std::uint32_t tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ++dropped_;  // full: keep the (unrepeatable) head of the trace
    return;
  }
  TraceEvent& ev = ring_.emplace_back();
  ev.name = name;
  ev.cat = cat;
  ev.start_us = us_since_epoch(start);
  const std::uint64_t end_us = us_since_epoch(end);
  ev.dur_us = end_us > ev.start_us ? end_us - ev.start_us : 0;
  ev.tid = tid;
  ev.instant = false;
  ev.args = args;
}

void TraceRecorder::record_instant(const char* name, const char* cat,
                                   const char* arg_name, std::uint64_t arg) {
  if (!enabled()) return;
  const std::uint32_t tid = trace_thread_id();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  TraceEvent& ev = ring_.emplace_back();
  ev.name = name;
  ev.cat = cat;
  ev.start_us = us_since_epoch(now);
  ev.dur_us = 0;
  ev.tid = tid;
  ev.instant = true;
  ev.args[0] = {arg_name, arg};
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
}

namespace {

// JSON string escaping for names/categories. Call sites pass literals
// (plain ASCII), but the writer must not emit malformed JSON regardless.
void write_json_string(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
          << "0123456789abcdef"[c & 0xf];
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : ring_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    write_json_string(out, ev.name);
    out << ",\"cat\":";
    write_json_string(out, ev.cat);
    out << ",\"ph\":\"" << (ev.instant ? 'i' : 'X') << "\"";
    out << ",\"ts\":" << ev.start_us;
    if (!ev.instant) out << ",\"dur\":" << ev.dur_us;
    if (ev.instant) out << ",\"s\":\"t\"";  // instant scope: thread
    out << ",\"pid\":1,\"tid\":" << ev.tid;
    if (ev.args[0].name != nullptr) {
      out << ",\"args\":{";
      for (std::size_t a = 0; a < kMaxTraceArgs && ev.args[a].name != nullptr;
           ++a) {
        if (a > 0) out << ",";
        write_json_string(out, ev.args[a].name);
        out << ":" << ev.args[a].value;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"";
  if (dropped_ > 0) {
    out << ",\"otherData\":{\"dropped_events\":\""
        << io::detail::format_double(static_cast<double>(dropped_)) << "\"}";
  }
  out << "}\n";
}

TraceRecorder& tracer() {
  static TraceRecorder recorder;
  return recorder;
}

}  // namespace sor::obs

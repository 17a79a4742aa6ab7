// Copyright 2026 The gpssn Authors.
//
// In-memory span recorder for the benchmark's traced mode. Spans are
// recorded by the benchmark around its calls into the library's public
// functions (one span per layer boundary); nothing inside the library is
// instrumented. Spans of one query share a query id, and nested spans
// name their parent, so a layer's self time is its duration minus the
// part of it covered by its children. The recorder is single-threaded:
// only the benchmark's driving thread opens spans. Spans whose times are
// known only after the fact (executor queue wait and service time, read
// from BatchQueryResult) are added with explicit times.
//
// WriteChromeTrace() emits the Chrome/Perfetto "trace event" JSON format
// (complete events, ph = "X"), loadable in ui.perfetto.dev or
// chrome://tracing.

#ifndef GPSSN_PERFBENCH_TRACE_H_
#define GPSSN_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;      // 0 = root.
  int64_t query_id = -1;    // -1 = not tied to a query (set-up, writes).
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span as a child of the innermost open span.
  uint64_t Begin(const char* name, int64_t query_id = -1);
  /// Closes the innermost open span, which must be `id`; returns its
  /// duration in seconds.
  double End(uint64_t id);

  /// Records an already-finished span under `parent` (0 = root).
  uint64_t Add(const char* name, int64_t query_id, uint64_t parent,
               Clock::time_point start, Clock::time_point end);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;  // Indexes into spans_ of the open spans.
};

/// RAII span; a null tracer records nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query_id = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->Begin(name, query_id)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // GPSSN_PERFBENCH_TRACE_H_

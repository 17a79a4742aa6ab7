#include "trace.h"

#include <cstdio>

#include "common/macros.h"

namespace perfbench {

uint64_t Tracer::Begin(const char* name, int64_t query_id) {
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.query_id = query_id;
  span.name = name;
  span.start = Clock::now();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::End(uint64_t id) {
  const Clock::time_point now = Clock::now();
  GPSSN_CHECK(!open_.empty() && spans_[open_.back()].id == id);
  SpanRecord& span = spans_[open_.back()];
  open_.pop_back();
  span.end = now;
  return Seconds(span.start, span.end);
}

uint64_t Tracer::Add(const char* name, int64_t query_id, uint64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.query_id = query_id;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double ts = Seconds(epoch_, s.start) * 1e6;
    const double dur = Seconds(s.start, s.end) * 1e6;
    // Query spans get their own track so overlapping executor spans of
    // concurrent queries do not stack on the driver's track.
    const int64_t tid = s.query_id >= 0 ? s.query_id + 1 : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%llu,"
                 "\"parent\":%llu,\"query_id\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<long long>(tid), ts, dur,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.query_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

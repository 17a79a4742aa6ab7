// Copyright 2026 The gpssn Authors.
//
// Lightweight wall-clock timer used by query statistics and benchmarks.

#ifndef GPSSN_COMMON_TIMER_H_
#define GPSSN_COMMON_TIMER_H_

#include <chrono>

#include "common/macros.h"

namespace gpssn {

/// Monotonic stopwatch. Started on construction; ElapsedSeconds() may be
/// sampled repeatedly.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accrues the elapsed wall time of its scope into *out on destruction;
/// attributes phase time across every exit path of a function.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(double* out) : out_(out) {}
  ~ScopedPhaseTimer() { *out_ += timer_.ElapsedSeconds(); }
  GPSSN_DISALLOW_COPY_AND_MOVE(ScopedPhaseTimer);

 private:
  WallTimer timer_;
  double* out_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_TIMER_H_

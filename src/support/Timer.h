//===- support/Timer.h - Wall-clock timing helpers -------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal monotonic wall-clock timing for the instrumented pass manager
/// (`--time-passes`): a ScopedTimer charges a scope to a double
/// accumulator. All times are in seconds. Accumulators are not thread-safe
/// by themselves — the pass manager keeps them per-run, and only the
/// statistics registry is shared across the parallel driver's threads.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_TIMER_H
#define SRP_SUPPORT_TIMER_H

namespace srp {

/// Seconds from a monotonic clock (arbitrary epoch).
double monotonicSeconds();

/// Adds the lifetime of the object to \p Acc, in seconds.
class ScopedTimer {
  double &Acc;
  double StartedAt;

public:
  explicit ScopedTimer(double &Acc)
      : Acc(Acc), StartedAt(monotonicSeconds()) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() { Acc += monotonicSeconds() - StartedAt; }
};

} // namespace srp

#endif // SRP_SUPPORT_TIMER_H

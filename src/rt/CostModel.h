//===- rt/CostModel.h - Machine cost parameters -----------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost parameters of the simulated shared-memory multiprocessor: the flat
/// parameter block of an rt::MachineModel, which does the pricing. The
/// defaults model the paper's platform, a 16-processor Stanford DASH: spin
/// locks with a hardware attempt construct, a ~9 microsecond timer read
/// (paper Section 4.1), and lock operation costs calibrated so the paper's
/// locking-overhead/execution-time ratios are reproduced.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_COSTMODEL_H
#define DYNFB_RT_COSTMODEL_H

#include "rt/Time.h"

namespace dynfb::rt {

/// Costs of the primitive machine operations, in (virtual) nanoseconds.
struct CostModel {
  /// Successful lock acquire (uncontended hardware acquire construct).
  Nanos AcquireNanos = 3000;
  /// Lock release.
  Nanos ReleaseNanos = 1500;
  /// One failed acquire attempt while spinning (paper Section 4.3: the
  /// waiting overhead is the failed-attempt cost times the failure count).
  Nanos FailedAcquireNanos = 1000;
  /// Reading the timer (paper: ~9 microseconds on DASH).
  Nanos TimerReadNanos = 9000;
  /// One barrier episode per processor (synchronous policy switching).
  Nanos BarrierNanos = 20000;
  /// Fetching the next iteration from the dynamic loop scheduler.
  Nanos SchedFetchNanos = 1500;
  /// One commuting field update (load-op-store).
  Nanos UpdateNanos = 250;
  /// Extra cost per lock operation when the overhead instrumentation is
  /// compiled in (counter increments; the paper measures this to be small).
  Nanos InstrumentNanos = 150;

  /// The default DASH-like machine.
  static CostModel dashLike() { return CostModel{}; }

  /// Combined cost of one successful acquire/release pair.
  Nanos pairNanos(bool Instrumented) const {
    return AcquireNanos + ReleaseNanos +
           (Instrumented ? 2 * InstrumentNanos : 0);
  }
};

} // namespace dynfb::rt

#endif // DYNFB_RT_COSTMODEL_H

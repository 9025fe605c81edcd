//===- rt/NativeSection.h - IR sections on real threads ---------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes generated IR section versions on the real-threads backend: the
/// interpreter lowers each iteration to micro-ops, compute durations become
/// calibrated busy-wait (scaled by a virtual-to-real time factor), and
/// acquire/release operate on an array of real counting spin locks indexed
/// by object id. This completes the backend matrix: the same generated
/// code runs on the deterministic simulator or on actual hardware threads,
/// behind the same IntervalRunner contract.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_NATIVESECTION_H
#define DYNFB_RT_NATIVESECTION_H

#include "ir/Module.h"
#include "rt/Binding.h"
#include "rt/Interp.h"
#include "rt/RealRunner.h"
#include "rt/SpinLock.h"

#include <memory>
#include <string>
#include <vector>

namespace dynfb::rt {

/// One IR version to execute natively.
struct NativeIrVersion {
  std::string Label;
  const ir::Method *Entry = nullptr;
  SchedSpec Sched;
};

/// Builds a RealSectionRunner whose iteration bodies interpret the given IR
/// versions, with compute priced from the DASH-like cost block.
/// \p TimeScale converts virtual nanoseconds of compute cost into real
/// busy-wait nanoseconds (e.g. 0.001 runs a 1 ms virtual kernel as a 1 us
/// spin) so workloads stay testable. The returned runner owns the lock
/// table and emitters; \p Binding and the IR must outlive it.
std::unique_ptr<RealSectionRunner>
makeNativeIrRunner(ThreadTeam &Team, const DataBinding &Binding,
                   std::vector<NativeIrVersion> Versions, double TimeScale);

/// Busy-waits for approximately \p Dur of real time (exposed for tests and
/// calibration).
void busyWait(Nanos Dur);

} // namespace dynfb::rt

#endif // DYNFB_RT_NATIVESECTION_H

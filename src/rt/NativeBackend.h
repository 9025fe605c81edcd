//===- rt/NativeBackend.h - Real-threads execution backend ------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionBackend over real hardware threads: the native peer of
/// sim::SimBackend. It consumes the same SectionRegistry the simulator
/// consumes, hands out RealSectionRunners whose iteration bodies interpret
/// the generated IR (compute lowered to calibrated busy-wait, critical
/// regions to counting spin locks), and fills the same IntervalTrace
/// structures, so the feedback driver, observability exporters, and
/// experiment harness above it are backend-blind.
///
/// Two deliberate differences from the simulator:
///  - Time is the host steady clock, rebased to a per-backend epoch taken
///    at construction, so now() starts near zero like a simulated run.
///  - MachineModel pricing does not apply: the hardware sets the cost of a
///    lock op or a cache miss. Workload compute durations are materialized
///    from the paper's DASH-like cost block (then scaled by TimeScale), so
///    native workloads match the ones the simulator executes; machine
///    selection is a simulator concept.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_NATIVEBACKEND_H
#define DYNFB_RT_NATIVEBACKEND_H

#include "rt/Backend.h"
#include "rt/RealRunner.h"
#include "rt/SectionRegistry.h"
#include "rt/ThreadTeam.h"

#include <map>
#include <memory>
#include <string>

namespace dynfb::rt {

/// Real-threads backend. Owns the worker team; sections come from a
/// backend-agnostic SectionRegistry (bindings and IR must outlive the
/// backend).
class NativeBackend : public ExecutionBackend {
public:
  struct Options {
    /// Virtual-to-real conversion for workload compute durations (0.0005
    /// runs 1 ms of virtual compute as a 0.5 us busy-wait).
    double TimeScale = 0.0005;
  };

  NativeBackend(unsigned NumProcs, SectionRegistry Sections, Options Opts);
  NativeBackend(unsigned NumProcs, SectionRegistry Sections)
      : NativeBackend(NumProcs, std::move(Sections), Options()) {}

  void runSerial(Nanos Dur) override;

  std::unique_ptr<IntervalRunner>
  beginSection(const std::string &Name) override;

  Nanos now() const override { return steadyNow() - Epoch; }

  BackendKind kind() const override { return BackendKind::Native; }

  void setCollectSectionTraces(bool Enable) override {
    CollectSectionTraces = Enable;
  }

  const std::map<std::string, IntervalTrace> &sectionTraces() const override {
    return SectionTraces;
  }

  ThreadTeam &team() { return Team; }
  double timeScale() const { return Opts.TimeScale; }

private:
  SectionRegistry Sections;
  Options Opts;
  ThreadTeam Team;
  Nanos Epoch;
  bool CollectSectionTraces = false;
  /// std::map: entry addresses are stable, so live runners can hold a
  /// pointer into it across later insertions.
  std::map<std::string, IntervalTrace> SectionTraces;
};

} // namespace dynfb::rt

#endif // DYNFB_RT_NATIVEBACKEND_H

//===- bench/e2e/Layers.h - Outside-in layer spans --------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer host-time attribution for the end-to-end benchmark, measured
/// from outside the library: spans around the calls into each layer's
/// public functions, plus a decorator ExecutionBackend/IntervalRunner pair
/// that times the simulator underneath fb::runSchedule. Nothing here runs
/// in an untraced pass except one null-pointer test per span.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_BENCH_E2E_LAYERS_H
#define DYNFB_BENCH_E2E_LAYERS_H

#include "apps/Harness.h"

#include <chrono>
#include <cstdint>

namespace dynfb::e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One traced pass's layer self times (seconds) and work counts.
struct LayerProfile {
  double AppsCreate = 0;    ///< App constructors (apps/xform/ir/analysis).
  double SimBackend = 0;    ///< App::makeSimBackend.
  double SimBegin = 0;      ///< ExecutionBackend::beginSection.
  double SimInterval = 0;   ///< IntervalRunner::runInterval (incl. emission).
  double SimSerial = 0;     ///< ExecutionBackend::runSerial.
  double FbSelf = 0;        ///< fb::runSchedule minus its sim children.
  double ObsExport = 0;     ///< buildRunTrace + toJsonl.
  double ObsParse = 0;      ///< parseJsonl.
  double ReplayReplay = 0;  ///< replay::replayTrace.
  double ReplayExplore = 0; ///< replay::explore + summarizeRegret.
  uint64_t SimOps = 0;       ///< Micro-ops of the decorated runs.
  uint64_t SimIntervals = 0; ///< Intervals of the decorated runs.
  uint64_t Decisions = 0;    ///< Sampled intervals + production choices.
  uint64_t TraceBytes = 0;  ///< Exported JSONL bytes.
  uint64_t WhatIfs = 0;     ///< Counterfactual occurrences explored.

  double attributed() const {
    return AppsCreate + SimBackend + SimBegin + SimInterval + SimSerial +
           FbSelf + ObsExport + ObsParse + ReplayReplay + ReplayExplore;
  }
};

/// Runs \p Fn, adding its wall time to \p Profile->*Field when \p Profile
/// is non-null (a traced pass); untraced passes read no clock.
template <typename Fn>
decltype(auto) timed(LayerProfile *Profile, double LayerProfile::*Field,
                     Fn &&F) {
  if (!Profile)
    return F();
  struct Stop {
    double &Acc;
    Clock::time_point Start = Clock::now();
    ~Stop() { Acc += secondsSince(Start); }
  } S{Profile->*Field};
  return F();
}

/// One job on the simulator, after which the freed heap is returned to the
/// system. Untraced (\p Profile null) it is apps::runApp, so end-to-end
/// metrics time the code users run. Traced, it makes the public calls
/// runApp makes (App::makeSimBackend, then fb::runSchedule) with the
/// decorator backend spliced in, and fills \p Obs as runApp does.
fb::RunResult runJob(const apps::App &App, unsigned Procs,
                     const apps::VersionSpec &Spec,
                     const rt::MachineModel &Model,
                     const fb::FeedbackConfig &Config,
                     const perturb::PerturbationEngine *Perturb,
                     apps::RunObservation *Obs, LayerProfile *Profile);

/// Cold and memoized micro-op emission over every iteration of every
/// version the dynamic executable of one application registers.
struct EmissionProbe {
  uint64_t Iterations = 0;
  uint64_t Ops = 0;    ///< Micro-ops emitted cold.
  uint64_t HitOps = 0; ///< Micro-ops served on the cache-hit pass.
  double ColdSeconds = 0;
  double HitSeconds = 0;

  void merge(const EmissionProbe &O) {
    Iterations += O.Iterations;
    Ops += O.Ops;
    HitOps += O.HitOps;
    ColdSeconds += O.ColdSeconds;
    HitSeconds += O.HitSeconds;
  }
};

EmissionProbe probeEmission(const apps::App &App,
                            const rt::MachineModel &Model);

} // namespace dynfb::e2e

#endif // DYNFB_BENCH_E2E_LAYERS_H

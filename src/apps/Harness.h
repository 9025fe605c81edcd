//===- apps/Harness.h - Shared experiment harness ----------------*- C++ -*-=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: run one executable of an
/// application on the simulated machine and return the result, and the
/// processor counts the paper's tables use. The executable is described by
/// a VersionSpec (flavour plus, for Fixed, the pinned version-space point)
/// and priced by an rt::MachineModel.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_APPS_HARNESS_H
#define DYNFB_APPS_HARNESS_H

#include "apps/App.h"
#include "fb/Driver.h"
#include "obs/Export.h"
#include "rt/SectionTrace.h"

#include <map>
#include <vector>

namespace dynfb::perturb {
class PerturbationEngine;
} // namespace dynfb::perturb

namespace dynfb::apps {

/// Processor counts of the paper's execution-time tables.
inline const std::vector<unsigned> PaperProcCounts = {1, 2, 4, 8, 12, 16};

/// Observability hooks for one runApp call, all default-off. Attaching one
/// never alters the run: the decision log and traces are strictly
/// observation.
struct RunObservation {
  /// Filled by the feedback controller: one event per sampled interval,
  /// production decision and drift resample (empty for Fixed flavours,
  /// which make no decisions).
  obs::DecisionLog Log;
  /// When set before the run, the simulator accumulates one cumulative
  /// IntervalTrace per section into SectionTraces (lock contention and
  /// per-processor time decomposition over the whole run).
  bool CollectSectionTraces = false;
  std::map<std::string, rt::IntervalTrace> SectionTraces;
};

/// Which execution substrate runApp builds, plus its native-only knobs.
/// Defaults reproduce the seed behaviour: the simulator.
struct BackendOptions {
  rt::BackendKind Kind = rt::BackendKind::Sim;
  /// Virtual-to-real compute scale for native runs (ignored on the sim).
  double TimeScale = 0.0005;

  static BackendOptions sim() { return BackendOptions{}; }
  static BackendOptions native(double TimeScale = 0.0005) {
    BackendOptions BO;
    BO.Kind = rt::BackendKind::Native;
    BO.TimeScale = TimeScale;
    return BO;
  }
};

/// Runs the executable described by \p Spec of \p App on a fresh backend:
/// by default a simulated machine built from \p Model, or -- with
/// \p Backend native -- a real thread team (which ignores \p Model: the
/// hardware sets the prices). \p Perturb, when non-null, injects the
/// engine's fault schedule into the simulated machine for the duration of
/// the run (null: pristine machine; native backends ignore it -- reject
/// perturbed native runs before getting here). \p Obs, when non-null,
/// collects the run's decision log and (optionally) per-section interval
/// traces; both work identically on either backend.
fb::RunResult runApp(const App &App, unsigned Procs, const VersionSpec &Spec,
                     const rt::MachineModel &Model,
                     const fb::FeedbackConfig &Config = {},
                     fb::PolicyHistory *History = nullptr,
                     const perturb::PerturbationEngine *Perturb = nullptr,
                     RunObservation *Obs = nullptr,
                     const BackendOptions &Backend = {});

/// Assembles the exportable obs::RunTrace of one finished run: \p Result's
/// per-occurrence section records, plus -- when \p Obs is non-null -- the
/// decision log and the per-section lock contention records (sections in
/// name order, locks by object id: deterministic output).
obs::RunTrace buildRunTrace(const std::string &AppName, unsigned Procs,
                            const std::string &Policy,
                            const fb::RunResult &Result,
                            const RunObservation *Obs = nullptr,
                            rt::BackendKind Backend = rt::BackendKind::Sim);

/// Convenience: end-to-end execution time in seconds on \p Model.
double runAppSeconds(const App &App, unsigned Procs, const VersionSpec &Spec,
                     const rt::MachineModel &Model,
                     const fb::FeedbackConfig &Config = {});

} // namespace dynfb::apps

#endif // DYNFB_APPS_HARNESS_H

//===- apps/Harness.cpp ---------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Harness.h"

using namespace dynfb;
using namespace dynfb::apps;

fb::RunResult apps::runApp(const App &App, unsigned Procs,
                           const VersionSpec &Spec,
                           const rt::MachineModel &Model,
                           const fb::FeedbackConfig &Config,
                           fb::PolicyHistory *History,
                           const perturb::PerturbationEngine *Perturb,
                           RunObservation *Obs, const BackendOptions &BO) {
  // The single backend-blind execution path: everything below this line is
  // identical for the simulator and for real threads.
  std::unique_ptr<rt::ExecutionBackend> Backend;
  if (BO.Kind == rt::BackendKind::Native) {
    rt::NativeBackend::Options NO;
    NO.TimeScale = BO.TimeScale;
    Backend = App.makeNativeBackend(Procs, Spec, NO);
  } else {
    Backend = App.makeSimBackend(Procs, Model, Spec);
  }
  Backend->setPerturbation(Perturb);
  if (Obs && Obs->CollectSectionTraces)
    Backend->setCollectSectionTraces(true);
  fb::RunOptions Options;
  Options.Mode =
      Spec.F == Flavour::Dynamic ? fb::ExecMode::Dynamic : fb::ExecMode::Fixed;
  Options.Config = Config;
  if (!Options.Config.Machine)
    Options.Config.Machine = &Model; // Ucb sampling prior; outlives the run.
  Options.History = History;
  Options.Log = Obs ? &Obs->Log : nullptr;
  fb::RunResult Result = fb::runSchedule(*Backend, App.schedule(), Options);
  if (Obs && Obs->CollectSectionTraces)
    Obs->SectionTraces = Backend->sectionTraces();
  return Result;
}

double apps::runAppSeconds(const App &App, unsigned Procs,
                           const VersionSpec &Spec,
                           const rt::MachineModel &Model,
                           const fb::FeedbackConfig &Config) {
  return rt::nanosToSeconds(
      runApp(App, Procs, Spec, Model, Config).TotalNanos);
}

obs::RunTrace apps::buildRunTrace(const std::string &AppName, unsigned Procs,
                                  const std::string &Policy,
                                  const fb::RunResult &Result,
                                  const RunObservation *Obs,
                                  rt::BackendKind Backend) {
  obs::RunTrace Trace;
  Trace.Meta.App = AppName;
  Trace.Meta.Policy = Policy;
  Trace.Meta.Procs = Procs;
  Trace.Meta.TotalNanos = Result.TotalNanos;
  Trace.Meta.Backend = rt::backendKindName(Backend);

  if (Obs)
    Trace.Decisions = Obs->Log.events();

  for (const fb::SectionExecutionTrace &Occ : Result.Occurrences) {
    obs::SectionRecord S;
    S.Section = Occ.SectionName;
    S.StartNanos = Occ.StartNanos;
    S.EndNanos = Occ.EndNanos;
    S.AcquireReleasePairs = Occ.Total.AcquireReleasePairs;
    S.LockOpNanos = Occ.Total.LockOpNanos;
    S.WaitNanos = Occ.Total.WaitNanos;
    S.SchedNanos = Occ.Total.SchedNanos;
    S.ExecNanos = Occ.Total.ExecNanos;
    S.SamplingPhases = Occ.SamplingPhases;
    S.SampledIntervals = Occ.SampledIntervals;
    S.DegenerateIntervals = Occ.DegenerateIntervals;
    S.EarlyResamples = Occ.EarlyResamples;
    S.HysteresisHolds = Occ.HysteresisHolds;
    Trace.Sections.push_back(std::move(S));
  }

  // Both maps iterate in sorted key order, so lock records come out
  // deterministically: by section name, then object id.
  if (Obs)
    for (const auto &[Section, IT] : Obs->SectionTraces)
      for (const auto &[Obj, LS] : IT.Locks) {
        obs::LockRecord L;
        L.Section = Section;
        L.Object = Obj;
        L.Acquires = LS.Acquires;
        L.Contended = LS.Contended;
        L.WaitNanos = LS.WaitNanos;
        Trace.Locks.push_back(std::move(L));
      }

  return Trace;
}

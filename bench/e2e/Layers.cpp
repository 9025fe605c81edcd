//===- bench/e2e/Layers.cpp -----------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "rt/Interp.h"
#include "sim/Throughput.h"

#include <malloc.h>

using namespace dynfb;
using namespace dynfb::e2e;

namespace {

/// Times one section occurrence's intervals into the profile.
class TracedRunner final : public rt::IntervalRunner {
public:
  TracedRunner(std::unique_ptr<rt::IntervalRunner> Inner,
               LayerProfile &Profile)
      : Inner(std::move(Inner)), Profile(Profile) {}

  unsigned numVersions() const override { return Inner->numVersions(); }
  std::string versionLabel(unsigned V) const override {
    return Inner->versionLabel(V);
  }
  rt::IntervalReport runInterval(unsigned V, rt::Nanos Target) override {
    return timed(&Profile, &LayerProfile::SimInterval,
                 [&] { return Inner->runInterval(V, Target); });
  }
  bool done() const override { return Inner->done(); }
  void reset() override { Inner->reset(); }
  rt::Nanos now() const override { return Inner->now(); }

private:
  std::unique_ptr<rt::IntervalRunner> Inner;
  LayerProfile &Profile;
};

/// Decorates the real backend so every call fb::runSchedule makes into
/// the simulator is timed from outside.
class TracedBackend final : public rt::ExecutionBackend {
public:
  TracedBackend(rt::ExecutionBackend &Inner, LayerProfile &Profile)
      : Inner(Inner), Profile(Profile) {}

  void runSerial(rt::Nanos Dur) override {
    timed(&Profile, &LayerProfile::SimSerial,
          [&] { Inner.runSerial(Dur); });
  }
  std::unique_ptr<rt::IntervalRunner>
  beginSection(const std::string &Name) override {
    std::unique_ptr<rt::IntervalRunner> Runner = timed(
        &Profile, &LayerProfile::SimBegin,
        [&] { return Inner.beginSection(Name); });
    return std::make_unique<TracedRunner>(std::move(Runner), Profile);
  }
  rt::Nanos now() const override { return Inner.now(); }
  rt::BackendKind kind() const override { return Inner.kind(); }

private:
  rt::ExecutionBackend &Inner;
  LayerProfile &Profile;
};

/// apps::runApp's simulator path, with the decorator spliced in between
/// fb::runSchedule and the backend.
fb::RunResult runTraced(const apps::App &App, unsigned Procs,
                        const apps::VersionSpec &Spec,
                        const rt::MachineModel &Model,
                        const fb::FeedbackConfig &Config,
                        const perturb::PerturbationEngine *Perturb,
                        apps::RunObservation *Obs, LayerProfile *Profile) {
  std::unique_ptr<sim::SimBackend> Backend =
      timed(Profile, &LayerProfile::SimBackend,
            [&] { return App.makeSimBackend(Procs, Model, Spec); });
  Backend->setPerturbation(Perturb);
  if (Obs && Obs->CollectSectionTraces)
    Backend->setCollectSectionTraces(true);
  fb::RunOptions Options;
  Options.Mode = Spec.F == apps::Flavour::Dynamic ? fb::ExecMode::Dynamic
                                                  : fb::ExecMode::Fixed;
  Options.Config = Config;
  if (!Options.Config.Machine)
    Options.Config.Machine = &Model;
  Options.Log = Obs ? &Obs->Log : nullptr;

  TracedBackend Traced(*Backend, *Profile);
  const double SimBefore =
      Profile->SimBegin + Profile->SimInterval + Profile->SimSerial;
  const sim::ThroughputCounters WorkBefore = sim::throughputCounters();
  const Clock::time_point Start = Clock::now();
  fb::RunResult Result = fb::runSchedule(Traced, App.schedule(), Options);
  const double Wall = secondsSince(Start);
  Profile->FbSelf += Wall - (Profile->SimBegin + Profile->SimInterval +
                             Profile->SimSerial - SimBefore);
  Profile->SimOps += sim::throughputCounters().MicroOps - WorkBefore.MicroOps;
  Profile->SimIntervals +=
      sim::throughputCounters().Intervals - WorkBefore.Intervals;
  for (const fb::SectionExecutionTrace &T : Result.Occurrences)
    Profile->Decisions += T.SampledIntervals + T.ChosenVersions.size();
  if (Obs && Obs->CollectSectionTraces)
    Obs->SectionTraces = Backend->sectionTraces();
  return Result;
}

} // namespace

fb::RunResult e2e::runJob(const apps::App &App, unsigned Procs,
                          const apps::VersionSpec &Spec,
                          const rt::MachineModel &Model,
                          const fb::FeedbackConfig &Config,
                          const perturb::PerturbationEngine *Perturb,
                          apps::RunObservation *Obs, LayerProfile *Profile) {
  fb::RunResult Result =
      Profile ? runTraced(App, Procs, Spec, Model, Config, Perturb, Obs,
                          Profile)
              : apps::runApp(App, Procs, Spec, Model, Config, nullptr,
                             Perturb, Obs);
  // Hand the job's freed heap back to the system, as the exit of a
  // one-job dynfb-run process does. Otherwise the fragmentation earlier
  // jobs leave behind, which differs from seed to seed, sets the peak RSS.
  malloc_trim(0);
  return Result;
}

EmissionProbe e2e::probeEmission(const apps::App &App,
                                 const rt::MachineModel &Model) {
  EmissionProbe P;
  const rt::SectionRegistry Registry =
      App.makeSectionRegistry(apps::VersionSpec::dynamicFeedback());
  std::vector<rt::MicroOp> Out;
  for (const rt::SectionDesc &S : Registry.sections()) {
    const uint64_t N = S.Binding->iterationCount();
    for (const rt::IrVersion &V : S.Versions) {
      rt::IterationEmitter Emitter(V.Entry, *S.Binding, Model.costs());
      Clock::time_point Start = Clock::now();
      for (uint64_t I = 0; I < N; ++I) {
        Emitter.emit(I, Out);
        P.Ops += Out.size();
      }
      P.ColdSeconds += secondsSince(Start);

      rt::EmittedOpsCache Cache;
      Emitter.attachCache(&Cache);
      for (uint64_t I = 0; I < N; ++I)
        Emitter.ops(I, Out); // Fill.
      Start = Clock::now();
      for (uint64_t I = 0; I < N; ++I)
        P.HitOps += Emitter.ops(I, Out).size();
      P.HitSeconds += secondsSince(Start);
      P.Iterations += N;
    }
  }
  return P;
}

//===- bench/e2e/Workloads.cpp --------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/Factory.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/kvserve/KvServeApp.h"
#include "apps/string_tomo/StringApp.h"
#include "apps/water/WaterApp.h"
#include "exp/Diff.h"
#include "exp/Experiment.h"
#include "fb/Sampling.h"
#include "perturb/Engine.h"
#include "perturb/Traffic.h"
#include "replay/Explorer.h"
#include "replay/Replay.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dynfb;
using namespace dynfb::e2e;

namespace {

/// Records a job's simulated outputs: end-to-end virtual time, executed
/// acquire/release pairs and locking time.
void recordRun(PassOutput &Out, const std::string &Job,
               const fb::RunResult &R) {
  Out.Facts[Job + "/total_ns"] = static_cast<double>(R.TotalNanos);
  Out.Facts[Job + "/pairs"] =
      static_cast<double>(R.ParallelStats.AcquireReleasePairs);
  Out.Facts[Job + "/lock_ns"] =
      static_cast<double>(R.ParallelStats.LockOpNanos);
  ++Out.Jobs;
}

std::unique_ptr<rt::MachineModel> machine(const std::string &Name) {
  std::unique_ptr<rt::MachineModel> M = rt::createMachineModel(Name);
  if (!M)
    reportFatalError("dynfb-e2e: unknown machine model");
  return M;
}

/// The executable a registry job config names (flavour + policy).
std::optional<apps::VersionSpec> specOf(const exp::JobConfig &C) {
  const std::string Flavour = C.getString("flavour", C.getString("variant"));
  if (Flavour == "serial")
    return apps::VersionSpec::serial();
  if (Flavour == "dynamic")
    return apps::VersionSpec::dynamicFeedback();
  for (xform::PolicyKind P : xform::AllPolicies)
    if (C.getString("policy") == xform::policyName(P))
      return apps::VersionSpec::fixed(P);
  return std::nullopt;
}

/// Job configs of one registered experiment (or suite) expanded at
/// \p Opts.
std::vector<std::pair<std::string, exp::JobConfig>>
registryJobs(const std::vector<const exp::Experiment *> &Experiments,
             const exp::RunOptions &Opts) {
  std::vector<std::pair<std::string, exp::JobConfig>> Jobs;
  for (const exp::Experiment *E : Experiments)
    for (exp::JobConfig &C : E->MakeJobs(Opts))
      Jobs.emplace_back(E->Name, std::move(C));
  return Jobs;
}

/// Σ dynamic ÷ Σ best fixed simulated time over cells: (app, procs) pairs
/// or traffic mixes.
class DynVsBest {
public:
  void note(const std::string &Cell, bool Dynamic, rt::Nanos T) {
    Times &C = Cells[Cell];
    if (Dynamic)
      C.Dynamic = T;
    else if (C.BestFixed == 0 || T < C.BestFixed)
      C.BestFixed = T;
  }
  double ratio() const {
    rt::Nanos Dynamic = 0, Best = 0;
    for (const auto &[Cell, C] : Cells) {
      Dynamic += C.Dynamic;
      Best += C.BestFixed;
    }
    return Best > 0 ? static_cast<double>(Dynamic) / static_cast<double>(Best)
                    : 0.0;
  }

private:
  struct Times {
    rt::Nanos Dynamic = 0, BestFixed = 0;
  };
  std::map<std::string, Times> Cells;
};

//===----------------------------------------------------------------------===//
// paper_suite
//===----------------------------------------------------------------------===//

class PaperSuite final : public Workload {
public:
  explicit PaperSuite(uint64_t Seed) : Seed(Seed) {
    exp::registerBuiltinExperiments();
    exp::RunOptions Opts;
    Opts.Scale = 0.5;
    Jobs = registryJobs(exp::registry().suite("paper"), Opts);
    Model = machine("dash-flat");
  }

  void setup() override {
    apps::bh::BarnesHutConfig BH;
    BH.scale(0.5);
    BH.Seed += Seed;
    Apps.push_back(
        {"barnes_hut", std::make_unique<apps::bh::BarnesHutApp>(BH)});
    apps::water::WaterConfig W;
    W.scale(0.5);
    W.Seed += Seed;
    Apps.push_back({"water", std::make_unique<apps::water::WaterApp>(W)});
  }

  void run(PassOutput &Out, LayerProfile *Profile) override {
    DynVsBest Cells; // Over the execution-time tables' (app, procs) cells.
    for (const auto &[Exp, C] : Jobs) {
      const std::string AppName = C.getString("app");
      const auto It = std::find_if(Apps.begin(), Apps.end(),
                                   [&](const NamedApp &A) {
                                     return A.Name == AppName;
                                   });
      const std::optional<apps::VersionSpec> Spec = specOf(C);
      const std::string Job =
          Exp + "/" + C.getString("flavour") +
          (C.find("policy") ? "-" + C.getString("policy") : "") + "-p" +
          C.getString("procs");
      if (It == Apps.end() || !Spec) {
        Out.Errors.push_back(Job + ": unknown app or executable");
        continue;
      }
      const unsigned Procs = static_cast<unsigned>(C.getInt("procs", 1));
      const fb::RunResult R = runJob(*It->App, Procs, *Spec, *Model, {},
                                     nullptr, nullptr, Profile);
      recordRun(Out, Job, R);
      const bool TimingTable =
          Exp == "table2_fig4_barnes_hut" || Exp == "table7_fig6_water";
      if (TimingTable && Spec->F != apps::Flavour::Serial)
        Cells.note(AppName + "-p" + C.getString("procs"),
                   Spec->F == apps::Flavour::Dynamic, R.TotalNanos);
    }
    Out.Facts["pass/dyn_vs_best"] = Cells.ratio();
  }

private:
  uint64_t Seed;
  std::vector<std::pair<std::string, exp::JobConfig>> Jobs;
};

//===----------------------------------------------------------------------===//
// dynamic_mix
//===----------------------------------------------------------------------===//

class DynamicMix final : public Workload {
public:
  explicit DynamicMix(uint64_t Seed) : Seed(Seed) {
    Model = machine("dash-flat");
  }

  void setup() override {
    apps::bh::BarnesHutConfig BH;
    BH.Seed += Seed;
    Apps.push_back(
        {"barnes_hut", std::make_unique<apps::bh::BarnesHutApp>(BH)});
    apps::water::WaterConfig W;
    W.Seed += Seed;
    Apps.push_back({"water", std::make_unique<apps::water::WaterApp>(W)});
    apps::string_tomo::StringConfig S;
    S.Seed += Seed;
    Apps.push_back(
        {"string", std::make_unique<apps::string_tomo::StringApp>(S)});
    apps::kvserve::KvServeConfig K;
    K.Seed += Seed;
    Apps.push_back({"kvserve", std::make_unique<apps::kvserve::KvServeApp>(K)});
  }

  void run(PassOutput &Out, LayerProfile *Profile) override {
    for (const NamedApp &A : Apps)
      for (unsigned Procs : {2u, 8u})
        recordRun(Out, A.Name + "-p" + std::to_string(Procs),
                  runJob(*A.App, Procs, apps::VersionSpec::dynamicFeedback(),
                         *Model, {}, nullptr, nullptr, Profile));
  }

private:
  uint64_t Seed;
};

//===----------------------------------------------------------------------===//
// whatif_replay
//===----------------------------------------------------------------------===//

class WhatifReplay final : public Workload {
public:
  explicit WhatifReplay(uint64_t Seed) {
    Model = machine("dash-flat");
    Traffic.Mix = perturb::TrafficMix::Storm;
    Traffic.Seed += Seed;
  }

  /// Built exactly as replay::materialize rebuilds them from a trace
  /// (factory defaults at the recorded scale), so the seed reaches these
  /// runs through the traffic stream only.
  void setup() override {
    for (const auto &[Name, Scale] : Cases)
      Apps.push_back({Name, apps::createApp(Name, Scale)});
  }

  void run(PassOutput &Out, LayerProfile *Profile) override {
    const unsigned Procs = 8;
    const fb::FeedbackConfig Config;
    rt::Nanos Dynamic = 0, Clairvoyant = 0;
    for (size_t I = 0; I < Apps.size(); ++I) {
      const apps::App &App = *Apps[I].App;
      const std::string &Job = Apps[I].Name;
      const unsigned NumShards =
          App.binding(App.program().Sections.front().Name).objectCount();
      const perturb::PerturbationEngine Engine(
          perturb::compileTraffic(Traffic, NumShards, Procs));

      // 1. The recorded run: dynamic feedback with a decision log.
      apps::RunObservation Obs;
      Obs.CollectSectionTraces = true;
      const fb::RunResult R = runJob(App, Procs,
                                     apps::VersionSpec::dynamicFeedback(),
                                     *Model, Config, &Engine, &Obs, Profile);
      recordRun(Out, Job, R);

      // 2. Export a self-describing trace and parse it back.
      const std::string Text =
          timed(Profile, &LayerProfile::ObsExport, [&] {
            obs::RunTrace Trace =
                apps::buildRunTrace(Job, Procs, "dynamic", R, &Obs);
            Trace.Meta.Machine = Model->name();
            Trace.Meta.MachineParams = Model->paramsString();
            Trace.Meta.Spec = runSpec(Cases[I].second, Config);
            return obs::toJsonl(Trace);
          });
      std::string Error;
      const std::optional<obs::RunTrace> Parsed =
          timed(Profile, &LayerProfile::ObsParse,
                [&] { return obs::parseJsonl(Text, Error); });
      if (Profile)
        Profile->TraceBytes += Text.size();
      if (!Parsed) {
        Out.Errors.push_back(Job + ": exported trace does not parse: " +
                             Error);
        continue;
      }
      // Record counts, not bytes: the meta line carries the build hash.
      Out.Facts[Job + "/trace_records"] = static_cast<double>(
          Parsed->Decisions.size() + Parsed->Sections.size() +
          Parsed->Locks.size());

      // 3. Replay must reproduce the recording exactly.
      const std::optional<replay::ReplayResult> Replayed =
          timed(Profile, &LayerProfile::ReplayReplay,
                [&] { return replay::replayTrace(*Parsed, Error); });
      if (!Replayed)
        Out.Errors.push_back(Job + ": replay failed: " + Error);
      else if (Replayed->diverged())
        Out.Errors.push_back(Job + ": replay diverged: " +
                             Replayed->Divergence);

      // 4. Checkpointed what-ifs and regret against the oracle.
      const auto [Explored, Regret] =
          timed(Profile, &LayerProfile::ReplayExplore, [&] {
            replay::Exploration Ex =
                replay::explore(App, Procs, *Model, Config, &Engine);
            const replay::RegretSummary S = replay::summarizeRegret(Ex);
            return std::make_pair(std::move(Ex), S);
          });
      if (Explored.Mainline.TotalNanos != R.TotalNanos)
        Out.Errors.push_back(Job + ": explored mainline differs from the "
                                   "unexplored run");
      if (Profile)
        Profile->WhatIfs += Explored.WhatIfs.size();
      Out.Facts[Job + "/whatifs"] =
          static_cast<double>(Explored.WhatIfs.size());
      Out.Facts[Job + "/dynamic_parallel_ns"] =
          static_cast<double>(Regret.DynamicParallelNanos);
      Out.Facts[Job + "/clairvoyant_parallel_ns"] =
          static_cast<double>(Regret.ClairvoyantParallelNanos);
      Dynamic += Regret.DynamicParallelNanos;
      Clairvoyant += Regret.ClairvoyantParallelNanos;
    }
    Out.Facts["pass/dyn_vs_oracle"] =
        Clairvoyant > 0 ? static_cast<double>(Dynamic) /
                              static_cast<double>(Clairvoyant)
                        : 0.0;
  }

private:
  /// The complete run configuration, as dynfb-run --trace-out stamps it.
  obs::RunSpec runSpec(double Scale, const fb::FeedbackConfig &C) const {
    obs::RunSpec RS;
    RS.Present = true;
    RS.Scale = Scale;
    RS.SamplingNanos = C.TargetSamplingNanos;
    RS.ProductionNanos = C.TargetProductionNanos;
    RS.Cutoff = C.EarlyCutoff;
    RS.Ordering = C.UsePolicyOrdering;
    RS.Spanning = C.SpanSectionExecutions;
    RS.Repeats = C.SamplingRepeats;
    RS.Aggregate = "mean";
    RS.Hysteresis = C.SwitchHysteresis;
    RS.Drift = C.DriftResampleThreshold;
    RS.SliceNanos = C.ProductionSliceNanos;
    RS.QuarantineStrikes = C.QuarantineStrikes;
    RS.QuarantineWindow = C.QuarantineWindowPhases;
    RS.QuarantineLimit = C.QuarantineOverheadLimit;
    RS.QuarantineBackoff = C.QuarantineBackoffPhases;
    RS.Watchdog = C.WatchdogBadSlices;
    RS.WatchdogLimit = C.WatchdogOverheadLimit;
    RS.Sampler = fb::samplerName(C.Sampler);
    RS.SearchBudget = C.SearchBudgetFraction;
    RS.UcbExplore = C.UcbExplore;
    RS.TrafficSpec = perturb::renderTraffic(Traffic);
    return RS;
  }

  static inline const std::vector<std::pair<std::string, double>> Cases = {
      {"barnes_hut", 0.25}, {"water", 1.0}, {"string", 1.0}, {"kvserve", 16.0}};
  perturb::TrafficSpec Traffic;
};

//===----------------------------------------------------------------------===//
// serving_numa
//===----------------------------------------------------------------------===//

class ServingNuma final : public Workload {
public:
  /// The serving experiment's dash-numa cells at scale 32, seeded as that
  /// experiment seeds them.
  explicit ServingNuma(uint64_t Seed) : Seed(Seed) {
    exp::registerBuiltinExperiments();
    Model = machine("dash-numa");
    exp::RunOptions Opts;
    Opts.Scale = Scale;
    Opts.Procs = Procs;
    Opts.Seed = Seed;
    const unsigned NumShards = apps::kvserve::KvServeConfig().NumShards;
    for (auto &Entry :
         registryJobs({exp::registry().find("serving")}, Opts)) {
      exp::JobConfig &C = Entry.second;
      if (C.getString("machine") != Model->name())
        continue;
      std::string Error;
      const std::optional<perturb::TrafficSpec> T =
          perturb::parseTraffic(C.getString("traffic"), Error);
      if (!T)
        reportFatalError("dynfb-e2e: serving job has a malformed traffic "
                         "spec");
      Engines.try_emplace(C.getString("mix"),
                          perturb::compileTraffic(*T, NumShards, Procs));
      Jobs.push_back(std::move(C));
    }
  }

  void setup() override {
    apps::kvserve::KvServeConfig K;
    K.scale(Scale);
    K.Seed ^= Seed;
    Apps.push_back({"kvserve", std::make_unique<apps::kvserve::KvServeApp>(K)});
  }

  void run(PassOutput &Out, LayerProfile *Profile) override {
    DynVsBest Cells; // Over the traffic mixes.
    for (const exp::JobConfig &C : Jobs) {
      const bool Dynamic = C.getString("variant") == "dynamic";
      const std::string Mix = C.getString("mix");
      const std::string Job =
          Mix + "-" + (Dynamic ? "dynamic" : C.getString("policy"));
      const std::optional<apps::VersionSpec> Spec = specOf(C);
      if (!Spec) {
        Out.Errors.push_back(Job + ": unknown executable");
        continue;
      }
      const fb::RunResult R =
          runJob(*Apps.front().App, Procs, *Spec, *Model,
                 Dynamic ? dynamicConfig() : fb::FeedbackConfig{},
                 &Engines.at(Mix), nullptr, Profile);
      recordRun(Out, Job, R);
      Cells.note(Mix, Dynamic, R.TotalNanos);
    }
    Out.Facts["pass/dyn_vs_best"] = Cells.ratio();
  }

private:
  /// The serving experiment's resilient spanning controller: short
  /// intervals scaled with the workload, drift resampling, hysteresis,
  /// quarantine and the production watchdog.
  static fb::FeedbackConfig dynamicConfig() {
    fb::FeedbackConfig Config;
    Config.SpanSectionExecutions = true;
    Config.TargetSamplingNanos =
        std::max<rt::Nanos>(rt::millisToNanos(0.25),
                            static_cast<rt::Nanos>(2e6 * Scale));
    Config.TargetProductionNanos = 10 * Config.TargetSamplingNanos;
    Config.DriftResampleThreshold = 0.10;
    Config.SwitchHysteresis = 0.02;
    Config.QuarantineStrikes = 2;
    Config.QuarantineOverheadLimit = 0.98;
    Config.WatchdogBadSlices = 3;
    Config.WatchdogOverheadLimit = 0.95;
    return Config;
  }

  static constexpr double Scale = 32.0;
  static constexpr unsigned Procs = 8;
  uint64_t Seed;
  std::vector<exp::JobConfig> Jobs;
  std::map<std::string, perturb::PerturbationEngine> Engines;
};

} // namespace

EmissionProbe Workload::probe() const {
  EmissionProbe P;
  for (const NamedApp &A : Apps)
    P.merge(probeEmission(*A.App, *Model));
  return P;
}

const std::vector<std::string> &e2e::workloadNames() {
  static const std::vector<std::string> Names = {
      "paper_suite", "dynamic_mix", "whatif_replay", "serving_numa"};
  return Names;
}

std::unique_ptr<Workload> e2e::makeWorkload(const std::string &Name,
                                            uint64_t Seed) {
  if (Name == "paper_suite")
    return std::make_unique<PaperSuite>(Seed);
  if (Name == "dynamic_mix")
    return std::make_unique<DynamicMix>(Seed);
  if (Name == "whatif_replay")
    return std::make_unique<WhatifReplay>(Seed);
  if (Name == "serving_numa")
    return std::make_unique<ServingNuma>(Seed);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// The exp phase
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Argv to completion, its standard output sent to standard error
/// (standard output carries only the benchmark's report). Returns the exit
/// status, or -1 when the program could not be started or did not exit.
int runTool(const std::vector<std::string> &Argv) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, STDERR_FILENO, STDOUT_FILENO);
  pid_t Pid = 0;
  const int Error =
      posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Error != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::optional<exp::ResultFile> readResultFile(const std::string &Path,
                                              std::string &Error) {
  std::ifstream Stream(Path);
  if (!Stream) {
    Error = "cannot read '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream Text;
  Text << Stream.rdbuf();
  return exp::parseResultFile(Text.str(), Error);
}

} // namespace

ExpPhase e2e::runExpPhase(const std::string &Tool, const std::string &WorkDir,
                          const std::string &BaselinePath) {
  ExpPhase Phase;
  std::error_code EC;
  std::filesystem::remove_all(WorkDir, EC);
  std::filesystem::create_directories(WorkDir, EC);

  // One `dynfb-bench run` of the paper suite at CI scale, one worker, into
  // WorkDir's cache: wall seconds and the result file it wrote.
  const auto Run = [&](const char *Name, double &Seconds) {
    const std::string Out = WorkDir + "/" + Name + ".json";
    const Clock::time_point Start = Clock::now();
    const int Status = runTool({Tool, "run", "--suite", "paper", "--scale",
                                "0.125", "--jobs", "1", "--cache",
                                WorkDir + "/cache", "--out", Out});
    Seconds = secondsSince(Start);
    std::string Error;
    std::optional<exp::ResultFile> File = readResultFile(Out, Error);
    if (Status != 0)
      Phase.Errors.push_back(format("exp: %s `%s run` exited with status %d",
                                    Name, Tool.c_str(), Status));
    else if (!File)
      Phase.Errors.push_back(format("exp: %s result: %s", Name,
                                    Error.c_str()));
    return Status == 0 ? File : std::nullopt;
  };

  const std::optional<exp::ResultFile> Cold = Run("cold", Phase.ColdSeconds);
  const std::optional<exp::ResultFile> Warm = Run("warm", Phase.WarmSeconds);
  std::filesystem::remove_all(WorkDir, EC);
  if (!Cold || !Warm)
    return Phase;

  Phase.Jobs = Cold->Jobs.size();
  for (const exp::JobRecord &J : Cold->Jobs)
    Phase.JobSeconds += J.WallSeconds;
  Phase.WarmHits = Warm->cachedJobs();
  if (Phase.WarmHits != Warm->Jobs.size())
    Phase.Errors.push_back(format("exp: warm run served %zu of %zu jobs "
                                  "from the cache",
                                  Phase.WarmHits, Warm->Jobs.size()));

  std::string Error;
  const std::optional<exp::ResultFile> Base =
      readResultFile(BaselinePath, Error);
  if (!Base) {
    Phase.Errors.push_back("exp: baseline: " + Error);
    return Phase;
  }
  exp::DiffOptions Opts;
  Opts.RelTol = 0;
  Opts.AbsTol = 0;
  // The suite is simulated, so a change either way is wrong output.
  const exp::DiffReport Report = exp::diffResults(*Base, *Cold, Opts);
  if (!Report.ok(Opts) || Report.Improvements != 0)
    Phase.Errors.push_back("exp: cold paper suite differs from the "
                           "baseline: " +
                           Report.renderText(Opts));
  return Phase;
}

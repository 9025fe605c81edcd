//===- tools/dynfb-run.cpp - Run an application on the simulator -----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Command-line driver:
//
//   dynfb-run --app water --procs 8 --policy dynamic
//   dynfb-run --app barnes_hut --procs 16 --policy aggressive --scale 0.25
//   dynfb-run --app water --sweep             # all versions x 1..16 procs
//   dynfb-run --app water --policy dynamic \
//       --perturb "contend@2s-4s:extra=200us" --drift 0.1
//   dynfb-run --app water --dimensions sync,sched --chunks 8,32 \
//       --policy dynamic                      # 3x3 version space
//   dynfb-run --app water --dimensions sync,sched --chunks 8 --list-versions
//
// Policies: serial, original, bounded, aggressive, dynamic. Version space:
// --dimensions sync[,sched] with --chunks K1,K2,... composing chunked
// scheduling variants into the space; --list-versions prints the resolved
// space and exits. Dynamic-mode options: --sampling <seconds>,
// --production <seconds>, --cutoff, --ordering, --spanning. Robustness
// options: --repeats N, --aggregate mean|median|trimmed, --hysteresis X,
// --drift X, --slice S. Controller resilience (docs/ROBUSTNESS.md):
// --quarantine N, --quarantine-window N, --quarantine-limit X,
// --quarantine-backoff N, --watchdog N, --watchdog-limit X. Fault
// injection: --perturb "<schedule>" (see docs/ROBUSTNESS.md for the
// schedule grammar; schedules are validated against the processor count
// before the run). Streaming traffic: --traffic "<spec>" compiles a
// serving-traffic stream (see perturb/Traffic.h) into the same machinery.
//
// Backends: --backend sim (default, virtual time) or --backend native
// (real host threads; --timescale F converts virtual compute nanoseconds
// to busy-wait nanoseconds, default 0.0005). The native backend ignores
// --machine/--cost pricing and rejects --perturb/--traffic/--sweep/--trace;
// everything else -- policies, the feedback controller, trace export --
// works identically on both.
//
// Observability (default-off; see docs/OBSERVABILITY.md): --trace-out FILE
// writes the run's JSONL adaptation trace (decision log + section + lock
// records, readable by dynfb-report), --chrome-out FILE the same run in
// Chrome trace_event format (chrome://tracing, Perfetto), --metrics-out
// FILE the global metrics registry as JSON, scoped to this run. All three
// work on either backend (native timestamps come from the steady clock).
// Recorded traces stamp the full run configuration into their meta line,
// so --replay TRACE reconstructs and re-drives the run, verifying every
// decision, section and lock record against the recording (docs/REPLAY.md;
// zero divergence and exit 0, or the first mismatching record and exit 1).
//
// Invalid input (unknown application, unknown section in a perturbation
// schedule, malformed schedule or configuration) produces a one-line
// diagnostic on stderr and a nonzero exit status -- never an abort.
//
//===----------------------------------------------------------------------===//

#include "apps/Factory.h"
#include "apps/Harness.h"
#include "exp/Experiment.h"
#include "fb/Sampling.h"
#include "replay/Replay.h"
#include "exp/PaperGrids.h"
#include "obs/Metrics.h"
#include "perturb/Engine.h"
#include "perturb/Traffic.h"
#include "rt/MachineModel.h"
#include "rt/NativeSection.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "xform/CodeSize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace dynfb;
using namespace dynfb::apps;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dynfb-run --app <barnes_hut|water|string|kvserve> "
               "[--procs N] [--policy serial|original|bounded|aggressive|"
               "dynamic] [--scale F] [--dimensions sync[,sched]] "
               "[--chunks K1,K2,...] [--list-versions] [--sampling S] "
               "[--production S] [--cutoff] [--ordering] [--spanning] "
               "[--sweep] [--repeats N] [--aggregate mean|median|trimmed] "
               "[--sampler exhaustive|halving|ucb] [--search-budget F] "
               "[--ucb-explore C] "
               "[--hysteresis X] [--drift X] [--slice S] "
               "[--quarantine N] [--quarantine-window N] "
               "[--quarantine-limit X] [--quarantine-backoff N] "
               "[--watchdog N] [--watchdog-limit X] "
               "[--perturb SCHEDULE] [--traffic SPEC] [--machine NAME] "
               "[--cost Field=nanos[,Field=nanos]] [--backend sim|native] "
               "[--timescale F] [--trace-out FILE] "
               "[--chrome-out FILE] [--metrics-out FILE]\n"
               "       dynfb-run --replay TRACE [--trace-out FILE]\n");
  return 1;
}

/// One-line diagnostic + failure exit code, the graceful path for every
/// input error.
int fail(const std::string &Msg) {
  std::fprintf(stderr, "dynfb-run: error: %s\n", Msg.c_str());
  return 1;
}

/// Writes \p Contents to \p Path; false (with \p Error set) on any I/O
/// failure.
bool writeFile(const std::string &Path, const std::string &Contents,
               std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  const int CloseRc = std::fclose(F);
  if (Written != Contents.size() || CloseRc != 0) {
    Error = "failed writing '" + Path + "'";
    return false;
  }
  return true;
}

/// Reads the whole of \p Path; nullopt (with \p Error set) on failure.
std::optional<std::string> readFile(const std::string &Path,
                                    std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  std::string Out;
  char Buf[64 * 1024];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  const bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError) {
    Error = "failed reading '" + Path + "'";
    return std::nullopt;
  }
  return Out;
}

/// The --replay mode: reconstruct the recorded run from the trace's meta
/// line, re-drive it on a fresh simulator, and verify every record.
int runReplay(const CommandLine &CL, const std::string &ReplayPath) {
  // The replayed configuration comes entirely from the trace; any shaping
  // flag would silently disagree with it. Only --trace-out (re-export of
  // the replayed trace) composes.
  static const char *const Conflicting[] = {
      "app",         "procs",      "policy",
      "scale",       "dimensions", "chunks",
      "list-versions", "sampling", "production",
      "cutoff",      "ordering",   "spanning",
      "sweep",       "repeats",    "aggregate",
      "sampler",     "search-budget", "ucb-explore",
      "hysteresis",  "drift",      "slice",
      "quarantine",  "quarantine-window", "quarantine-limit",
      "quarantine-backoff", "watchdog", "watchdog-limit",
      "perturb",     "traffic",    "machine",
      "cost",        "chrome-out", "metrics-out",
      "backend",     "timescale",  "trace"};
  for (const char *Flag : Conflicting)
    if (CL.has(Flag))
      return fail(format("--replay takes its whole configuration from the "
                         "trace; --%s cannot be combined with it",
                         Flag));

  std::string Error;
  const std::optional<std::string> Text = readFile(ReplayPath, Error);
  if (!Text)
    return fail(Error);
  const std::optional<obs::RunTrace> Recorded =
      obs::parseJsonl(*Text, Error);
  if (!Recorded)
    return fail("malformed trace '" + ReplayPath + "': " + Error);

  std::printf("replay: %s, policy %s, %u procs, machine %s\n",
              Recorded->Meta.App.c_str(), Recorded->Meta.Policy.c_str(),
              Recorded->Meta.Procs,
              Recorded->Meta.Machine.empty()
                  ? "dash-flat"
                  : Recorded->Meta.Machine.c_str());

  const std::optional<replay::ReplayResult> Result =
      replay::replayTrace(*Recorded, Error);
  if (!Result)
    return fail("cannot replay '" + ReplayPath + "': " + Error);

  const std::string TraceOut = CL.getString("trace-out", "");
  if (!TraceOut.empty() &&
      !writeFile(TraceOut, obs::toJsonl(Result->Replayed), Error))
    return fail(Error);

  if (Result->diverged()) {
    std::fprintf(stderr, "dynfb-run: replay DIVERGED at %s\n",
                 Result->Divergence.c_str());
    return 1;
  }
  std::printf("replay: zero divergence (%zu decisions, %zu sections, "
              "%zu locks verified)\n",
              Recorded->Decisions.size(), Recorded->Sections.size(),
              Recorded->Locks.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.has("version")) {
    std::printf("dynfb-run %s (result schema %lld, trace schema %lld)\n",
                buildHash(),
                static_cast<long long>(exp::ResultSchemaVersion),
                static_cast<long long>(obs::TraceSchemaVersion));
    return 0;
  }
  // Strict flag validation up front: the accepted flags span every branch
  // below, so a typo ('--chunk') dies here instead of being ignored.
  if (!rejectUnknownFlags(
          CL, "dynfb-run",
          {"app", "procs", "policy", "scale", "dimensions", "chunks",
           "list-versions", "sampling", "production", "cutoff", "ordering",
           "spanning", "sweep", "repeats", "aggregate", "sampler",
           "search-budget", "ucb-explore", "hysteresis",
           "drift", "slice", "quarantine", "quarantine-window",
           "quarantine-limit", "quarantine-backoff", "watchdog",
           "watchdog-limit", "perturb", "traffic", "machine", "cost",
           "trace-out", "chrome-out", "metrics-out", "backend", "timescale",
           "trace", "replay", "version"},
          "no arguments"))
    return 2;
  const std::string ReplayPath = CL.getString("replay", "");
  if (!ReplayPath.empty())
    return runReplay(CL, ReplayPath);
  const std::string AppName = CL.getString("app", "");
  if (AppName.empty())
    return usage();

  // Version space: the cross product of the requested adaptation
  // dimensions (default: the three synchronization policies under dynamic
  // self-scheduling).
  xform::VersionSpace Space;
  const std::string Dimensions = CL.getString("dimensions", "");
  const std::string Chunks = CL.getString("chunks", "");
  if (!Dimensions.empty() || !Chunks.empty()) {
    std::string Error;
    std::optional<xform::VersionSpace> Parsed = xform::VersionSpace::parse(
        Dimensions.empty() ? "sync" : Dimensions, Chunks, Error);
    if (!Parsed)
      return fail(Error);
    Space = std::move(*Parsed);
  }

  // A non-finite or non-positive scale would size the workload from
  // garbage: NaN reaches the simulator as a negative duration, a negative
  // scale as a huge allocation.
  const double Scale = CL.getDouble("scale", 1.0);
  if (!(std::isfinite(Scale) && Scale > 0)) {
    fail(format("--scale must be a finite number > 0 (got %g)", Scale));
    return 2;
  }
  std::unique_ptr<App> TheApp = createApp(AppName, Scale, Space);
  if (!TheApp)
    return fail("unknown application '" + AppName +
                "' (expected barnes_hut, water, string or kvserve)");

  // Machine model selection (--machine) and per-field cost overrides
  // (--cost). The default is the flat DASH-like machine of every paper
  // table; plain runs print nothing extra and stay byte-identical.
  const std::string MachineName = CL.getString("machine", "dash-flat");
  std::unique_ptr<rt::MachineModel> Machine =
      rt::createMachineModel(MachineName);
  if (!Machine) {
    const std::string Near =
        closestMatch(MachineName, rt::machineModelNames());
    std::string Known;
    for (const std::string &Name : rt::machineModelNames())
      Known += (Known.empty() ? "" : ", ") + Name;
    return fail("unknown machine model '" + MachineName + "'" +
                (Near.empty() ? "" : " (did you mean '" + Near + "'?)") +
                "; known models: " + Known);
  }
  const std::string CostSpec = CL.getString("cost", "");
  if (!CostSpec.empty()) {
    std::string Error;
    if (!rt::applyCostOverrides(*Machine, CostSpec, Error))
      return fail(Error);
  }

  // Execution backend: the virtual-time simulator (default) or real host
  // threads. Everything downstream of backend selection is one shared path.
  const std::string BackendName = CL.getString("backend", "sim");
  if (BackendName != "sim" && BackendName != "native")
    return fail("unknown backend '" + BackendName +
                "' (expected sim or native)");
  const bool Native = BackendName == "native";
  const double TimeScale = CL.getDouble("timescale", 0.0005);
  if (Native && TimeScale <= 0)
    return fail(format(
        "--timescale must be a positive virtual-to-real factor (got %g; "
        "did you mean the default 0.0005, which runs 1 ms of virtual "
        "compute as a 0.5 us busy-wait?)",
        TimeScale));
  if (!Native && CL.has("timescale"))
    return fail("--timescale only applies to --backend native (the "
                "simulator already runs in virtual time)");

  if (!Native) {
    if (MachineName != "dash-flat" || !CostSpec.empty())
      std::printf("machine: %s (%s)\n  %s\n", Machine->name().c_str(),
                  Machine->description().c_str(),
                  Machine->paramsString().c_str());
  } else if (MachineName != "dash-flat" || !CostSpec.empty()) {
    std::printf("note: --machine/--cost price the simulated machine; the "
                "native backend runs on real hardware and ignores them\n");
  }

  if (CL.getBool("list-versions", false)) {
    const xform::CodeSizeModel SizeModel;
    const uint64_t SerialBase = 64 * 1024;
    const double SerialBytes = static_cast<double>(xform::serialExecutableBytes(
        TheApp->program(), SizeModel, SerialBase));
    Table T(format("%s: version space with %u versions", AppName.c_str(),
                   static_cast<unsigned>(Space.size())));
    T.setHeader({"name", "sync", "sched", "code size (vs serial)"});
    for (const xform::VersionDescriptor &D : Space.descriptors()) {
      const uint64_t Bytes = xform::fixedExecutableBytes(
          TheApp->program(), SizeModel, SerialBase, D);
      T.addRow({D.name(), xform::policyName(D.Policy), D.Sched.name(),
                format("%.2f", static_cast<double>(Bytes) / SerialBytes)});
    }
    std::fputs(T.renderText().c_str(), stdout);
    return 0;
  }

  // Native defaults shrink the feedback intervals: targets are real wall
  // time there, and a 100 s production interval would outlive the scaled
  // workload. Explicit --sampling/--production always win.
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = rt::secondsToNanos(
      CL.getDouble("sampling", Native ? 0.005 : 0.01));
  Config.TargetProductionNanos = rt::secondsToNanos(
      CL.getDouble("production", Native ? 0.2 : 100.0));
  Config.EarlyCutoff = CL.getBool("cutoff", false);
  Config.UsePolicyOrdering = CL.getBool("ordering", false);
  Config.SpanSectionExecutions = CL.getBool("spanning", false);
  if (Config.TargetSamplingNanos <= 0)
    return fail("--sampling must be a positive number of seconds");
  if (Config.TargetProductionNanos <= 0)
    return fail("--production must be a positive number of seconds");

  // Robustness knobs (defaults leave the paper's algorithm untouched).
  const int64_t Repeats = CL.getInt("repeats", 1);
  if (Repeats < 1)
    return fail("--repeats must be at least 1");
  Config.SamplingRepeats = static_cast<unsigned>(Repeats);
  const std::string Aggregate = CL.getString("aggregate", "mean");
  if (Aggregate == "mean")
    Config.SamplingAggregation = rt::OverheadAggregation::Mean;
  else if (Aggregate == "median")
    Config.SamplingAggregation = rt::OverheadAggregation::Median;
  else if (Aggregate == "trimmed")
    Config.SamplingAggregation = rt::OverheadAggregation::TrimmedMean;
  else
    return fail("--aggregate must be mean, median or trimmed (got '" +
                Aggregate + "')");

  // Sampling strategy (the sub-linear version-search seam; default is the
  // paper's exhaustive loop).
  const std::string SamplerName = CL.getString("sampler", "exhaustive");
  const std::optional<fb::SamplerKind> Sampler =
      fb::parseSamplerName(SamplerName);
  if (!Sampler) {
    const std::string Near = closestMatch(SamplerName, fb::samplerNames());
    std::string Known;
    for (const std::string &Name : fb::samplerNames())
      Known += (Known.empty() ? "" : ", ") + Name;
    return fail("unknown sampler '" + SamplerName + "'" +
                (Near.empty() ? "" : " (did you mean '" + Near + "'?)") +
                "; known samplers: " + Known);
  }
  Config.Sampler = *Sampler;
  if (CL.has("search-budget") && Config.Sampler == fb::SamplerKind::Exhaustive)
    return fail("--search-budget only applies to --sampler halving or ucb "
                "(exhaustive always measures every version)");
  Config.SearchBudgetFraction = CL.getDouble("search-budget", 0.5);
  if (Config.SearchBudgetFraction <= 0.0 ||
      Config.SearchBudgetFraction > 1.0)
    return fail("--search-budget must be a fraction of the exhaustive "
                "sampling cost in (0, 1]");
  if (CL.has("ucb-explore") && Config.Sampler != fb::SamplerKind::Ucb)
    return fail("--ucb-explore only applies to --sampler ucb");
  Config.UcbExplore = CL.getDouble("ucb-explore", 2.0);
  if (Config.UcbExplore < 0.0)
    return fail("--ucb-explore must be a non-negative exploration constant");

  Config.SwitchHysteresis = CL.getDouble("hysteresis", 0.0);
  if (Config.SwitchHysteresis < 0.0 || Config.SwitchHysteresis >= 1.0)
    return fail("--hysteresis must be an overhead margin in [0, 1)");
  Config.DriftResampleThreshold = CL.getDouble("drift", 0.0);
  if (Config.DriftResampleThreshold < 0.0 ||
      Config.DriftResampleThreshold >= 1.0)
    return fail("--drift must be an overhead margin in [0, 1)");
  const double SliceSeconds = CL.getDouble("slice", 0.0);
  if (SliceSeconds < 0.0)
    return fail("--slice must be a non-negative number of seconds");
  Config.ProductionSliceNanos = rt::secondsToNanos(SliceSeconds);

  // Controller resilience knobs (docs/ROBUSTNESS.md; defaults off).
  const int64_t Quarantine = CL.getInt("quarantine", 0);
  if (Quarantine < 0)
    return fail("--quarantine must be a non-negative strike count "
                "(0 disables)");
  Config.QuarantineStrikes = static_cast<unsigned>(Quarantine);
  const int64_t QuarantineWindow = CL.getInt("quarantine-window", 8);
  if (QuarantineWindow < 1)
    return fail("--quarantine-window must be at least 1 sampling phase");
  Config.QuarantineWindowPhases = static_cast<unsigned>(QuarantineWindow);
  Config.QuarantineOverheadLimit = CL.getDouble("quarantine-limit", 1.0);
  if (Config.QuarantineOverheadLimit <= 0.0 ||
      Config.QuarantineOverheadLimit > 1.0)
    return fail("--quarantine-limit must be an overhead in (0, 1]");
  const int64_t QuarantineBackoff = CL.getInt("quarantine-backoff", 4);
  if (QuarantineBackoff < 1)
    return fail("--quarantine-backoff must be at least 1 sampling phase");
  Config.QuarantineBackoffPhases = static_cast<unsigned>(QuarantineBackoff);
  Config.QuarantineBackoffMaxPhases = std::max(
      Config.QuarantineBackoffMaxPhases, Config.QuarantineBackoffPhases);
  const int64_t Watchdog = CL.getInt("watchdog", 0);
  if (Watchdog < 0)
    return fail("--watchdog must be a non-negative production-interval "
                "count (0 disables)");
  Config.WatchdogBadSlices = static_cast<unsigned>(Watchdog);
  Config.WatchdogOverheadLimit = CL.getDouble("watchdog-limit", 0.9);
  if (Config.WatchdogOverheadLimit <= 0.0 ||
      Config.WatchdogOverheadLimit > 1.0)
    return fail("--watchdog-limit must be an overhead in (0, 1]");

  // Perturbation schedules are validated against the processor count the
  // run will actually use: --procs for a single run, the largest paper
  // processor count for --sweep.
  const int64_t ProcsArg = CL.getInt("procs", 8);
  if (ProcsArg < 1 || ProcsArg > 1024)
    return fail("--procs must be between 1 and 1024");
  const unsigned Procs = static_cast<unsigned>(ProcsArg);
  const unsigned ValidationProcs =
      CL.getBool("sweep", false)
          ? *std::max_element(PaperProcCounts.begin(), PaperProcCounts.end())
          : Procs;

  // Fault-injection schedule (see docs/ROBUSTNESS.md for the grammar) or
  // compiled serving traffic (see perturb/Traffic.h); both feed the same
  // perturbation engine.
  std::unique_ptr<perturb::PerturbationEngine> Perturb;
  const std::string PerturbSpec = CL.getString("perturb", "");
  const std::string TrafficSpec = CL.getString("traffic", "");
  if (Native && (!PerturbSpec.empty() || !TrafficSpec.empty()))
    return fail("--perturb/--traffic require the simulator backend (fault "
                "injection perturbs the simulated machine)");
  if (!PerturbSpec.empty() && !TrafficSpec.empty())
    return fail("--perturb and --traffic are mutually exclusive (compiled "
                "traffic already is a perturbation schedule)");
  if (!PerturbSpec.empty()) {
    std::string Error;
    std::optional<perturb::PerturbationSchedule> Schedule =
        perturb::parseSchedule(PerturbSpec, Error);
    if (!Schedule)
      return fail("malformed --perturb schedule: " + Error);
    for (const std::string &Section : Schedule->referencedSections())
      if (!TheApp->program().find(Section))
        return fail("--perturb references unknown section '" + Section +
                    "' of application '" + AppName + "'");
    if (!perturb::validateSchedule(*Schedule, ValidationProcs, Error))
      return fail("invalid --perturb schedule: " + Error);
    Perturb =
        std::make_unique<perturb::PerturbationEngine>(std::move(*Schedule));
    std::printf("perturbation: %s\n",
                perturb::renderSchedule(Perturb->schedule()).c_str());
  } else if (!TrafficSpec.empty()) {
    std::string Error;
    const std::optional<perturb::TrafficSpec> Traffic =
        perturb::parseTraffic(TrafficSpec, Error);
    if (!Traffic)
      return fail("malformed --traffic spec: " + Error);
    // The traffic's shard locks are the lock objects of the app's first
    // parallel section (kvserve: the store shards).
    const auto &Sections = TheApp->program().Sections;
    const unsigned NumShards =
        Sections.empty() ? 0
                         : TheApp->binding(Sections.front().Name)
                               .objectCount();
    perturb::PerturbationSchedule Schedule =
        perturb::compileTraffic(*Traffic, NumShards, ValidationProcs);
    if (!perturb::validateSchedule(Schedule, ValidationProcs, Error))
      return fail("internal error: compiled traffic schedule invalid: " +
                  Error);
    std::printf("traffic: %s -> %u events over %u shard locks\n",
                perturb::renderTraffic(*Traffic).c_str(),
                static_cast<unsigned>(Schedule.Events.size()), NumShards);
    Perturb =
        std::make_unique<perturb::PerturbationEngine>(std::move(Schedule));
  }

  // Observability exports, all default-off so a plain run's output stays
  // byte-identical to the seed.
  const std::string TraceOut = CL.getString("trace-out", "");
  const std::string ChromeOut = CL.getString("chrome-out", "");
  const std::string MetricsOut = CL.getString("metrics-out", "");
  const bool WantRunTrace = !TraceOut.empty() || !ChromeOut.empty();
  if (!MetricsOut.empty())
    obs::globalMetrics().reset(); // Scope the export to this invocation.
  auto WriteMetrics = [&]() -> std::optional<std::string> {
    if (MetricsOut.empty())
      return std::nullopt;
    std::string Error;
    if (!writeFile(MetricsOut, obs::globalMetrics().toJson(), Error))
      return Error;
    return std::nullopt;
  };

  if (CL.getBool("sweep", false)) {
    if (Native)
      return fail("--sweep requires the simulator backend (for native "
                  "grids, see dynfb-bench run --exp backend_concordance)");
    if (WantRunTrace)
      return fail("--trace-out/--chrome-out apply to a single run, not "
                  "--sweep");
    Table T(AppName + ": execution times (seconds)");
    T.setHeader(exp::versionByProcsHeader(PaperProcCounts));
    auto Seconds = [&](unsigned N, const VersionSpec &Spec) {
      return rt::nanosToSeconds(runApp(*TheApp, N, Spec, *Machine, Config,
                                       nullptr, Perturb.get())
                                    .TotalNanos);
    };
    for (const xform::VersionDescriptor &D : Space.descriptors()) {
      std::vector<std::string> Row{D.name()};
      for (unsigned N : PaperProcCounts)
        Row.push_back(formatDouble(Seconds(N, VersionSpec::fixed(D)), 2));
      T.addRow(Row);
    }
    std::vector<std::string> Dyn{"Dynamic"};
    for (unsigned N : PaperProcCounts)
      Dyn.push_back(
          formatDouble(Seconds(N, VersionSpec::dynamicFeedback()), 2));
    T.addRow(Dyn);
    std::fputs(T.renderText().c_str(), stdout);
    if (std::optional<std::string> Error = WriteMetrics())
      return fail(*Error);
    return 0;
  }

  const std::string PolicyName = CL.getString("policy", "dynamic");

  VersionSpec Spec = VersionSpec::dynamicFeedback();
  if (PolicyName == "serial")
    Spec = VersionSpec::serial();
  else if (PolicyName == "original")
    Spec = VersionSpec::fixed(xform::PolicyKind::Original);
  else if (PolicyName == "bounded")
    Spec = VersionSpec::fixed(xform::PolicyKind::Bounded);
  else if (PolicyName == "aggressive")
    Spec = VersionSpec::fixed(xform::PolicyKind::Aggressive);
  else if (PolicyName != "dynamic")
    return fail("unknown policy '" + PolicyName +
                "' (expected serial, original, bounded, aggressive or "
                "dynamic)");

  fb::PolicyHistory History;
  RunObservation Obs;
  Obs.CollectSectionTraces = WantRunTrace;
  const BackendOptions BO =
      Native ? BackendOptions::native(TimeScale) : BackendOptions::sim();
  const fb::RunResult R =
      runApp(*TheApp, Procs, Spec, *Machine, Config,
             Config.UsePolicyOrdering ? &History : nullptr, Perturb.get(),
             WantRunTrace ? &Obs : nullptr, BO);

  if (Native)
    std::printf("%s, %u procs, policy %s [native backend, timescale %g]: "
                "%.3f s real\n",
                AppName.c_str(), Procs, PolicyName.c_str(), TimeScale,
                rt::nanosToSeconds(R.TotalNanos));
  else
    std::printf("%s, %u procs, policy %s: %.3f s\n", AppName.c_str(), Procs,
                PolicyName.c_str(), rt::nanosToSeconds(R.TotalNanos));
  std::printf("  acquire/release pairs: %s\n",
              withThousandsSep(R.ParallelStats.AcquireReleasePairs).c_str());
  std::printf("  locking overhead: %s, waiting: %s (proportion %.3f)\n",
              formatSeconds(rt::nanosToSeconds(R.ParallelStats.LockOpNanos))
                  .c_str(),
              formatSeconds(rt::nanosToSeconds(R.ParallelStats.WaitNanos))
                  .c_str(),
              R.ParallelStats.waitingProportion());
  if (Spec.F == Flavour::Dynamic) {
    for (const fb::SectionExecutionTrace &T : R.Occurrences) {
      if (T.ChosenVersions.empty())
        continue;
      const xform::VersionedSection *VS =
          TheApp->program().find(T.SectionName);
      std::printf("  %s -> %s (sampling phases %u, sampled intervals %u)\n",
                  T.SectionName.c_str(),
                  VS->Versions[*T.dominantVersion()].label().c_str(),
                  T.SamplingPhases, T.SampledIntervals);
      if (T.DegenerateIntervals || T.EarlyResamples || T.HysteresisHolds)
        std::printf("    robustness: %u degenerate intervals discarded, "
                    "%u early resamples, %u hysteresis holds\n",
                    T.DegenerateIntervals, T.EarlyResamples,
                    T.HysteresisHolds);
      if (T.Quarantines || T.Reprobes || T.WatchdogResamples ||
          T.DegradedPhases)
        std::printf("    resilience: %u quarantines, %u re-probes, "
                    "%u watchdog resamples, %u degraded phases\n",
                    T.Quarantines, T.Reprobes, T.WatchdogResamples,
                    T.DegradedPhases);
    }
  }

  if (WantRunTrace) {
    obs::RunTrace Trace =
        buildRunTrace(AppName, Procs, PolicyName, R, &Obs,
                      Native ? rt::BackendKind::Native : rt::BackendKind::Sim);
    if (!Native) {
      // Machine pricing is a simulator concept; native traces carry no
      // machine fields (real hardware set the prices).
      Trace.Meta.Machine = Machine->name();
      Trace.Meta.MachineParams = Machine->paramsString();
    }
    // Self-description: the full run configuration, so the trace is
    // executable (dynfb-run --replay) and dynfb-report can print the run's
    // provenance. Values are the resolved ones the run actually used.
    obs::RunSpec &RS = Trace.Meta.Spec;
    RS.Present = true;
    RS.Scale = Scale;
    RS.Dimensions = Dimensions;
    RS.Chunks = Chunks;
    RS.SamplingNanos = Config.TargetSamplingNanos;
    RS.ProductionNanos = Config.TargetProductionNanos;
    RS.Cutoff = Config.EarlyCutoff;
    RS.Ordering = Config.UsePolicyOrdering;
    RS.Spanning = Config.SpanSectionExecutions;
    RS.Repeats = Config.SamplingRepeats;
    RS.Aggregate = Aggregate;
    RS.Hysteresis = Config.SwitchHysteresis;
    RS.Drift = Config.DriftResampleThreshold;
    RS.SliceNanos = Config.ProductionSliceNanos;
    RS.QuarantineStrikes = Config.QuarantineStrikes;
    RS.QuarantineWindow = Config.QuarantineWindowPhases;
    RS.QuarantineLimit = Config.QuarantineOverheadLimit;
    RS.QuarantineBackoff = Config.QuarantineBackoffPhases;
    RS.Watchdog = Config.WatchdogBadSlices;
    RS.WatchdogLimit = Config.WatchdogOverheadLimit;
    RS.Sampler = fb::samplerName(Config.Sampler);
    RS.SearchBudget = Config.SearchBudgetFraction;
    RS.UcbExplore = Config.UcbExplore;
    RS.PerturbSpec = PerturbSpec;
    RS.TrafficSpec = TrafficSpec;
    RS.CostOverrides = CostSpec;
    RS.TimeScale = Native ? TimeScale : 0.0;
    std::string Error;
    if (!TraceOut.empty() && !writeFile(TraceOut, obs::toJsonl(Trace), Error))
      return fail(Error);
    if (!ChromeOut.empty() &&
        !writeFile(ChromeOut, obs::toChromeTrace(Trace), Error))
      return fail(Error);
  }

  if (Native && CL.getBool("trace", false))
    return fail("--trace (interval contention report) requires the "
                "simulator backend; use --trace-out FILE, which works on "
                "both backends");
  if (CL.getBool("trace", false) && Spec.F == Flavour::Fixed) {
    // Contention report: re-run each section with an interval trace.
    auto Backend = TheApp->makeSimBackend(Procs, *Machine, Spec);
    for (const xform::VersionedSection &VS : TheApp->program().Sections) {
      auto Runner = Backend->beginSectionSim(VS.Name);
      rt::IntervalTrace Trace;
      Runner->attachTrace(&Trace);
      while (!Runner->done())
        Runner->runInterval(0, std::numeric_limits<rt::Nanos>::max() / 4);
      std::printf("\nsection %s ", VS.Name.c_str());
      std::fputs(Trace.renderText().c_str(), stdout);
    }
  }
  if (std::optional<std::string> Error = WriteMetrics())
    return fail(*Error);
  return 0;
}

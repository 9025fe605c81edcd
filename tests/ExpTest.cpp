//===- tests/ExpTest.cpp - Experiment orchestration tests ------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Covers the src/exp subsystem: cache-key stability (identical configs
// hash identically; any identity-bearing change moves the key), the
// fork-isolated scheduler (crash isolation, timeout, bounded retry,
// deterministic result ordering), the result-file round trip and the
// noise-aware regression gate.
//
//===----------------------------------------------------------------------===//

#include "exp/Cache.h"
#include "exp/Diff.h"
#include "exp/Result.h"
#include "exp/Scheduler.h"
#include "support/StringUtils.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <unistd.h>

using namespace dynfb;
using namespace dynfb::exp;

namespace {

Experiment testExperiment() {
  Experiment E;
  E.Name = "test_experiment";
  E.Suite = "test";
  E.Description = "synthetic";
  E.MetricNames = {"seconds", "pairs"};
  return E;
}

JobConfig testConfig() {
  JobConfig C;
  C.set("app", "water");
  C.set("policy", "Bounded");
  C.setInt("procs", 8);
  C.setDouble("scale", 0.25);
  C.setInt("seed", 7);
  return C;
}

//===----------------------------------------------------------------------===//
// JobConfig canonical form
//===----------------------------------------------------------------------===//

TEST(JobConfig, CanonicalIsInsertionOrderIndependent) {
  JobConfig A = testConfig();
  JobConfig B;
  B.setInt("seed", 7);
  B.setDouble("scale", 0.25);
  B.setInt("procs", 8);
  B.set("policy", "Bounded");
  B.set("app", "water");
  EXPECT_EQ(A.canonical(), B.canonical());
  EXPECT_EQ(A, B);
}

TEST(JobConfig, DoubleValuesRoundTrip) {
  JobConfig C;
  C.setDouble("scale", 0.1); // Not exactly representable.
  EXPECT_DOUBLE_EQ(C.getDouble("scale", 0.0), 0.1);
  C.setDouble("x", 1.0 / 3.0);
  EXPECT_EQ(C.getDouble("x", 0.0), 1.0 / 3.0);
}

TEST(JobConfig, LabelUsesInsertionOrder) {
  JobConfig C;
  C.set("b", "2");
  C.set("a", "1");
  EXPECT_EQ(C.label(), "b=2,a=1");
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(CacheKey, IdenticalInputsHashEqual) {
  const Experiment E = testExperiment();
  const CacheKey K1 = makeCacheKey(E, testConfig(), "build1");
  const CacheKey K2 = makeCacheKey(E, testConfig(), "build1");
  EXPECT_EQ(K1.Hash, K2.Hash);
  EXPECT_EQ(K1.hex(), K2.hex());
  EXPECT_EQ(K1.hex().size(), 16u);
}

TEST(CacheKey, AnyIdentityChangeMovesTheKey) {
  const Experiment E = testExperiment();
  const uint64_t Base = makeCacheKey(E, testConfig(), "build1").Hash;

  JobConfig Seeded = testConfig();
  Seeded.setInt("seed", 8);
  EXPECT_NE(makeCacheKey(E, Seeded, "build1").Hash, Base);

  JobConfig Scaled = testConfig();
  Scaled.setDouble("scale", 0.5);
  EXPECT_NE(makeCacheKey(E, Scaled, "build1").Hash, Base);

  JobConfig Policy = testConfig();
  Policy.set("policy", "Aggressive");
  EXPECT_NE(makeCacheKey(E, Policy, "build1").Hash, Base);

  // Metric schema change (a rename) moves every key of the experiment.
  Experiment Renamed = testExperiment();
  Renamed.MetricNames = {"seconds", "lock_pairs"};
  EXPECT_NE(makeCacheKey(Renamed, testConfig(), "build1").Hash, Base);

  // A different experiment name is a different key space.
  Experiment Other = testExperiment();
  Other.Name = "other_experiment";
  EXPECT_NE(makeCacheKey(Other, testConfig(), "build1").Hash, Base);

  // A new build invalidates everything.
  EXPECT_NE(makeCacheKey(E, testConfig(), "build2").Hash, Base);
}

TEST(CacheKey, StoreAndLoadRoundTrip) {
  char Template[] = "/tmp/dynfb-cache-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  const ResultCache Cache(Template);
  const Experiment E = testExperiment();
  const CacheKey Key = makeCacheKey(E, testConfig(), "build1");

  EXPECT_FALSE(Cache.load(Key).has_value()); // Cold.

  JobResult R;
  R.add("seconds", 12.5);
  R.add("pairs", 1048576.0);
  std::string Error;
  ASSERT_TRUE(Cache.store(Key, E, testConfig(), "build1", R, Error)) << Error;

  const std::optional<JobResult> Loaded = Cache.load(Key);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(Loaded->Ok);
  EXPECT_EQ(Loaded->metric("seconds"), 12.5);
  EXPECT_EQ(Loaded->metric("pairs"), 1048576.0);

  // A different key is still a miss.
  const CacheKey Other = makeCacheKey(E, testConfig(), "build2");
  EXPECT_FALSE(Cache.load(Other).has_value());
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

SchedulerOptions twoWorkers() {
  SchedulerOptions Opts;
  Opts.Workers = 2;
  return Opts;
}

TEST(Scheduler, RunsJobsAndPreservesOrder) {
  const std::vector<JobOutcome> Outcomes = runJobs(
      8,
      [](size_t Job, unsigned) {
        JobResult R;
        R.add("value", static_cast<double>(Job) * 10.0);
        return R;
      },
      twoWorkers());
  ASSERT_EQ(Outcomes.size(), 8u);
  for (size_t I = 0; I < Outcomes.size(); ++I) {
    EXPECT_TRUE(Outcomes[I].ok()) << "job " << I;
    EXPECT_EQ(Outcomes[I].Result.metric("value"),
              static_cast<double>(I) * 10.0);
  }
}

TEST(Scheduler, CrashingJobDoesNotKillTheSweep) {
  const std::vector<JobOutcome> Outcomes = runJobs(
      4,
      [](size_t Job, unsigned) {
        if (Job == 1)
          std::abort(); // Dies in the child; the parent must survive.
        JobResult R;
        R.add("value", 1.0);
        return R;
      },
      twoWorkers());
  ASSERT_EQ(Outcomes.size(), 4u);
  EXPECT_EQ(Outcomes[1].Status, JobStatus::Crashed);
  for (size_t I : {0u, 2u, 3u}) {
    EXPECT_EQ(Outcomes[I].Status, JobStatus::Ok) << "job " << I;
    EXPECT_EQ(Outcomes[I].Result.metric("value"), 1.0);
  }
}

TEST(Scheduler, TimeoutKillsOverrunningJobs) {
  SchedulerOptions Opts = twoWorkers();
  Opts.TimeoutSeconds = 0.2;
  const std::vector<JobOutcome> Outcomes = runJobs(
      2,
      [](size_t Job, unsigned) {
        if (Job == 0)
          ::sleep(60); // Must be SIGKILLed, not waited for.
        JobResult R;
        R.add("value", 1.0);
        return R;
      },
      Opts);
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::TimedOut);
  EXPECT_EQ(Outcomes[1].Status, JobStatus::Ok);
}

TEST(Scheduler, BoundedRetrySucceedsOnSecondAttempt) {
  SchedulerOptions Opts = twoWorkers();
  Opts.Retries = 2;
  const std::vector<JobOutcome> Outcomes = runJobs(
      1,
      [](size_t, unsigned Attempt) {
        if (Attempt == 0)
          std::abort(); // First attempt crashes, retry succeeds.
        JobResult R;
        R.add("attempt", static_cast<double>(Attempt));
        return R;
      },
      Opts);
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Ok);
  EXPECT_EQ(Outcomes[0].Attempts, 2u);
  EXPECT_EQ(Outcomes[0].Result.metric("attempt"), 1.0);
}

TEST(Scheduler, RetriesAreBounded) {
  SchedulerOptions Opts = twoWorkers();
  Opts.Retries = 1;
  const std::vector<JobOutcome> Outcomes =
      runJobs(1, [](size_t, unsigned) -> JobResult { std::abort(); }, Opts);
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Crashed);
  EXPECT_EQ(Outcomes[0].Attempts, 2u); // Initial attempt + 1 retry.
}

TEST(Scheduler, CrashReportNamesSignalAndQuotesStderr) {
  const std::vector<JobOutcome> Outcomes = runJobs(
      1,
      [](size_t, unsigned) -> JobResult {
        std::fprintf(stderr, "first diagnostic line\n");
        std::fprintf(stderr, "frobnication failed: shard 7 poisoned\n");
        std::abort();
      },
      twoWorkers());
  ASSERT_EQ(Outcomes.size(), 1u);
  ASSERT_EQ(Outcomes[0].Status, JobStatus::Crashed);
  const std::string &Error = Outcomes[0].Result.Error;
  // The signal is named, not just numbered ...
  EXPECT_NE(Error.find("signal 6"), std::string::npos) << Error;
  EXPECT_NE(Error.find("Abort"), std::string::npos) << Error;
  // ... and the report quotes the child's final stderr output.
  EXPECT_NE(Error.find("last stderr output:"), std::string::npos) << Error;
  EXPECT_NE(Error.find("shard 7 poisoned"), std::string::npos) << Error;
}

TEST(Scheduler, CrashReportKeepsOnlyTheStderrTail) {
  const std::vector<JobOutcome> Outcomes = runJobs(
      1,
      [](size_t, unsigned) -> JobResult {
        for (int I = 0; I < 100; ++I)
          std::fprintf(stderr, "line %d\n", I);
        std::abort();
      },
      twoWorkers());
  ASSERT_EQ(Outcomes.size(), 1u);
  ASSERT_EQ(Outcomes[0].Status, JobStatus::Crashed);
  const std::string &Error = Outcomes[0].Result.Error;
  // Last ~20 lines survive; the beginning is dropped.
  EXPECT_NE(Error.find("line 99"), std::string::npos) << Error;
  EXPECT_NE(Error.find("line 80"), std::string::npos) << Error;
  EXPECT_EQ(Error.find("line 79\n"), std::string::npos) << Error;
  EXPECT_EQ(Error.find("line 0\n"), std::string::npos) << Error;
}

TEST(Scheduler, JobLevelFailureIsReportedNotRetried) {
  SchedulerOptions Opts = twoWorkers();
  Opts.Retries = 3;
  const std::vector<JobOutcome> Outcomes = runJobs(
      1,
      [](size_t, unsigned) {
        JobResult R;
        R.Ok = false;
        R.Error = "bad config";
        return R;
      },
      Opts);
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Failed);
  EXPECT_EQ(Outcomes[0].Attempts, 1u); // Deterministic failure: no retry.
  EXPECT_EQ(Outcomes[0].Result.Error, "bad config");
}

TEST(Scheduler, JobResultJsonRoundTrip) {
  JobResult R;
  R.add("seconds", 1.0 / 3.0);
  R.add("pairs", 123456.0);
  JobResult Back;
  std::string Error;
  ASSERT_TRUE(jobResultFromJson(jobResultToJson(R), Back, Error)) << Error;
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.metric("seconds"), 1.0 / 3.0);
  EXPECT_EQ(Back.metric("pairs"), 123456.0);

  JobResult Fail;
  Fail.Ok = false;
  Fail.Error = "with \"quotes\" and\nnewline";
  ASSERT_TRUE(jobResultFromJson(jobResultToJson(Fail), Back, Error)) << Error;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error, Fail.Error);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Registry, BuiltinExperimentsRegisterOnce) {
  registerBuiltinExperiments();
  registerBuiltinExperiments(); // Idempotent.
  ASSERT_NE(registry().find("table2_fig4_barnes_hut"), nullptr);
  ASSERT_NE(registry().find("table7_fig6_water"), nullptr);
  ASSERT_NE(registry().find("version_space"), nullptr);
  ASSERT_NE(registry().find("perturbation_adaptivity"), nullptr);
  EXPECT_EQ(registry().find("no_such_experiment"), nullptr);

  EXPECT_EQ(registry().suite("paper").size(), 4u);
  EXPECT_GE(registry().suite("all").size(), 6u);
}

TEST(Registry, EveryJobCarriesItsMachine) {
  registerBuiltinExperiments();
  RunOptions Opts;
  Opts.Scale = 0.125;
  Opts.Machine = "dash-numa";
  for (const Experiment *E : registry().suite("all")) {
    const std::vector<JobConfig> Jobs = E->MakeJobs(Opts);
    ASSERT_FALSE(Jobs.empty()) << E->Name;
    for (const JobConfig &C : Jobs) {
      EXPECT_FALSE(C.getString("machine").empty()) << E->Name;
      // The full parameter set rides along, so a model whose defaults ever
      // change can never alias an old cache entry.
      EXPECT_NE(C.getString("machine_params").find("AcquireNanos="),
                std::string::npos)
          << E->Name;
    }
  }
}

TEST(Registry, MachineSensitivitySweepsEveryModel) {
  registerBuiltinExperiments();
  const Experiment *E = registry().find("machine_sensitivity");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Suite, "extension");
  RunOptions Opts;
  Opts.Machine = "uma-cheaplock"; // Ignored: the machine is the swept axis.
  const std::vector<JobConfig> Jobs = E->MakeJobs(Opts);
  // 3 machines x (3 fixed policies + dynamic).
  ASSERT_EQ(Jobs.size(), 12u);
  std::set<std::string> Machines;
  for (const JobConfig &C : Jobs)
    Machines.insert(C.getString("machine"));
  EXPECT_EQ(Machines.size(), 3u);
  EXPECT_TRUE(Machines.count("dash-flat"));
  EXPECT_TRUE(Machines.count("dash-numa"));
  EXPECT_TRUE(Machines.count("uma-cheaplock"));
}

TEST(Registry, ServingSweepsMachinesAndMixes) {
  registerBuiltinExperiments();
  const Experiment *E = registry().find("serving");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Suite, "extension");
  RunOptions Opts;
  Opts.Machine = "uma-cheaplock"; // Ignored: the machine is a swept axis.
  const std::vector<JobConfig> Jobs = E->MakeJobs(Opts);
  // 3 machines x 3 mixes x (3 fixed policies + dynamic).
  ASSERT_EQ(Jobs.size(), 36u);
  std::set<std::string> Machines, Mixes;
  for (const JobConfig &C : Jobs) {
    Machines.insert(C.getString("machine"));
    Mixes.insert(C.getString("mix"));
    EXPECT_FALSE(C.getString("traffic").empty()) << C.label();
  }
  EXPECT_EQ(Machines.size(), 3u);
  EXPECT_EQ(Mixes, (std::set<std::string>{"steady", "diurnal", "storm"}));
}

TEST(Registry, ServingDynamicJobEmitsRegretMaterial) {
  registerBuiltinExperiments();
  const Experiment *E = registry().find("serving");
  ASSERT_NE(E, nullptr);
  RunOptions Opts;
  Opts.Scale = 0.125;
  const std::vector<JobConfig> Jobs = E->MakeJobs(Opts);
  // Last job of the first (machine, mix) cell is the dynamic variant.
  const JobConfig &Dyn = Jobs[3];
  ASSERT_EQ(Dyn.getString("variant"), "dynamic");
  const JobResult R = E->RunJob(Dyn);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.metric("seconds"), 0.0);
  // One duration metric per traffic window, the oracle's raw material ...
  for (unsigned W = 0; W < 8; ++W)
    EXPECT_GT(R.metric(format("w%u_seconds", W)), 0.0) << W;
  // ... and the resilience counters (present even when zero).
  EXPECT_TRUE(R.hasMetric("quarantines"));
  EXPECT_TRUE(R.hasMetric("watchdog_resamples"));
  EXPECT_TRUE(R.hasMetric("degraded_phases"));
}

TEST(Registry, GridsAreDeterministic) {
  registerBuiltinExperiments();
  const Experiment *E = registry().find("table2_fig4_barnes_hut");
  ASSERT_NE(E, nullptr);
  RunOptions Opts;
  Opts.Scale = 0.125;
  const std::vector<JobConfig> A = E->MakeJobs(Opts);
  const std::vector<JobConfig> B = E->MakeJobs(Opts);
  ASSERT_EQ(A.size(), B.size());
  // 1 serial + 3 policies x 6 counts + dynamic x 6 counts.
  EXPECT_EQ(A.size(), 25u);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].canonical(), B[I].canonical());
}

//===----------------------------------------------------------------------===//
// Result files and the regression gate
//===----------------------------------------------------------------------===//

ResultFile smallResultFile() {
  ResultFile F;
  F.Build = "buildX";
  F.Suite = "paper";
  F.ScaleFactor = 0.25;
  F.Seed = 3;
  F.Machine = "uma-cheaplock";

  JobRecord R1;
  R1.Experiment = "exp_a";
  R1.Config.set("app", "water");
  R1.Config.setInt("procs", 8);
  R1.Result.add("seconds", 10.0);
  R1.Result.add("pairs", 1000.0);
  R1.WallSeconds = 0.5;
  F.Jobs.push_back(R1);

  JobRecord R2;
  R2.Experiment = "exp_a";
  R2.Config.set("app", "water");
  R2.Config.setInt("procs", 16);
  R2.Result.add("seconds", 6.0);
  R2.FromCache = true;
  F.Jobs.push_back(R2);
  return F;
}

TEST(ResultFile, JsonRoundTrip) {
  const ResultFile F = smallResultFile();
  std::string Error;
  const std::optional<ResultFile> Back = parseResultFile(toJson(F), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Build, "buildX");
  EXPECT_EQ(Back->Suite, "paper");
  EXPECT_EQ(Back->ScaleFactor, 0.25);
  EXPECT_EQ(Back->Seed, 3u);
  EXPECT_EQ(Back->Machine, "uma-cheaplock");
  ASSERT_EQ(Back->Jobs.size(), 2u);
  EXPECT_EQ(Back->Jobs[0].key(), F.Jobs[0].key());
  EXPECT_EQ(Back->Jobs[0].Result.metric("seconds"), 10.0);
  EXPECT_EQ(Back->Jobs[1].FromCache, true);
  EXPECT_EQ(Back->cachedJobs(), 1u);
  EXPECT_EQ(Back->failedJobs(), 0u);
}

TEST(ResultFile, RejectsUnsupportedSchema) {
  std::string Text = toJson(smallResultFile());
  const size_t Pos = Text.find("\"schema\":3");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 10, "\"schema\":9");
  std::string Error;
  EXPECT_FALSE(parseResultFile(Text, Error).has_value());
  EXPECT_NE(Error.find("schema"), std::string::npos);
}

// v2 result files (no backend field) stay readable: the checked-in sim
// baselines predate the backend axis, and diffing against them must keep
// working.
TEST(ResultFile, AcceptsPreviousSchemaWithSimDefault) {
  std::string Text = toJson(smallResultFile());
  const size_t Pos = Text.find("\"schema\":3");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 10, "\"schema\":2");
  const size_t BackendPos = Text.find(",\"backend\":\"sim\"");
  ASSERT_NE(BackendPos, std::string::npos);
  Text.erase(BackendPos, std::string(",\"backend\":\"sim\"").size());
  std::string Error;
  const std::optional<ResultFile> Back = parseResultFile(Text, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Schema, 2);
  EXPECT_EQ(Back->Backend, "sim");
  ASSERT_EQ(Back->Jobs.size(), 2u);
}

// The backend round-trips through the v3 header.
TEST(ResultFile, BackendRoundTrip) {
  ResultFile F = smallResultFile();
  F.Backend = "native";
  std::string Error;
  const std::optional<ResultFile> Back = parseResultFile(toJson(F), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Backend, "native");
}

TEST(Diff, IdenticalFilesPass) {
  const ResultFile F = smallResultFile();
  const DiffReport Report = diffResults(F, F, {});
  EXPECT_EQ(Report.Regressions, 0u);
  EXPECT_EQ(Report.Compared, 3u);
  EXPECT_TRUE(Report.ok({}));
}

TEST(Diff, InjectedRegressionFailsTheGate) {
  const ResultFile Base = smallResultFile();
  ResultFile Cand = Base;
  Cand.Jobs[0].Result.Metrics[0].Value = 11.0; // +10% on seconds.
  DiffOptions Opts;
  Opts.RelTol = 0.05;
  const DiffReport Report = diffResults(Base, Cand, Opts);
  EXPECT_EQ(Report.Regressions, 1u);
  EXPECT_FALSE(Report.ok(Opts));
  EXPECT_NE(Report.renderText(Opts).find("REGRESSION"), std::string::npos);
  EXPECT_NE(Report.renderText(Opts).find("gate: FAIL"), std::string::npos);

  // The same delta passes under a per-metric override.
  Opts.SuffixRelTol.emplace_back("seconds", 0.15);
  EXPECT_TRUE(diffResults(Base, Cand, Opts).ok(Opts));
}

TEST(Diff, ImprovementIsNotARegression) {
  const ResultFile Base = smallResultFile();
  ResultFile Cand = Base;
  Cand.Jobs[0].Result.Metrics[0].Value = 8.0; // 20% faster.
  const DiffReport Report = diffResults(Base, Cand, {});
  EXPECT_EQ(Report.Regressions, 0u);
  EXPECT_EQ(Report.Improvements, 1u);
  EXPECT_TRUE(Report.ok({}));
}

TEST(Diff, OkMetricsGateOnDecrease) {
  ResultFile Base = smallResultFile();
  Base.Jobs[0].Result.add("within_10pct.ok", 1.0);
  ResultFile Cand = Base;
  Cand.Jobs[0].Result.metric("within_10pct.ok"); // Keep value: passes.
  EXPECT_TRUE(diffResults(Base, Cand, {}).ok({}));

  Cand.Jobs[0].Result.Metrics.back().Value = 0.0; // Acceptance flag drops.
  const DiffReport Report = diffResults(Base, Cand, {});
  EXPECT_EQ(Report.Regressions, 1u);
  EXPECT_FALSE(Report.ok({}));
}

TEST(Diff, MissingJobsAndFailedJobsGate) {
  const ResultFile Base = smallResultFile();
  ResultFile Dropped = Base;
  Dropped.Jobs.pop_back();
  DiffOptions Strict;
  EXPECT_FALSE(diffResults(Base, Dropped, Strict).ok(Strict));
  DiffOptions Loose;
  Loose.FailOnMissing = false;
  EXPECT_TRUE(diffResults(Base, Dropped, Loose).ok(Loose));

  ResultFile Failed = Base;
  Failed.Jobs[1].Status = JobStatus::Crashed;
  EXPECT_FALSE(diffResults(Base, Failed, Loose).ok(Loose));
}

} // namespace

//===- tests/IntegrationTest.cpp - End-to-end pipeline behaviour ----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Scaled-down versions of the paper's experiments, asserting the behaviours
// the full-size benches reproduce: which policy wins where, that dynamic
// feedback tracks the best policy, and that the instrumentation observes
// the structures (false exclusion, serialization) the paper describes.
//
//===----------------------------------------------------------------------===//

#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/string_tomo/StringApp.h"
#include "apps/water/WaterApp.h"
#include "fb/Driver.h"
#include "xform/Policy.h"

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::fb;
using namespace dynfb::xform;

namespace {

FeedbackConfig testConfig() {
  FeedbackConfig C;
  C.TargetSamplingNanos = rt::millisToNanos(10);
  C.TargetProductionNanos = rt::secondsToNanos(100);
  return C;
}

/// Runs one executable on the flat machine and returns the full result.
RunResult runSpec(const App &App, unsigned Procs, const VersionSpec &Spec,
                  FeedbackConfig Config = testConfig()) {
  auto Backend = App.makeSimBackend(Procs, rt::FlatMachineModel(), Spec);
  RunOptions Options;
  Options.Mode =
      Spec.F == Flavour::Dynamic ? ExecMode::Dynamic : ExecMode::Fixed;
  Options.Config = Config;
  return runSchedule(*Backend, App.schedule(), Options);
}

double runSeconds(const App &App, unsigned Procs, const VersionSpec &Spec) {
  return rt::nanosToSeconds(runSpec(App, Procs, Spec).TotalNanos);
}

// ---------------------------- Barnes-Hut -----------------------------------

class BarnesHutIntegration : public ::testing::Test {
protected:
  static bh::BarnesHutApp &app() {
    static bh::BarnesHutApp *App = [] {
      bh::BarnesHutConfig Config;
      Config.scale(1024.0 / 16384.0);
      return new bh::BarnesHutApp(Config);
    }();
    return *App;
  }
};

TEST_F(BarnesHutIntegration, PolicyOrderingMatchesPaper) {
  // Paper Table 2: Aggressive < Bounded < Original at every processor count.
  for (unsigned Procs : {1u, 8u}) {
    const double Orig =
        runSeconds(app(), Procs, VersionSpec::fixed(PolicyKind::Original));
    const double Bnd =
        runSeconds(app(), Procs, VersionSpec::fixed(PolicyKind::Bounded));
    const double Agg =
        runSeconds(app(), Procs, VersionSpec::fixed(PolicyKind::Aggressive));
    EXPECT_LT(Agg, Bnd) << "procs=" << Procs;
    EXPECT_LT(Bnd, Orig) << "procs=" << Procs;
  }
}

TEST_F(BarnesHutIntegration, DynamicTracksAggressive) {
  const double Agg =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  const double Dyn = runSeconds(app(), 8, VersionSpec::dynamicFeedback());
  EXPECT_LT(Dyn, 1.15 * Agg)
      << "dynamic feedback should be within a few percent of the best "
         "policy";
  // And strictly better than the statically wrong choice.
  const double Orig =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Original));
  EXPECT_LT(Dyn, Orig);
}

TEST_F(BarnesHutIntegration, DynamicChoosesAggressiveForProduction) {
  const RunResult R = runSpec(app(), 8, VersionSpec::dynamicFeedback());
  const VersionedSection *VS = app().program().find("FORCES");
  const unsigned AggIdx = VS->indexFor(PolicyKind::Aggressive);
  for (const SectionExecutionTrace &T : R.Occurrences) {
    ASSERT_FALSE(T.ChosenVersions.empty());
    EXPECT_EQ(*T.dominantVersion(), AggIdx);
  }
}

TEST_F(BarnesHutIntegration, NoFalseExclusion) {
  // Paper: "the synchronization optimizations introduced no significant
  // false exclusion" -- per-body locks never contend.
  const RunResult R =
      runSpec(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_EQ(R.ParallelStats.FailedAcquires, 0u);
  EXPECT_EQ(R.ParallelStats.WaitNanos, 0);
}

TEST_F(BarnesHutIntegration, AllVersionsScaleSimilarly) {
  for (PolicyKind P : AllPolicies) {
    const double T1 = runSeconds(app(), 1, VersionSpec::fixed(P));
    const double T8 = runSeconds(app(), 8, VersionSpec::fixed(P));
    const double Speedup = T1 / T8;
    EXPECT_GT(Speedup, 4.0) << policyName(P);
    EXPECT_LT(Speedup, 8.1) << policyName(P);
  }
}

TEST_F(BarnesHutIntegration, SerialFlavourHasNoLockOps) {
  const RunResult R = runSpec(app(), 1, VersionSpec::serial());
  EXPECT_EQ(R.ParallelStats.AcquireReleasePairs, 0u);
  EXPECT_EQ(R.ParallelStats.LockOpNanos, 0);
}

TEST_F(BarnesHutIntegration, LockingOverheadOrdering) {
  // Paper Table 3 structure: pairs(Original) ~ 2x pairs(Bounded), and
  // Aggressive executes orders of magnitude fewer pairs.
  const auto Pairs = [&](PolicyKind P) {
    return runSpec(app(), 8, VersionSpec::fixed(P))
        .ParallelStats.AcquireReleasePairs;
  };
  const uint64_t Orig = Pairs(PolicyKind::Original);
  const uint64_t Bnd = Pairs(PolicyKind::Bounded);
  const uint64_t Agg = Pairs(PolicyKind::Aggressive);
  EXPECT_EQ(Orig, 2 * Bnd);
  EXPECT_EQ(Agg, 2 * app().bodies().size()); // One pair/iteration, 2 runs.
  EXPECT_GT(Bnd / Agg, 10u);
}

// ---------------------------- Water ---------------------------------------

class WaterIntegration : public ::testing::Test {
protected:
  static water::WaterApp &app() {
    // Full paper scale: the Water simulation is cheap enough to test
    // unscaled, which keeps the paper's sampling/production proportions.
    static water::WaterApp *App = new water::WaterApp(water::WaterConfig{});
    return *App;
  }
};

TEST_F(WaterIntegration, AggressiveBestAtOneProcessor) {
  // Paper Table 7: "For one processor, the Aggressive version performs the
  // best."
  const double Orig =
      runSeconds(app(), 1, VersionSpec::fixed(PolicyKind::Original));
  const double Agg =
      runSeconds(app(), 1, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_LT(Agg, Orig);
}

TEST_F(WaterIntegration, AggressiveFailsToScale) {
  // Paper: "As the number of processors increases, the Aggressive version
  // fails to scale" -- POTENG's false exclusion serializes it.
  const double Bnd =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Bounded));
  const double Agg =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_GT(Agg, 1.5 * Bnd);

  const double Agg1 =
      runSeconds(app(), 1, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_LT(Agg1 / Agg, 3.0) << "Aggressive speedup should saturate";
}

TEST_F(WaterIntegration, BoundedBestAtEightProcessors) {
  const double Orig =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Original));
  const double Bnd =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Bounded));
  const double Agg =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_LT(Bnd, Orig);
  EXPECT_LT(Bnd, Agg);
}

TEST_F(WaterIntegration, DynamicTracksBest) {
  const double Orig =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Original));
  const double Bnd =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Bounded));
  const double Agg =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  const double Dyn = runSeconds(app(), 8, VersionSpec::dynamicFeedback());
  EXPECT_LT(Dyn, 1.1 * Bnd);
  EXPECT_LT(Dyn, Orig);
  EXPECT_LT(Dyn, Agg);
}

TEST_F(WaterIntegration, DynamicPicksPerSectionBestAtEightProcessors) {
  const RunResult R = runSpec(app(), 8, VersionSpec::dynamicFeedback());
  const VersionedSection *Interf = app().program().find("INTERF");
  const VersionedSection *Poteng = app().program().find("POTENG");
  const unsigned InterfBest = Interf->indexFor(PolicyKind::Bounded);
  const unsigned PotengBest = Poteng->indexFor(PolicyKind::Original);
  for (const SectionExecutionTrace &T : R.Occurrences) {
    if (T.ChosenVersions.empty())
      continue;
    if (T.SectionName == "INTERF")
      EXPECT_EQ(*T.dominantVersion(), InterfBest);
    else
      EXPECT_EQ(*T.dominantVersion(), PotengBest);
  }
}

TEST_F(WaterIntegration, DynamicPicksAggressiveAtOneProcessor) {
  // Paper: "At one processor, the Dynamic version executes approximately
  // the same number of acquire and release constructs as the Aggressive
  // version."
  const RunResult R = runSpec(app(), 1, VersionSpec::dynamicFeedback());
  const VersionedSection *Poteng = app().program().find("POTENG");
  const unsigned AggIdx = Poteng->indexFor(PolicyKind::Aggressive);
  for (const SectionExecutionTrace &T : R.Occurrences) {
    if (T.SectionName != "POTENG" || T.ChosenVersions.empty())
      continue;
    EXPECT_EQ(*T.dominantVersion(), AggIdx);
  }
}

TEST_F(WaterIntegration, WaitingProportionExposesFalseExclusion) {
  // Paper Figure 7: waiting overhead is the primary performance loss of the
  // Aggressive version and grows with the processor count.
  const auto Waiting = [&](PolicyKind P, unsigned Procs) {
    return runSpec(app(), Procs, VersionSpec::fixed(P))
        .ParallelStats.waitingProportion();
  };
  EXPECT_LT(Waiting(PolicyKind::Bounded, 8), 0.1);
  EXPECT_GT(Waiting(PolicyKind::Aggressive, 8), 0.4);
  EXPECT_GT(Waiting(PolicyKind::Aggressive, 8),
            Waiting(PolicyKind::Aggressive, 2));
}

TEST_F(WaterIntegration, EffectiveSamplingIntervalLargeWhenSerialized) {
  // Paper Tables 11/12: the Aggressive version's minimum effective sampling
  // interval in POTENG is much larger because the policy serializes the
  // computation.
  FeedbackConfig Config = testConfig();
  Config.TargetSamplingNanos = rt::millisToNanos(0.1);
  const RunResult R = runSpec(app(), 8, VersionSpec::dynamicFeedback(), Config);
  for (const SectionExecutionTrace &T : R.Occurrences) {
    if (T.SectionName != "POTENG")
      continue;
    const auto OrigIt = T.EffectiveSamplingByVersion.find("Original/Bounded");
    const auto AggIt = T.EffectiveSamplingByVersion.find("Aggressive");
    ASSERT_NE(OrigIt, T.EffectiveSamplingByVersion.end());
    ASSERT_NE(AggIt, T.EffectiveSamplingByVersion.end());
    EXPECT_GT(AggIt->second.mean(), 2.0 * OrigIt->second.mean());
  }
}

// ---------------------------- String ---------------------------------------

class StringIntegration : public ::testing::Test {
protected:
  static string_tomo::StringApp &app() {
    static string_tomo::StringApp *App = [] {
      string_tomo::StringConfig Config;
      Config.NumRays = 128;
      return new string_tomo::StringApp(Config);
    }();
    return *App;
  }
};

TEST_F(StringIntegration, AggressiveBestAndDynamicTracks) {
  const double Orig =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Original));
  const double Bnd =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Bounded));
  const double Agg =
      runSeconds(app(), 8, VersionSpec::fixed(PolicyKind::Aggressive));
  EXPECT_LT(Agg, Bnd);
  EXPECT_LT(Bnd, Orig);
  const double Dyn = runSeconds(app(), 8, VersionSpec::dynamicFeedback());
  EXPECT_LT(Dyn, 1.15 * Agg);
}

TEST_F(StringIntegration, SharedModelContentionGrowsWithProcessors) {
  const auto Waiting = [&](unsigned Procs) {
    return runSpec(app(), Procs, VersionSpec::fixed(PolicyKind::Original))
        .ParallelStats.waitingProportion();
  };
  EXPECT_EQ(Waiting(1), 0.0);
  EXPECT_GT(Waiting(16), Waiting(4));
}

// ---------------------------- Cross-cutting --------------------------------

TEST(IntegrationMisc, SampledOverheadsAreStableOverTime) {
  // Paper Figures 5/8/9: the measured overheads stay relatively stable.
  bh::BarnesHutConfig Config;
  Config.NumBodies = 1024;
  bh::BarnesHutApp App(Config);
  FeedbackConfig FC = testConfig();
  FC.TargetSamplingNanos = rt::millisToNanos(5);
  FC.TargetProductionNanos = rt::secondsToNanos(2);
  const RunResult R = runSpec(App, 8, VersionSpec::dynamicFeedback(), FC);
  const SeriesSet Merged = R.mergedOverheadSeries("FORCES");
  for (const Series &S : Merged.all()) {
    if (S.size() < 3)
      continue;
    RunningStat Stat;
    for (double V : S.Values)
      Stat.add(V);
    EXPECT_LT(Stat.stddev(), 0.05)
        << "overhead series " << S.Label << " should be stable";
  }
}

TEST(IntegrationMisc, EarlyCutoffReducesSampledIntervals) {
  water::WaterConfig Config;
  Config.NumMolecules = 64;
  water::WaterApp App(Config);

  FeedbackConfig Plain = testConfig();
  FeedbackConfig Cutoff = testConfig();
  Cutoff.EarlyCutoff = true;
  Cutoff.EarlyCutoffThreshold = 0.05;

  const RunResult A = runSpec(App, 8, VersionSpec::dynamicFeedback(), Plain);
  const RunResult B = runSpec(App, 8, VersionSpec::dynamicFeedback(), Cutoff);
  unsigned SampledPlain = 0, SampledCutoff = 0, Skipped = 0;
  for (const auto &T : A.Occurrences)
    SampledPlain += T.SampledIntervals;
  for (const auto &T : B.Occurrences) {
    SampledCutoff += T.SampledIntervals;
    Skipped += T.SkippedByCutoff;
  }
  EXPECT_LT(SampledCutoff, SampledPlain);
  EXPECT_GT(Skipped, 0u);
}

TEST(IntegrationMisc, DeterministicEndToEnd) {
  water::WaterConfig Config;
  Config.NumMolecules = 32;
  auto Run = [&] {
    water::WaterApp App(Config);
    return runSpec(App, 4, VersionSpec::dynamicFeedback()).TotalNanos;
  };
  EXPECT_EQ(Run(), Run());
}

} // namespace

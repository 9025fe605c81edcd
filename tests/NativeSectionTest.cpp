//===- tests/NativeSectionTest.cpp - IR sections on real threads ----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/water/WaterApp.h"
#include "fb/Controller.h"
#include "rt/NativeSection.h"

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::rt;
using namespace dynfb::xform;

namespace {

TEST(NativeSectionTest, BusyWaitWaitsApproximately) {
  const Nanos T0 = steadyNow();
  busyWait(millisToNanos(2));
  const Nanos Elapsed = steadyNow() - T0;
  EXPECT_GE(Elapsed, millisToNanos(2));
  EXPECT_LT(Elapsed, millisToNanos(50));
}

TEST(NativeSectionTest, RunsGeneratedWaterPotengNatively) {
  water::WaterConfig Config;
  Config.NumMolecules = 8;
  water::WaterApp App(Config);
  const VersionedSection *VS = App.program().find("POTENG");

  std::vector<NativeIrVersion> Versions;
  for (const SectionVersion &V : VS->Versions)
    Versions.push_back(NativeIrVersion{V.label(), V.Entry});

  ThreadTeam Team(2);
  // Scale virtual microseconds down 1000x so the test runs in millis.
  auto Runner = makeNativeIrRunner(Team, App.binding("POTENG"),
                                   std::move(Versions), 0.001);
  ASSERT_EQ(Runner->numVersions(), 2u);

  const IntervalReport R =
      Runner->runInterval(0, secondsToNanos(60));
  EXPECT_TRUE(R.Finished);
  // Original/Bounded POTENG: one pair per neighbor-list entry.
  EXPECT_EQ(R.Stats.AcquireReleasePairs, App.system().totalPairs());
}

TEST(NativeSectionTest, FeedbackControllerDrivesNativeIrSection) {
  water::WaterConfig Config;
  Config.NumMolecules = 8;
  water::WaterApp App(Config);
  const VersionedSection *VS = App.program().find("POTENG");

  std::vector<NativeIrVersion> Versions;
  for (const SectionVersion &V : VS->Versions)
    Versions.push_back(NativeIrVersion{V.label(), V.Entry});

  ThreadTeam Team(2);
  auto Runner = makeNativeIrRunner(Team, App.binding("POTENG"),
                                   std::move(Versions), 0.001);

  fb::FeedbackConfig FC;
  FC.TargetSamplingNanos = millisToNanos(2);
  FC.TargetProductionNanos = millisToNanos(50);
  fb::FeedbackController Controller(FC);
  const fb::SectionExecutionTrace Trace =
      Controller.executeSection(*Runner, "POTENG");
  EXPECT_TRUE(Runner->done());
  EXPECT_GT(Trace.SampledIntervals, 0u);
}

} // namespace

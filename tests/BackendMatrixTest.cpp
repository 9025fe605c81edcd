//===- tests/BackendMatrixTest.cpp - Backend-agnostic layer tests ---------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Tests for the backend-agnostic execution seam: the shared SectionRegistry
// both backends consume, the native backend as a drop-in ExecutionBackend,
// and the instrumentation layer (interval traces, run traces, the exported
// backend field) behaving identically above either substrate.
//
//===----------------------------------------------------------------------===//

#include "apps/Harness.h"
#include "apps/water/WaterApp.h"
#include "obs/Export.h"
#include "rt/NativeBackend.h"
#include "rt/SectionRegistry.h"
#include "sim/Backend.h"

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::apps;

namespace {

water::WaterApp smallWater() {
  water::WaterConfig Config;
  Config.NumMolecules = 8;
  Config.Timesteps = 2;
  return water::WaterApp(Config);
}

TEST(BackendMatrixTest, BackendKindNames) {
  EXPECT_STREQ(rt::backendKindName(rt::BackendKind::Sim), "sim");
  EXPECT_STREQ(rt::backendKindName(rt::BackendKind::Native), "native");
}

TEST(BackendMatrixTest, SectionRegistryFindsRegisteredSections) {
  const water::WaterApp App = smallWater();
  const rt::SectionRegistry Registry =
      App.makeSectionRegistry(VersionSpec::dynamicFeedback());
  ASSERT_FALSE(Registry.empty());
  const rt::SectionDesc *Interf = Registry.find("INTERF");
  ASSERT_NE(Interf, nullptr);
  EXPECT_EQ(Interf->Name, "INTERF");
  EXPECT_NE(Interf->Binding, nullptr);
  EXPECT_GT(Interf->Versions.size(), 1u); // Dynamic: the whole space.
  EXPECT_EQ(Registry.find("NOSUCH"), nullptr);
}

TEST(BackendMatrixTest, SerialSpecRegistersSingleVersion) {
  const water::WaterApp App = smallWater();
  const rt::SectionRegistry Registry =
      App.makeSectionRegistry(VersionSpec::serial());
  for (const rt::SectionDesc &Desc : Registry.sections()) {
    ASSERT_EQ(Desc.Versions.size(), 1u);
    EXPECT_EQ(Desc.Versions[0].Label, "Serial");
  }
}

TEST(BackendMatrixTest, BothBackendsBuildFromOneRegistry) {
  const water::WaterApp App = smallWater();
  const std::unique_ptr<rt::ExecutionBackend> Sim = App.makeSimBackend(
      2, rt::FlatMachineModel(),
      VersionSpec::fixed(xform::PolicyKind::Original));
  const std::unique_ptr<rt::ExecutionBackend> Native = App.makeNativeBackend(
      2, VersionSpec::fixed(xform::PolicyKind::Original));
  EXPECT_EQ(Sim->kind(), rt::BackendKind::Sim);
  EXPECT_EQ(Native->kind(), rt::BackendKind::Native);
  EXPECT_NE(Sim->beginSection("INTERF"), nullptr);
  EXPECT_NE(Native->beginSection("INTERF"), nullptr);
}

// The backend-blindness property the tentpole is about: a fixed-policy run
// executes the identical workload on either backend, so the structural
// counters (acquire/release pairs) must agree exactly even though the
// measured times cannot.
TEST(BackendMatrixTest, FixedPolicyPairsAgreeAcrossBackends) {
  const water::WaterApp App = smallWater();
  const VersionSpec Spec = VersionSpec::fixed(xform::PolicyKind::Original);
  const fb::RunResult Sim = runApp(App, 2, Spec, rt::FlatMachineModel());
  const fb::RunResult Native =
      runApp(App, 2, Spec, *rt::createMachineModel("dash-flat"), {}, nullptr,
             nullptr, nullptr, BackendOptions::native(0.001));
  EXPECT_EQ(Native.ParallelStats.AcquireReleasePairs,
            Sim.ParallelStats.AcquireReleasePairs);
  EXPECT_GT(Native.TotalNanos, 0);
  EXPECT_EQ(Native.Occurrences.size(), Sim.Occurrences.size());
}

TEST(BackendMatrixTest, NativeBackendCollectsSectionTraces) {
  const water::WaterApp App = smallWater();
  RunObservation Obs;
  Obs.CollectSectionTraces = true;
  const fb::RunResult R =
      runApp(App, 2, VersionSpec::fixed(xform::PolicyKind::Original),
             *rt::createMachineModel("dash-flat"), {}, nullptr, nullptr, &Obs,
             BackendOptions::native(0.001));
  ASSERT_EQ(Obs.SectionTraces.count("INTERF"), 1u);
  const rt::IntervalTrace &Trace = Obs.SectionTraces.at("INTERF");
  EXPECT_EQ(Trace.Procs.size(), 2u);
  uint64_t Iters = 0;
  for (const rt::IntervalTrace::ProcSummary &P : Trace.Procs)
    Iters += P.Iterations;
  EXPECT_GT(Iters, 0u);
  EXPECT_FALSE(Trace.Locks.empty());
  EXPECT_GT(R.TotalNanos, 0);
}

TEST(BackendMatrixTest, RunTraceStampsBackendAndRoundTrips) {
  const water::WaterApp App = smallWater();
  RunObservation Obs;
  const fb::RunResult R =
      runApp(App, 2, VersionSpec::fixed(xform::PolicyKind::Original),
             *rt::createMachineModel("dash-flat"), {}, nullptr, nullptr, &Obs,
             BackendOptions::native(0.001));
  const obs::RunTrace Trace = buildRunTrace(
      "water", 2, "original", R, &Obs, rt::BackendKind::Native);
  EXPECT_EQ(Trace.Meta.Backend, "native");

  std::string Error;
  const std::optional<obs::RunTrace> Back =
      obs::parseJsonl(obs::toJsonl(Trace), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Meta.Backend, "native");
}

// Traces without a backend field (written before the native backend
// existed) parse as sim: the field is additive within trace schema 1.
TEST(BackendMatrixTest, TraceBackendDefaultsToSim) {
  const water::WaterApp App = smallWater();
  const fb::RunResult R =
      runApp(App, 2, VersionSpec::fixed(xform::PolicyKind::Original),
             rt::FlatMachineModel());
  const obs::RunTrace Trace = buildRunTrace("water", 2, "original", R);
  EXPECT_EQ(Trace.Meta.Backend, "sim");

  std::string Jsonl = obs::toJsonl(Trace);
  const size_t Pos = Jsonl.find(",\"backend\":\"sim\"");
  ASSERT_NE(Pos, std::string::npos);
  Jsonl.erase(Pos, std::string(",\"backend\":\"sim\"").size());
  std::string Error;
  const std::optional<obs::RunTrace> Back = obs::parseJsonl(Jsonl, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Meta.Backend, "sim");
}

} // namespace

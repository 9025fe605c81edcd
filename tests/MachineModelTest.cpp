//===- tests/MachineModelTest.cpp - Unit tests for machine models ----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "rt/MachineModel.h"
#include "sim/Machine.h"
#include "sim/SectionSim.h"

#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::sim;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

//===----------------------------------------------------------------------===//
// Registry and parameter plumbing
//===----------------------------------------------------------------------===//

TEST(MachineModelTest, RegistryCreatesEveryListedModel) {
  const std::vector<std::string> Names = machineModelNames();
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "dash-flat");
  for (const std::string &Name : Names) {
    const std::unique_ptr<MachineModel> M = createMachineModel(Name);
    ASSERT_NE(M, nullptr) << Name;
    EXPECT_EQ(M->name(), Name);
    // The clone carries the same identity and parameters.
    const std::unique_ptr<MachineModel> C = M->clone();
    EXPECT_EQ(C->name(), Name);
    EXPECT_EQ(C->paramsString(), M->paramsString());
  }
  EXPECT_EQ(createMachineModel("dash-flart"), nullptr);
}

TEST(MachineModelTest, FlatModelPricesAreTheCostConstants) {
  CostModel CM;
  CM.AcquireNanos = 777;
  CM.TimerReadNanos = 12345;
  const FlatMachineModel M(CM);
  EXPECT_FALSE(M.topologyAware());
  EXPECT_EQ(M.nodeOf(15), 0u);
  // Pricing ignores the event state on a flat machine.
  const LockEvent Remote{7, 3, /*Home=*/2, /*ContentionDepth=*/5};
  EXPECT_EQ(M.acquireNanos(Remote), 777);
  EXPECT_EQ(M.releaseNanos(Remote), CM.ReleaseNanos);
  EXPECT_EQ(M.timerReadNanos(9), 12345);
  EXPECT_EQ(M.schedFetchNanos(9), CM.SchedFetchNanos);
}

TEST(MachineModelTest, ParamsRoundTripThroughSetParam) {
  const std::unique_ptr<MachineModel> M = createMachineModel("dash-numa");
  ASSERT_NE(M, nullptr);
  EXPECT_TRUE(M->setParam("LocalAcquireNanos", 42));
  EXPECT_TRUE(M->setParam("AcquireNanos", 4000));
  bool SawLocal = false, SawAcquire = false;
  for (const auto &[Name, Value] : M->params()) {
    if (Name == "LocalAcquireNanos") {
      SawLocal = true;
      EXPECT_EQ(Value, 42);
    }
    if (Name == "AcquireNanos") {
      SawAcquire = true;
      EXPECT_EQ(Value, 4000);
    }
  }
  EXPECT_TRUE(SawLocal);
  EXPECT_TRUE(SawAcquire);
  // Unknown names are rejected; so are values below an extra's minimum
  // (a 0-processor cluster would divide by zero in nodeOf).
  EXPECT_FALSE(M->setParam("NoSuchField", 1));
  EXPECT_FALSE(M->setParam("ClusterProcs", 0));
  EXPECT_TRUE(M->setParam("ClusterProcs", 2));
}

TEST(MachineModelTest, ApplyCostOverridesParsesAndDiagnoses) {
  const std::unique_ptr<MachineModel> M = createMachineModel("uma-cheaplock");
  ASSERT_NE(M, nullptr);
  std::string Error;
  EXPECT_TRUE(applyCostOverrides(*M, "AcquireNanos=5,ReleaseNanos=6", Error));
  EXPECT_EQ(M->costs().AcquireNanos, 5);
  EXPECT_EQ(M->costs().ReleaseNanos, 6);

  // Near-miss field names get a did-you-mean hint.
  EXPECT_FALSE(applyCostOverrides(*M, "AcquireNano=5", Error));
  EXPECT_NE(Error.find("did you mean"), std::string::npos) << Error;
  EXPECT_NE(Error.find("AcquireNanos"), std::string::npos) << Error;

  EXPECT_FALSE(applyCostOverrides(*M, "AcquireNanos", Error));
  EXPECT_FALSE(applyCostOverrides(*M, "AcquireNanos=-3", Error));
  EXPECT_FALSE(applyCostOverrides(*M, "AcquireNanos=fast", Error));

  // Regression: values past the int64 range used to saturate silently
  // through strtoll (LLONG_MAX passed the >= 0 check); they must be
  // diagnosed like any other malformed value.
  EXPECT_FALSE(
      applyCostOverrides(*M, "AcquireNanos=99999999999999999999", Error));
  EXPECT_NE(Error.find("non-negative integer"), std::string::npos) << Error;

  // Zero stays legal -- FailedAcquireNanos=0 is a meaningful "free retry"
  // configuration (the simulator clamps its waiting-time divisor instead
  // of rejecting the cost).
  EXPECT_TRUE(applyCostOverrides(*M, "FailedAcquireNanos=0", Error)) << Error;
  EXPECT_EQ(M->costs().FailedAcquireNanos, 0);

  // The paramsString rendering parses back verbatim (the exp-layer round
  // trip that makes machine parameters part of the cache key).
  const std::unique_ptr<MachineModel> N = createMachineModel("dash-numa");
  std::unique_ptr<MachineModel> N2 = createMachineModel("dash-numa");
  ASSERT_TRUE(N && N2);
  ASSERT_TRUE(N->setParam("MigrateHopNanos", 99));
  EXPECT_TRUE(applyCostOverrides(*N2, N->paramsString(), Error)) << Error;
  EXPECT_EQ(N2->paramsString(), N->paramsString());
}

//===----------------------------------------------------------------------===//
// dash-numa pricing
//===----------------------------------------------------------------------===//

TEST(MachineModelTest, DashNumaPricesColdLocalRemoteAndMigratory) {
  DashNumaModel M;
  ASSERT_TRUE(M.topologyAware());
  // Four processors per cluster: procs 0-3 on node 0, 4-7 on node 1.
  EXPECT_EQ(M.nodeOf(3), 0u);
  EXPECT_EQ(M.nodeOf(4), 1u);

  // Cold line: directory allocation at the flat acquire cost.
  EXPECT_EQ(M.acquireNanos({0, 0, /*Home=*/-1, 0}), M.costs().AcquireNanos);
  // Line already in the acquirer's cluster.
  EXPECT_EQ(M.acquireNanos({1, 0, /*Home=*/0, 0}), M.LocalAcquireNanos);
  // Cross-cluster migration, plus one hop per queued waiter.
  EXPECT_EQ(M.acquireNanos({4, 0, /*Home=*/0, 0}), M.RemoteAcquireNanos);
  EXPECT_EQ(M.acquireNanos({4, 0, /*Home=*/0, 3}),
            M.RemoteAcquireNanos + 3 * M.MigrateHopNanos);
  // Releases stay local: the releaser owns the line.
  EXPECT_EQ(M.releaseNanos({4, 0, /*Home=*/0, 0}), M.costs().ReleaseNanos);
}

//===----------------------------------------------------------------------===//
// Simulator integration: the toy section from SimTest
//===----------------------------------------------------------------------===//

/// One iteration: compute; acquire(this); update; release(this).
struct ToyWorkload {
  Module M{"toy"};
  Method *Entry = nullptr;

  ToyWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Entry = M.createMethod("work", C);
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }
};

class ToyBinding final : public DataBinding {
public:
  uint64_t Iterations = 4;
  uint32_t Objects = 4;
  bool SharedLock = true; ///< All iterations lock object 0.
  rt::Nanos ComputeCost = 100000;

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return Objects; }
  ObjectId thisObject(uint64_t Iter) const override {
    return SharedLock ? 0 : static_cast<ObjectId>(Iter % Objects);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override { return {}; }
  ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
    return 0;
  }
  uint64_t tripCount(unsigned, const LoopCtx &) const override { return 1; }
  rt::Nanos computeNanos(unsigned, const LoopCtx &) const override {
    return ComputeCost;
  }
};

Nanos runToyInterval(SimMachine &Machine, const ToyWorkload &W,
                     const ToyBinding &B) {
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  return R.EffectiveNanos;
}

TEST(MachineModelTest, CostLinearityOnZeroComputeSection) {
  // Property: with no compute, the interval duration on a flat machine is
  // linear in the cost block -- doubling every cost field exactly doubles
  // the effective time. Guards against stray constants in the event loop.
  ToyWorkload W;
  ToyBinding B;
  B.ComputeCost = 0;
  B.SharedLock = false;
  CostModel CM;
  CostModel Doubled = CM;
  Doubled.AcquireNanos *= 2;
  Doubled.ReleaseNanos *= 2;
  Doubled.FailedAcquireNanos *= 2;
  Doubled.TimerReadNanos *= 2;
  Doubled.BarrierNanos *= 2;
  Doubled.SchedFetchNanos *= 2;
  Doubled.UpdateNanos *= 2;
  Doubled.InstrumentNanos *= 2;
  SimMachine M1(1, FlatMachineModel(CM));
  SimMachine M2(1, FlatMachineModel(Doubled));
  EXPECT_EQ(2 * runToyInterval(M1, W, B), runToyInterval(M2, W, B));
}

TEST(MachineModelTest, NumaHomeTrackingPersistsAcrossOccurrences) {
  // Single processor, one shared lock, dash-numa: the first acquire of the
  // run is cold (flat price), every later one is cluster-local. A second
  // section occurrence on the same machine starts with the line still home,
  // so even its first acquire is local -- lockHomes persists per run.
  ToyWorkload W;
  ToyBinding B;
  const DashNumaModel Numa;
  const Nanos ColdVsLocal =
      Numa.costs().AcquireNanos - Numa.LocalAcquireNanos;

  SimMachine Flat(1, FlatMachineModel(Numa.costs()));
  const Nanos FlatNanos = runToyInterval(Flat, W, B);

  SimMachine Machine(1, DashNumaModel());
  // First occurrence: 1 cold + 3 local acquires.
  EXPECT_EQ(runToyInterval(Machine, W, B),
            FlatNanos - 3 * ColdVsLocal);
  // Second occurrence: 4 local acquires.
  EXPECT_EQ(runToyInterval(Machine, W, B),
            FlatNanos - 4 * ColdVsLocal);
}

TEST(MachineModelTest, LockHomesGrowsAndPreservesEntries) {
  CostModel CM;
  SimMachine Machine(4, FlatMachineModel(CM));
  std::vector<int> &Homes = Machine.lockHomes("s", 4);
  ASSERT_EQ(Homes.size(), 4u);
  EXPECT_EQ(Homes[0], -1);
  Homes[0] = 1;
  std::vector<int> &Grown = Machine.lockHomes("s", 8);
  ASSERT_EQ(Grown.size(), 8u);
  EXPECT_EQ(Grown[0], 1);  // Prior state survives growth...
  EXPECT_EQ(Grown[7], -1); // ...and new lines start cold.
  // Sections track their homes independently.
  EXPECT_EQ(Machine.lockHomes("other", 1)[0], -1);
}

} // namespace

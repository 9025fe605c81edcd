//===- tests/SimTest.cpp - Unit tests for the machine simulator ------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "sim/Backend.h"
#include "sim/SectionSim.h"

#include <array>
#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::sim;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

/// A section whose iterations are: compute D; acquire(lock); compute H;
/// release(lock). The lock is either private per iteration or one shared
/// object, controlled by the binding.
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
  uint64_t Iterations = 8;
  uint32_t Objects = 8;
  bool SharedLock = false; ///< All iterations lock object 0.
  bool Cacheable = false;  ///< Advertise stable per-iteration ops sequences.
  Nanos ComputeCost = 100000; // 100 us

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
  Nanos computeNanos(unsigned, const LoopCtx &) const override {
    return ComputeCost;
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return Cacheable ? static_cast<int64_t>(Iter) : -1;
  }
};

/// Field-by-field interval report equality (IntervalReport carries no
/// operator==); bitwise agreement is the contract reused simulator state
/// must honor.
void expectReportsIdentical(const IntervalReport &A, const IntervalReport &B) {
  EXPECT_EQ(A.EffectiveNanos, B.EffectiveNanos);
  EXPECT_EQ(A.Finished, B.Finished);
  EXPECT_EQ(A.InjectedNanos, B.InjectedNanos);
  EXPECT_EQ(A.Stats.AcquireReleasePairs, B.Stats.AcquireReleasePairs);
  EXPECT_EQ(A.Stats.FailedAcquires, B.Stats.FailedAcquires);
  EXPECT_EQ(A.Stats.LockOpNanos, B.Stats.LockOpNanos);
  EXPECT_EQ(A.Stats.WaitNanos, B.Stats.WaitNanos);
  EXPECT_EQ(A.Stats.SchedNanos, B.Stats.SchedNanos);
  EXPECT_EQ(A.Stats.ExecNanos, B.Stats.ExecNanos);
}

TEST(SimTest, SingleProcessorTimingIsExact) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 4;
  CostModel CM;
  SimMachine Machine(1, FlatMachineModel(CM));
  SimSectionRunner Runner(Machine, B,
                          {SimVersion{"only", W.Entry}}, false);

  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_TRUE(Runner.done());
  // Per iteration: fetch + compute + acquire + update + release + poll;
  // plus the final failed fetch.
  const Nanos PerIter = CM.SchedFetchNanos + B.ComputeCost + CM.AcquireNanos +
                        CM.UpdateNanos + CM.ReleaseNanos + CM.TimerReadNanos;
  EXPECT_EQ(R.EffectiveNanos, 4 * PerIter + CM.SchedFetchNanos);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 4u);
  EXPECT_EQ(R.Stats.FailedAcquires, 0u);
  EXPECT_EQ(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.LockOpNanos,
            4 * (CM.AcquireNanos + CM.ReleaseNanos));
  // Machine advanced by effective + barrier.
  EXPECT_EQ(Machine.now(), R.EffectiveNanos + CM.BarrierNanos);
}

TEST(SimTest, DisjointLocksScaleLinearly) {
  ToyWorkload W;
  CostModel CM;

  auto RunWith = [&](unsigned Procs) {
    ToyBinding B;
    B.Iterations = 64;
    B.Objects = 64;
    SimMachine Machine(Procs, FlatMachineModel(CM));
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    const IntervalReport R = Runner.runInterval(0, Unbounded);
    EXPECT_TRUE(R.Finished);
    EXPECT_EQ(R.Stats.FailedAcquires, 0u);
    return R.EffectiveNanos;
  };

  const Nanos T1 = RunWith(1);
  const Nanos T8 = RunWith(8);
  const double Speedup =
      static_cast<double>(T1) / static_cast<double>(T8);
  EXPECT_GT(Speedup, 6.5);
  EXPECT_LE(Speedup, 8.01);
}

TEST(SimTest, SharedLockSerializesAndCountsWaiting) {
  ToyWorkload W;
  CostModel CM;
  ToyBinding B;
  B.Iterations = 32;
  B.SharedLock = true;
  // Make the critical section dominate: the update runs under the lock.
  B.ComputeCost = 1000; // Tiny compute outside the lock.
  SimMachine Machine(4, FlatMachineModel(CM));
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_GT(R.Stats.FailedAcquires, 0u);
  EXPECT_GT(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 32u);
}

TEST(SimTest, SharedVsPrivateLockWaitingComparison) {
  ToyWorkload W;
  CostModel CM;
  auto Run = [&](bool Shared) {
    ToyBinding B;
    B.Iterations = 64;
    B.SharedLock = Shared;
    SimMachine Machine(8, FlatMachineModel(CM));
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    return Runner.runInterval(0, Unbounded).Stats;
  };
  const OverheadStats Private = Run(false);
  const OverheadStats Shared = Run(true);
  EXPECT_EQ(Private.WaitNanos, 0);
  EXPECT_GT(Shared.WaitNanos, 0);
  EXPECT_GT(Shared.totalOverhead(), Private.totalOverhead());
}

TEST(SimTest, DeterministicAcrossRuns) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 40;
  B.SharedLock = true;
  CostModel CM;
  auto Run = [&]() {
    SimMachine Machine(6, FlatMachineModel(CM));
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    const IntervalReport R = Runner.runInterval(0, Unbounded);
    return std::make_tuple(R.EffectiveNanos, R.Stats.FailedAcquires,
                           R.Stats.WaitNanos, R.Stats.ExecNanos);
  };
  EXPECT_EQ(Run(), Run());
}

TEST(SimTest, IntervalExpiryHonorsSwitchPoints) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 1000;
  CostModel CM;
  SimMachine Machine(2, FlatMachineModel(CM));
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);

  // Target much smaller than one iteration: each processor still completes
  // the iteration it started (the potential switch points are iteration
  // boundaries), so the effective interval is about one iteration long.
  const IntervalReport R = Runner.runInterval(0, 1000);
  EXPECT_FALSE(R.Finished);
  EXPECT_FALSE(Runner.done());
  EXPECT_GE(R.EffectiveNanos, static_cast<Nanos>(B.ComputeCost));
  EXPECT_LT(R.EffectiveNanos, 2 * (B.ComputeCost + 50000));
  // Two processors each completed exactly one iteration.
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 2u);
}

TEST(SimTest, ExecTimeSumsProcessors) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 16;
  B.Objects = 16;
  CostModel CM;
  SimMachine Machine(4, FlatMachineModel(CM));
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  // Four processors ran for about Effective each.
  EXPECT_GT(R.Stats.ExecNanos, 3 * R.EffectiveNanos);
  EXPECT_LE(R.Stats.ExecNanos, 4 * R.EffectiveNanos);
}

TEST(SimTest, ResetRestartsSection) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 4;
  SimMachine Machine(1, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  EXPECT_TRUE(Runner.runInterval(0, Unbounded).Finished);
  EXPECT_TRUE(Runner.done());
  Runner.reset();
  EXPECT_FALSE(Runner.done());
  EXPECT_TRUE(Runner.runInterval(0, Unbounded).Finished);
}

TEST(SimTest, InstrumentationAddsLockCost) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 8;
  CostModel CM;
  auto Run = [&](bool Instrumented) {
    SimMachine Machine(1, FlatMachineModel(CM));
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            Instrumented);
    return Runner.runInterval(0, Unbounded).EffectiveNanos;
  };
  const Nanos Plain = Run(false);
  const Nanos Instr = Run(true);
  EXPECT_EQ(Instr - Plain, 8 * 2 * CM.InstrumentNanos);
}

TEST(SimTest, EmptySectionFinishesImmediately) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 0;
  SimMachine Machine(4, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  EXPECT_TRUE(Runner.done());
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 0u);
}

TEST(SimTest, ZeroFailedAcquireCostRunsToCompletion) {
  // Regression: FailedAcquireNanos=0 used to divide by zero (SIGFPE) when
  // converting contended waiting time into counted failed acquires. Zero
  // stays a legal configuration; the divisor is clamped instead.
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 32;
  B.SharedLock = true;
  B.ComputeCost = 1000; // Critical section dominates: real contention.
  CostModel CM;
  CM.FailedAcquireNanos = 0;
  SimMachine Machine(4, FlatMachineModel(CM));
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_GT(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 32u);
}

TEST(SimTest, ReusedIntervalStateIsBitIdentical) {
  // The per-interval simulation state (processors, locks, ready heap) is
  // reset rather than reallocated. A contended two-interval pass repeated
  // on the same runner after reset() -- and compared against a fresh
  // runner -- must agree bit for bit; any stale lock waiter list or
  // un-reset processor field shows up here.
  ToyWorkload W;
  CostModel CM;
  const Nanos Split = 8 * 150000; // Mid-section: interval 1 parks procs.
  auto TwoIntervals = [&](SimSectionRunner &R) {
    std::array<IntervalReport, 2> Out{R.runInterval(0, Split),
                                      R.runInterval(0, Unbounded)};
    EXPECT_FALSE(Out[0].Finished);
    EXPECT_TRUE(Out[1].Finished);
    return Out;
  };

  ToyBinding B;
  B.Iterations = 64;
  B.SharedLock = true;
  SimMachine Machine(4, FlatMachineModel(CM));
  SimSectionRunner Reused(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const auto First = TwoIntervals(Reused);
  Reused.reset();
  const auto Again = TwoIntervals(Reused);

  SimMachine FreshMachine(4, FlatMachineModel(CM));
  SimSectionRunner Fresh(FreshMachine, B, {SimVersion{"only", W.Entry}},
                         false);
  const auto FreshRun = TwoIntervals(Fresh);

  for (int I = 0; I < 2; ++I) {
    expectReportsIdentical(First[I], Again[I]);
    expectReportsIdentical(First[I], FreshRun[I]);
  }
}

TEST(SimBackendTest, OpsCacheMatchesLiveInterpretation) {
  // The backend attaches per-version emitted-ops caches that survive across
  // section occurrences. A cacheable binding served from the cache (all
  // occurrences after the first hit memoized sequences) must simulate
  // exactly like an uncacheable binding interpreted live every iteration.
  ToyWorkload W;
  ToyBinding CachedB;
  CachedB.Cacheable = true;
  ToyBinding LiveB;
  for (ToyBinding *B : {&CachedB, &LiveB}) {
    B->Iterations = 64;
    B->SharedLock = true;
  }
  SimBackend Cached(4, FlatMachineModel(), false);
  Cached.addSection("S", &CachedB, {SimVersion{"only", W.Entry}});
  SimBackend Live(4, FlatMachineModel(), false);
  Live.addSection("S", &LiveB, {SimVersion{"only", W.Entry}});
  for (int Occurrence = 0; Occurrence < 3; ++Occurrence) {
    auto CR = Cached.beginSection("S");
    auto LR = Live.beginSection("S");
    const IntervalReport A = CR->runInterval(0, Unbounded);
    const IntervalReport B = LR->runInterval(0, Unbounded);
    EXPECT_TRUE(A.Finished);
    expectReportsIdentical(A, B);
  }
}

TEST(SimBackendTest, RegistersAndBeginsSections) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 2;
  SimBackend Backend(2, FlatMachineModel(), false);
  Backend.addSection("S", &B, {SimVersion{"only", W.Entry}});
  auto Runner = Backend.beginSection("S");
  ASSERT_NE(Runner, nullptr);
  EXPECT_EQ(Runner->numVersions(), 1u);
  EXPECT_EQ(Runner->versionLabel(0), "only");
  Backend.runSerial(1000);
  EXPECT_EQ(Backend.now(), 1000);
}

} // namespace

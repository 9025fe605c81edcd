//===- tests/TraceTest.cpp - Simulator tracing tests ------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/water/WaterApp.h"
#include "ir/Builder.h"
#include "sim/SectionSim.h"

#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::sim;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

/// Iterations: compute; acquire(this); update; release(this).
struct TraceWorkload {
  Module M{"tw"};
  Method *Entry = nullptr;

  TraceWorkload() {
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

class TraceBinding final : public DataBinding {
public:
  uint64_t Iterations = 32;
  bool SharedLock = true;
  Nanos ComputeCost = 50000;

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return 8; }
  ObjectId thisObject(uint64_t Iter) const override {
    return SharedLock ? 0 : static_cast<ObjectId>(Iter % 8);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override { return {}; }
  ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
    return 0;
  }
  uint64_t tripCount(unsigned, const LoopCtx &) const override { return 1; }
  Nanos computeNanos(unsigned, const LoopCtx &) const override {
    return ComputeCost;
  }
};

TEST(TraceTest, WorkConservation) {
  // Every processor's interval time decomposes exactly into compute +
  // lock ops + waiting + dispatch/poll overhead.
  TraceWorkload W;
  TraceBinding B;
  SimMachine Machine(4, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"v", W.Entry}}, false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  const IntervalReport R = Runner.runInterval(0, Unbounded);

  ASSERT_EQ(Trace.Procs.size(), 4u);
  Nanos TotalDecomposed = 0;
  for (const auto &P : Trace.Procs)
    TotalDecomposed += P.total();
  EXPECT_EQ(TotalDecomposed, R.Stats.ExecNanos);
}

TEST(TraceTest, TraceMatchesStats) {
  TraceWorkload W;
  TraceBinding B;
  SimMachine Machine(4, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"v", W.Entry}}, false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  const IntervalReport R = Runner.runInterval(0, Unbounded);

  Nanos Wait = 0, LockOp = 0, Compute = 0;
  uint64_t Iters = 0;
  for (const auto &P : Trace.Procs) {
    Wait += P.WaitNanos;
    LockOp += P.LockOpNanos;
    Compute += P.ComputeNanos;
    Iters += P.Iterations;
  }
  EXPECT_EQ(Wait, R.Stats.WaitNanos);
  EXPECT_EQ(LockOp, R.Stats.LockOpNanos);
  EXPECT_EQ(Iters, B.Iterations);
  // Compute equals iterations * (kernel + one update).
  EXPECT_EQ(Compute,
            static_cast<Nanos>(B.Iterations) *
                (B.ComputeCost + Machine.model().costs().UpdateNanos));
}

TEST(TraceTest, LockSummaryIdentifiesContendedLock) {
  TraceWorkload W;
  TraceBinding B;
  B.SharedLock = true;
  B.ComputeCost = 500; // Lock-dominated: heavy contention on object 0.
  SimMachine Machine(4, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"v", W.Entry}}, false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  Runner.runInterval(0, Unbounded);

  const auto Hot = Trace.hottestLocks();
  ASSERT_FALSE(Hot.empty());
  EXPECT_EQ(Hot[0].first, 0u);
  EXPECT_EQ(Hot[0].second.Acquires, B.Iterations);
  EXPECT_GT(Hot[0].second.Contended, 0u);
  EXPECT_GT(Hot[0].second.WaitNanos, 0);
}

TEST(TraceTest, HottestLocksBreaksWaitTiesByObjectId) {
  // Equal waiting times must order by ascending object id, so the table
  // (and the trace exporter built on it) renders deterministically.
  IntervalTrace Trace;
  for (ObjectId Obj : {ObjectId(9), ObjectId(2), ObjectId(5)})
    Trace.Locks[Obj].Acquires = 1;
  Trace.Locks[9].WaitNanos = 500;
  Trace.Locks[2].WaitNanos = 500;
  Trace.Locks[5].WaitNanos = 900;

  const auto Hot = Trace.hottestLocks();
  ASSERT_EQ(Hot.size(), 3u);
  EXPECT_EQ(Hot[0].first, 5u); // Most waiting first.
  EXPECT_EQ(Hot[1].first, 2u); // Tie on waiting: lower id wins.
  EXPECT_EQ(Hot[2].first, 9u);
}

TEST(TraceTest, NoContentionWithPrivateLocks) {
  TraceWorkload W;
  TraceBinding B;
  B.SharedLock = false;
  SimMachine Machine(4, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"v", W.Entry}}, false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  Runner.runInterval(0, Unbounded);
  for (const auto &[Obj, S] : Trace.Locks) {
    (void)Obj;
    EXPECT_EQ(S.Contended, 0u);
    EXPECT_EQ(S.WaitNanos, 0);
  }
}

TEST(TraceTest, RenderTextMentionsProcsAndLocks) {
  TraceWorkload W;
  TraceBinding B;
  SimMachine Machine(2, FlatMachineModel());
  SimSectionRunner Runner(Machine, B, {SimVersion{"v", W.Entry}}, false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  Runner.runInterval(0, Unbounded);
  const std::string Text = Trace.renderText();
  EXPECT_NE(Text.find("proc  0"), std::string::npos);
  EXPECT_NE(Text.find("lock 0"), std::string::npos);
}

TEST(TraceTest, WaterPotengAggressiveBlamesGlobalAccumulator) {
  // The trace should point at the global accumulator (object id =
  // NumMolecules) as the false-exclusion culprit of the Aggressive POTENG
  // version.
  apps::water::WaterConfig Config;
  Config.NumMolecules = 32;
  apps::water::WaterApp App(Config);
  const auto *VS = App.program().find("POTENG");
  SimMachine Machine(8, FlatMachineModel());
  SimSectionRunner Runner(
      Machine, App.binding("POTENG"),
      {SimVersion{"Aggressive",
                  VS->versionFor(xform::PolicyKind::Aggressive).Entry}},
      false);
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  Runner.runInterval(0, Unbounded);

  const auto Hot = Trace.hottestLocks();
  ASSERT_FALSE(Hot.empty());
  EXPECT_EQ(Hot[0].first, Config.NumMolecules); // The accumulator object.
  EXPECT_GT(Hot[0].second.Contended, 0u);
}

} // namespace

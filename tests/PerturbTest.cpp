//===- tests/PerturbTest.cpp - Perturbation engine and robustness tests ----==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Deterministic fault injection (src/perturb) and the feedback controller's
// robustness against it: schedule parsing, engine queries, simulator
// injection, the adaptivity flip under a mid-run contention burst, switch
// hysteresis, and the no-NaN trace invariants. Every suite name contains
// "Perturb" so `ctest -R Perturb` runs exactly this file; the seeded tests
// honour DYNFB_PERTURB_SEED for multi-seed stress runs.
//
//===----------------------------------------------------------------------===//

#include "fb/Controller.h"
#include "ir/Builder.h"
#include "perturb/Engine.h"
#include "perturb/Traffic.h"
#include "sim/SectionSim.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::sim;
using namespace dynfb::perturb;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

uint64_t stressSeed() {
  if (const char *S = std::getenv("DYNFB_PERTURB_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 1;
}

// --------------------------- Schedule parsing -----------------------------

TEST(PerturbScheduleTest, ParsesFullGrammar) {
  std::string Error;
  const auto Sched = parseSchedule(
      "slowdown@0.5s-2s:factor=3:proc=1,"
      "contend@1s-inf:extra=300us:obj=1-64:section=S,"
      "timernoise@0s-1s:amp=2us:seed=42",
      Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  ASSERT_EQ(Sched->Events.size(), 3u);
  EXPECT_EQ(Sched->Seed, 42u);

  const FaultEvent &Slow = Sched->Events[0];
  EXPECT_EQ(Slow.Kind, FaultKind::ProcSlowdown);
  EXPECT_EQ(Slow.StartNanos, millisToNanos(500));
  EXPECT_EQ(Slow.EndNanos, secondsToNanos(2));
  EXPECT_DOUBLE_EQ(Slow.Factor, 3.0);
  EXPECT_EQ(Slow.Proc, 1);

  const FaultEvent &Burst = Sched->Events[1];
  EXPECT_EQ(Burst.Kind, FaultKind::ContentionBurst);
  EXPECT_EQ(Burst.ExtraNanos, 300000);
  EXPECT_EQ(Burst.ObjLo, 1);
  EXPECT_EQ(Burst.ObjHi, 64);
  EXPECT_EQ(Burst.Section, "S");
  EXPECT_GT(Burst.EndNanos, secondsToNanos(1000000)); // "inf".

  const FaultEvent &Noise = Sched->Events[2];
  EXPECT_EQ(Noise.Kind, FaultKind::TimerNoise);
  EXPECT_EQ(Noise.AmplitudeNanos, 2000);
}

TEST(PerturbScheduleTest, AppliesPerKindDefaults) {
  std::string Error;
  const auto Sched =
      parseSchedule("contend@1s-2s,slowdown@0s-1s,timernoise@0s-1s", Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_EQ(Sched->Events[0].ExtraNanos, 100000);
  EXPECT_DOUBLE_EQ(Sched->Events[1].Factor, 4.0);
  EXPECT_EQ(Sched->Events[2].AmplitudeNanos, 5000);
}

TEST(PerturbScheduleTest, ParsesScientificNotationTimes) {
  std::string Error;
  const auto Sched = parseSchedule("slowdown@1e-3s-2e-3s", Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_EQ(Sched->Events[0].StartNanos, 1000000);
  EXPECT_EQ(Sched->Events[0].EndNanos, 2000000);
}

TEST(PerturbScheduleTest, RejectsMalformedSpecsWithDiagnostic) {
  const char *Bad[] = {
      "",                          // Empty.
      "bogus@1s-2s",               // Unknown kind.
      "contend@oops",              // No window.
      "slowdown@2s-1s",            // End before start.
      "slowdown@1s-2s:factor=0",   // Factor out of range.
      "contend@1s-2s:nonsense=3",  // Unknown option.
      "contend@1s-2s:extra=",      // Missing value.
      "slowdown@1s",               // Window is not a range.
  };
  for (const char *Spec : Bad) {
    std::string Error;
    EXPECT_FALSE(parseSchedule(Spec, Error).has_value()) << Spec;
    EXPECT_FALSE(Error.empty()) << Spec;
    EXPECT_EQ(Error.find('\n'), std::string::npos)
        << "diagnostic must be one line: " << Error;
  }
}

TEST(PerturbScheduleTest, RenderRoundTrips) {
  std::string Error;
  const std::string Spec =
      "phaseshift@2s-inf:factor=0.1,"
      "contend@0.5s-1.5s:extra=300us:obj=1-64:section=S";
  const auto Sched = parseSchedule(Spec, Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  const std::string Rendered = renderSchedule(*Sched);
  const auto Again = parseSchedule(Rendered, Error);
  ASSERT_TRUE(Again.has_value()) << Rendered << ": " << Error;
  EXPECT_EQ(renderSchedule(*Again), Rendered);
  ASSERT_EQ(Again->Events.size(), Sched->Events.size());
  EXPECT_EQ(Again->Events[1].ExtraNanos, Sched->Events[1].ExtraNanos);
}

TEST(PerturbScheduleTest, ReportsReferencedSections) {
  std::string Error;
  const auto Sched = parseSchedule(
      "contend@1s-2s:section=A,lockhold@0s-1s,slowdown@0s-1s:section=A,"
      "phaseshift@0s-1s:section=B",
      Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_EQ(Sched->referencedSections(),
            (std::vector<std::string>{"A", "B"}));
}

// --------------------------- Schedule validation --------------------------

TEST(PerturbValidateTest, AcceptsInRangeMonotonicSchedule) {
  std::string Error;
  const auto Sched = parseSchedule(
      "slowdown@0s-1s:factor=2:proc=3,contend@1s-2s:extra=100us", Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_TRUE(validateSchedule(*Sched, 4, Error)) << Error;
}

TEST(PerturbValidateTest, RejectsProcOutOfRangeWithDiagnostic) {
  std::string Error;
  const auto Sched =
      parseSchedule("slowdown@1s-2s:factor=3:proc=7", Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_FALSE(validateSchedule(*Sched, 4, Error));
  EXPECT_NE(Error.find("proc=7 out of range for 4 processors"),
            std::string::npos)
      << Error;
  EXPECT_NE(Error.find("valid 0..3"), std::string::npos) << Error;
  // The same schedule is fine on a machine that has the processor.
  EXPECT_TRUE(validateSchedule(*Sched, 8, Error)) << Error;
}

TEST(PerturbValidateTest, RejectsNonMonotonicActivationTimes) {
  std::string Error;
  const auto Sched = parseSchedule(
      "contend@2s-3s:extra=100us,contend@1s-2s:extra=100us", Error);
  ASSERT_TRUE(Sched.has_value()) << Error;
  EXPECT_FALSE(validateSchedule(*Sched, 4, Error));
  EXPECT_NE(Error.find("non-decreasing"), std::string::npos) << Error;
}

// --------------------------- Traffic compilation --------------------------

TEST(PerturbTrafficTest, ParseRenderRoundTrips) {
  std::string Error;
  const auto Spec = parseTraffic(
      "storm:window=60ms:windows=6:tenants=3:peak=2.5:burst=150us:"
      "storm=0.4:seed=9:loop=closed",
      Error);
  ASSERT_TRUE(Spec.has_value()) << Error;
  EXPECT_EQ(Spec->Mix, TrafficMix::Storm);
  EXPECT_EQ(Spec->WindowNanos, millisToNanos(60));
  EXPECT_EQ(Spec->Windows, 6u);
  EXPECT_EQ(Spec->Tenants, 3u);
  EXPECT_DOUBLE_EQ(Spec->PeakFactor, 2.5);
  EXPECT_EQ(Spec->BurstExtraNanos, 150000);
  EXPECT_DOUBLE_EQ(Spec->StormProbability, 0.4);
  EXPECT_EQ(Spec->Seed, 9u);
  EXPECT_TRUE(Spec->ClosedLoop);

  const std::string Rendered = renderTraffic(*Spec);
  const auto Again = parseTraffic(Rendered, Error);
  ASSERT_TRUE(Again.has_value()) << Rendered << ": " << Error;
  EXPECT_EQ(renderTraffic(*Again), Rendered);
}

TEST(PerturbTrafficTest, RejectsMalformedSpecsWithDiagnostic) {
  const char *Bad[] = {
      "",                      // Empty.
      "monsoon:windows=4",     // Unknown mix.
      "steady:windows=",       // Missing value.
      "diurnal:cadence=2s",    // Unknown option.
      "storm:storm=nope",      // Unparseable value.
  };
  for (const char *Spec : Bad) {
    std::string Error;
    EXPECT_FALSE(parseTraffic(Spec, Error).has_value()) << Spec;
    EXPECT_FALSE(Error.empty()) << Spec;
  }
}

TEST(PerturbTrafficTest, CompiledScheduleIsSortedDeterministicAndValid) {
  std::string Error;
  const auto Spec =
      parseTraffic("storm:window=50ms:windows=8:storm=1:seed=5", Error);
  ASSERT_TRUE(Spec.has_value()) << Error;
  const unsigned NumShards = 64, NumProcs = 8;
  const PerturbationSchedule A = compileTraffic(*Spec, NumShards, NumProcs);
  const PerturbationSchedule B = compileTraffic(*Spec, NumShards, NumProcs);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(renderSchedule(A), renderSchedule(B));
  EXPECT_TRUE(validateSchedule(A, NumProcs, Error)) << Error;
  for (size_t I = 1; I < A.Events.size(); ++I)
    EXPECT_GE(A.Events[I].StartNanos, A.Events[I - 1].StartNanos);
  for (const FaultEvent &E : A.Events) {
    if (E.Kind == FaultKind::ContentionBurst && E.ObjLo >= 0) {
      EXPECT_GE(E.ObjLo, 0);
      EXPECT_LT(E.ObjHi, static_cast<int64_t>(NumShards));
    }
    if (E.Kind == FaultKind::ProcSlowdown && E.Proc >= 0)
      EXPECT_LT(E.Proc, static_cast<int>(NumProcs));
  }
  // storm=1 guarantees every window storms: slowdowns must appear.
  bool SawSlowdown = false, SawBurst = false;
  for (const FaultEvent &E : A.Events) {
    SawSlowdown |= E.Kind == FaultKind::ProcSlowdown;
    SawBurst |= E.Kind == FaultKind::ContentionBurst;
  }
  EXPECT_TRUE(SawSlowdown);
  EXPECT_TRUE(SawBurst);
}

TEST(PerturbTrafficTest, ClosedLoopSuppressesIntensityEvents) {
  std::string Error;
  const auto Open = parseTraffic("diurnal:window=100ms:peak=3", Error);
  ASSERT_TRUE(Open.has_value()) << Error;
  const auto Closed =
      parseTraffic("diurnal:window=100ms:peak=3:loop=closed", Error);
  ASSERT_TRUE(Closed.has_value()) << Error;

  const auto CountShifts = [](const PerturbationSchedule &S) {
    unsigned N = 0;
    for (const FaultEvent &E : S.Events)
      N += E.Kind == FaultKind::PhaseShift;
    return N;
  };
  EXPECT_GT(CountShifts(compileTraffic(*Open, 16, 4)), 0u);
  EXPECT_EQ(CountShifts(compileTraffic(*Closed, 16, 4)), 0u);
}

// ----------------------------- Engine queries -----------------------------

TEST(PerturbEngineTest, WindowsAreHalfOpen) {
  FaultEvent E;
  E.Kind = FaultKind::PhaseShift;
  E.StartNanos = 100;
  E.EndNanos = 200;
  E.Factor = 2.0;
  const PerturbationEngine Engine(PerturbationSchedule{{E}, 1});
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 0, 99), 1.0);
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 0, 100), 2.0);
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 0, 199), 2.0);
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 0, 200), 1.0);
}

TEST(PerturbEngineTest, FiltersByProcSectionAndObject) {
  FaultEvent Slow;
  Slow.Kind = FaultKind::ProcSlowdown;
  Slow.StartNanos = 0;
  Slow.EndNanos = 1000;
  Slow.Factor = 3.0;
  Slow.Proc = 2;
  Slow.Section = "S";
  FaultEvent Burst;
  Burst.Kind = FaultKind::ContentionBurst;
  Burst.StartNanos = 0;
  Burst.EndNanos = 1000;
  Burst.ExtraNanos = 50;
  Burst.ObjLo = 10;
  Burst.ObjHi = 20;
  const PerturbationEngine Engine(PerturbationSchedule{{Slow, Burst}, 1});

  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 2, 0), 3.0);
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 1, 0), 1.0); // Wrong proc.
  EXPECT_DOUBLE_EQ(Engine.computeScale("T", 2, 0), 1.0); // Wrong section.
  EXPECT_TRUE(Engine.mayAffect("S"));
  EXPECT_TRUE(Engine.mayAffect("T")); // The burst has no section filter.

  EXPECT_EQ(Engine.contentionExtra("S", 15, 0), 50);
  EXPECT_EQ(Engine.contentionExtra("S", 9, 0), 0);
  EXPECT_EQ(Engine.contentionExtra("S", 21, 0), 0);
}

TEST(PerturbEngineTest, OverlappingSlowdownsCompose) {
  FaultEvent A, B;
  A.Kind = B.Kind = FaultKind::ProcSlowdown;
  A.StartNanos = B.StartNanos = 0;
  A.EndNanos = B.EndNanos = 1000;
  A.Factor = 2.0;
  B.Factor = 3.0;
  const PerturbationEngine Engine(PerturbationSchedule{{A, B}, 1});
  EXPECT_DOUBLE_EQ(Engine.computeScale("S", 0, 5), 6.0);
}

TEST(PerturbEngineTest, TimerNoiseIsDeterministicAndBounded) {
  FaultEvent E;
  E.Kind = FaultKind::TimerNoise;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.AmplitudeNanos = 5000;
  const PerturbationEngine Engine(
      PerturbationSchedule{{E}, stressSeed()});
  for (Nanos T = 0; T < 100000; T += 7919) {
    const Nanos N1 = Engine.timerNoise("S", 3, T);
    const Nanos N2 = Engine.timerNoise("S", 3, T);
    EXPECT_EQ(N1, N2);
    EXPECT_LE(std::abs(N1), E.AmplitudeNanos);
  }
  // Outside the window there is no noise at all.
  FaultEvent Late = E;
  Late.StartNanos = 1000;
  Late.EndNanos = 2000;
  const PerturbationEngine LateEngine(
      PerturbationSchedule{{Late}, stressSeed()});
  EXPECT_EQ(LateEngine.timerNoise("S", 3, 999), 0);
  EXPECT_EQ(LateEngine.timerNoise("S", 3, 2000), 0);
}

// --------------------------- Simulator injection --------------------------

/// The SimTest toy workload: compute D; acquire(lock); update; release.
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
  bool SharedLock = false;
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
};

struct ToyRun {
  IntervalReport Report;
  Nanos MachineEnd = 0;
};

ToyRun runToy(const PerturbationEngine *Engine, unsigned Procs = 1,
              uint64_t Iterations = 4, const std::string &Section = "S") {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = Iterations;
  // One private object per iteration: organic contention can never occur,
  // so any waiting that shows up was injected.
  B.Objects = static_cast<uint32_t>(Iterations < 8 ? 8 : Iterations);
  SimMachine Machine(Procs, FlatMachineModel());
  Machine.setPerturbation(Engine);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  Runner.setPerturbation(Machine.perturbation(), Section);
  ToyRun R;
  R.Report = Runner.runInterval(0, Unbounded);
  R.MachineEnd = Machine.now();
  return R;
}

bool sameReport(const IntervalReport &A, const IntervalReport &B) {
  return A.EffectiveNanos == B.EffectiveNanos &&
         A.InjectedNanos == B.InjectedNanos &&
         A.Stats.ExecNanos == B.Stats.ExecNanos &&
         A.Stats.LockOpNanos == B.Stats.LockOpNanos &&
         A.Stats.WaitNanos == B.Stats.WaitNanos &&
         A.Stats.FailedAcquires == B.Stats.FailedAcquires &&
         A.Stats.AcquireReleasePairs == B.Stats.AcquireReleasePairs;
}

TEST(PerturbSimTest, DisabledOrIrrelevantScheduleIsByteIdentical) {
  const ToyRun Baseline = runToy(nullptr);
  EXPECT_EQ(Baseline.Report.InjectedNanos, 0);

  // A schedule scoped entirely to another section must not change a thing.
  FaultEvent E;
  E.Kind = FaultKind::ProcSlowdown;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.Factor = 10.0;
  E.Section = "OTHER";
  const PerturbationEngine Engine(PerturbationSchedule{{E}, 1});
  const ToyRun Scoped = runToy(&Engine);
  EXPECT_TRUE(sameReport(Baseline.Report, Scoped.Report));
  EXPECT_EQ(Baseline.MachineEnd, Scoped.MachineEnd);

  // So must an event whose window ends before the section starts running.
  FaultEvent Early = E;
  Early.Section.clear();
  Early.StartNanos = 0;
  Early.EndNanos = 0 + 1; // Over before the first compute op completes.
  const PerturbationEngine EarlyEngine(PerturbationSchedule{{Early}, 1});
  const ToyRun Windowed = runToy(&EarlyEngine);
  EXPECT_TRUE(sameReport(Baseline.Report, Windowed.Report));
}

TEST(PerturbSimTest, SlowdownInjectionIsExactlyAccounted) {
  const ToyRun Baseline = runToy(nullptr);

  FaultEvent E;
  E.Kind = FaultKind::ProcSlowdown;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.Factor = 2.0;
  const PerturbationEngine Engine(PerturbationSchedule{{E}, 1});
  const ToyRun Slowed = runToy(&Engine);

  EXPECT_GT(Slowed.Report.InjectedNanos, 0);
  // Single processor: the injected time is exactly the wall-clock growth.
  EXPECT_EQ(Slowed.Report.EffectiveNanos,
            Baseline.Report.EffectiveNanos + Slowed.Report.InjectedNanos);
  // Doubling compute leaves lock accounting untouched.
  EXPECT_EQ(Slowed.Report.Stats.LockOpNanos,
            Baseline.Report.Stats.LockOpNanos);
}

TEST(PerturbSimTest, LockHoldSpikeSurchargesEveryLockConstruct) {
  const ToyRun Baseline = runToy(nullptr);

  FaultEvent E;
  E.Kind = FaultKind::LockHoldSpike;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.ExtraNanos = 10000;
  const PerturbationEngine Engine(PerturbationSchedule{{E}, 1});
  const ToyRun Spiked = runToy(&Engine);

  // 4 iterations x (acquire + release) x 10 us.
  EXPECT_EQ(Spiked.Report.Stats.LockOpNanos - Baseline.Report.Stats.LockOpNanos,
            4 * 2 * E.ExtraNanos);
  EXPECT_EQ(Spiked.Report.InjectedNanos, 4 * 2 * E.ExtraNanos);
}

TEST(PerturbSimTest, ContentionBurstInjectsCountedWaiting) {
  const ToyRun Baseline = runToy(nullptr, 4, 16);
  EXPECT_EQ(Baseline.Report.Stats.WaitNanos, 0);
  EXPECT_EQ(Baseline.Report.Stats.FailedAcquires, 0u);

  FaultEvent E;
  E.Kind = FaultKind::ContentionBurst;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.ExtraNanos = 50000;
  const PerturbationEngine Engine(PerturbationSchedule{{E}, 1});
  const ToyRun Burst = runToy(&Engine, 4, 16);

  // Waiting appears on a workload with otherwise uncontended private locks,
  // and it is accounted the paper's way: as counted failed acquires.
  EXPECT_EQ(Burst.Report.Stats.WaitNanos, 16 * E.ExtraNanos);
  EXPECT_EQ(Burst.Report.Stats.FailedAcquires,
            16u * static_cast<uint64_t>((E.ExtraNanos + 999) / 1000));
  EXPECT_EQ(Burst.Report.Stats.AcquireReleasePairs,
            Baseline.Report.Stats.AcquireReleasePairs);
}

TEST(PerturbSimTest, SeededTimerNoiseIsReproducible) {
  FaultEvent E;
  E.Kind = FaultKind::TimerNoise;
  E.StartNanos = 0;
  E.EndNanos = Unbounded;
  E.AmplitudeNanos = 8000;
  const PerturbationEngine Engine(
      PerturbationSchedule{{E}, stressSeed()});
  const ToyRun A = runToy(&Engine, 4, 32);
  const ToyRun B = runToy(&Engine, 4, 32);
  EXPECT_TRUE(sameReport(A.Report, B.Report));
  EXPECT_EQ(A.MachineEnd, B.MachineEnd);
  // The noise actually perturbed something, and nothing went negative.
  EXPECT_NE(A.Report.InjectedNanos, 0);
  EXPECT_GT(A.Report.EffectiveNanos, 0);
  EXPECT_GE(A.Report.Stats.ExecNanos, 0);
}

// ------------------ Machine checked error paths (DYNFB_CHECK) -------------

TEST(PerturbMachineDeathTest, AdvanceRejectsNegativeDuration) {
  SimMachine Machine(1, FlatMachineModel());
  EXPECT_DEATH(Machine.advance(-1), "negative duration");
}

TEST(PerturbMachineDeathTest, AdvanceRejectsVirtualTimeOverflow) {
  SimMachine Machine(1, FlatMachineModel());
  Machine.advance(std::numeric_limits<Nanos>::max() - 10);
  EXPECT_DEATH(Machine.advance(100), "overflow");
}

// ------------- Acceptance (a): adaptivity under a contention burst --------

/// Two-version workload: "fine" locks a private per-iteration object
/// (objects 1..64); "coarse" locks the single shared object 0 passed as a
/// section argument. At baseline fine is best (no serialization); a
/// contention burst against the private objects makes coarse best.
struct TwoVersionWorkload {
  Module M{"adapt"};
  Method *Fine = nullptr;
  Method *Coarse = nullptr;
  unsigned OuterClass = 0, InnerClass = 0;

  TwoVersionWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Fine = M.createMethod("fine", C);
    {
      MethodBuilder B(M, Fine);
      OuterClass = B.compute();
      B.acquire(Receiver::thisObj());
      InnerClass = B.compute();
      B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
      B.release(Receiver::thisObj());
    }
    Coarse = M.createMethod("coarse", C);
    Coarse->addParam(Param{"global", C, false});
    {
      MethodBuilder B(M, Coarse);
      B.computeWithClass(OuterClass);
      B.acquire(Receiver::param(0));
      B.computeWithClass(InnerClass);
      B.update(Receiver::param(0), F, BinOp::Add, M.exprConst(1.0));
      B.release(Receiver::param(0));
    }
  }
};

class TwoVersionBinding final : public DataBinding {
public:
  uint64_t Iterations = 12000;
  unsigned OuterClass = 0;

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return 65; }
  ObjectId thisObject(uint64_t Iter) const override {
    return static_cast<ObjectId>(1 + Iter % 64);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override {
    return {ObjRef::single(0)};
  }
  ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
    return 0;
  }
  uint64_t tripCount(unsigned, const LoopCtx &) const override { return 1; }
  Nanos computeNanos(unsigned CostClass, const LoopCtx &) const override {
    return CostClass == OuterClass ? 100000 : 30000; // 100 us / 30 us.
  }
};

/// The burst: from 50 ms of virtual time on, every acquire of a private
/// object (1..64) waits an extra 500 us -- an external agent hammering the
/// fine-grain locks.
PerturbationEngine privateLockBurst() {
  FaultEvent E;
  E.Kind = FaultKind::ContentionBurst;
  E.StartNanos = millisToNanos(50);
  E.EndNanos = Unbounded;
  E.ExtraNanos = 500000;
  E.ObjLo = 1;
  E.ObjHi = 64;
  return PerturbationEngine(PerturbationSchedule{{E}, 1});
}

TEST(PerturbAdaptTest, ControllerFlipsVersionWithinOneResamplingCycle) {
  TwoVersionWorkload W;
  TwoVersionBinding B;
  B.OuterClass = W.OuterClass;
  const PerturbationEngine Engine = privateLockBurst();

  SimMachine Machine(4, FlatMachineModel());
  Machine.setPerturbation(&Engine);
  SimSectionRunner Runner(
      Machine, B,
      {SimVersion{"fine", W.Fine}, SimVersion{"coarse", W.Coarse}}, false);
  Runner.setPerturbation(Machine.perturbation(), "S");

  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(100);
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(Runner, "S");

  // Sampling before the burst picks fine; the first resampling after the
  // burst hits must already pick coarse -- and every one after it.
  ASSERT_GE(T.ChosenVersions.size(), 3u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u) << "fine must win at baseline";
  for (size_t I = 1; I < T.ChosenVersions.size(); ++I)
    EXPECT_EQ(T.ChosenVersions[I], 1u)
        << "controller must switch to coarse within one resampling cycle";
  EXPECT_EQ(T.dominantVersion(), 1u);
}

TEST(PerturbAdaptTest, NoFeedbackBaselineStaysStaleAndSlower) {
  TwoVersionWorkload W;
  const PerturbationEngine Engine = privateLockBurst();

  // No-feedback baseline: fine-grain locking forever, through the burst.
  TwoVersionBinding FixedB;
  FixedB.OuterClass = W.OuterClass;
  SimMachine FixedMachine(4, FlatMachineModel());
  FixedMachine.setPerturbation(&Engine);
  SimSectionRunner FixedRunner(
      FixedMachine, FixedB,
      {SimVersion{"fine", W.Fine}, SimVersion{"coarse", W.Coarse}}, false);
  FixedRunner.setPerturbation(FixedMachine.perturbation(), "S");
  OverheadStats FixedStats;
  while (!FixedRunner.done())
    FixedStats.merge(FixedRunner.runInterval(0, Unbounded).Stats);

  // Adaptive run over the identical workload and schedule.
  TwoVersionBinding DynB;
  DynB.OuterClass = W.OuterClass;
  SimMachine DynMachine(4, FlatMachineModel());
  DynMachine.setPerturbation(&Engine);
  SimSectionRunner DynRunner(
      DynMachine, DynB,
      {SimVersion{"fine", W.Fine}, SimVersion{"coarse", W.Coarse}}, false);
  DynRunner.setPerturbation(DynMachine.perturbation(), "S");
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(100);
  fb::FeedbackController C(Config);
  C.executeSection(DynRunner, "S");

  // The stale baseline eats the injected waiting for the whole run; dynamic
  // feedback escapes to coarse locking and finishes far sooner.
  EXPECT_GT(FixedStats.WaitNanos, secondsToNanos(1));
  EXPECT_LT(DynMachine.now(), FixedMachine.now() / 2);
}

// ------------- Acceptance (b): hysteresis under measurement noise ---------

/// Synthetic runner (the FbTest mock): version V's overhead is
/// OverheadFn(V, now); each interval consumes min(target, remaining).
class SyntheticRunner : public IntervalRunner {
public:
  SyntheticRunner(unsigned NumVersions, Nanos TotalWork,
                  std::function<double(unsigned, Nanos)> OverheadFn)
      : NumVersionsV(NumVersions), TotalWork(TotalWork),
        OverheadFn(std::move(OverheadFn)) {}

  unsigned numVersions() const override { return NumVersionsV; }
  std::string versionLabel(unsigned V) const override {
    return "v" + std::to_string(V);
  }
  IntervalReport runInterval(unsigned V, Nanos Target) override {
    const double Overhead = OverheadFn(V, Clock);
    const Nanos Dur = std::min(Target, Nanos(static_cast<double>(Remaining) /
                                             (1.0 - Overhead)));
    Clock += Dur;
    Remaining -= static_cast<Nanos>(static_cast<double>(Dur) *
                                    (1.0 - Overhead));
    if (Remaining < 1000)
      Remaining = 0;
    IntervalReport R;
    R.EffectiveNanos = Dur;
    R.Stats.ExecNanos = Dur;
    R.Stats.LockOpNanos = static_cast<Nanos>(Overhead * Dur);
    R.Finished = Remaining == 0;
    return R;
  }
  bool done() const override { return Remaining == 0; }
  void reset() override { Remaining = TotalWork; }
  Nanos now() const override { return Clock; }

  const unsigned NumVersionsV;
  const Nanos TotalWork;
  Nanos Remaining = TotalWork;
  Nanos Clock = 0;
  std::function<double(unsigned, Nanos)> OverheadFn;
};

/// Noise-only environment: both versions hover around 0.30, their ranking
/// flipping by +-0.02 with a 37 ms period. No version is genuinely better.
double noisyOverhead(unsigned V, Nanos Now) {
  const double Wobble =
      (Now / millisToNanos(37)) % 2 == 0 ? 0.02 : -0.02;
  return 0.30 + (V == 0 ? Wobble : -Wobble);
}

unsigned distinctChoices(const std::vector<unsigned> &Chosen) {
  unsigned Switches = 0;
  for (size_t I = 1; I < Chosen.size(); ++I)
    if (Chosen[I] != Chosen[I - 1])
      ++Switches;
  return Switches;
}

TEST(PerturbHysteresisTest, NoiseOnlyRunsNeverSwitchWithHysteresis) {
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(100);

  // Control: without hysteresis the noise makes the controller thrash.
  SyntheticRunner Thrash(2, secondsToNanos(1), noisyOverhead);
  fb::FeedbackController C0(Config);
  const fb::SectionExecutionTrace T0 = C0.executeSection(Thrash, "S");
  ASSERT_GE(T0.ChosenVersions.size(), 4u);
  EXPECT_GT(distinctChoices(T0.ChosenVersions), 0u);
  EXPECT_EQ(T0.HysteresisHolds, 0u);

  // With a margin above the noise amplitude: zero spurious switches.
  Config.SwitchHysteresis = 0.05;
  SyntheticRunner Steady(2, secondsToNanos(1), noisyOverhead);
  fb::FeedbackController C1(Config);
  const fb::SectionExecutionTrace T1 = C1.executeSection(Steady, "S");
  ASSERT_GE(T1.ChosenVersions.size(), 4u);
  EXPECT_EQ(distinctChoices(T1.ChosenVersions), 0u);
  EXPECT_GT(T1.HysteresisHolds, 0u);
}

TEST(PerturbHysteresisTest, GenuineImprovementStillSwitches) {
  // Version 1 becomes better by far more than the margin: hysteresis must
  // not pin a genuinely stale incumbent.
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(100);
  Config.SwitchHysteresis = 0.05;
  SyntheticRunner R(2, secondsToNanos(1), [](unsigned V, Nanos Now) {
    const bool Late = Now > millisToNanos(300);
    if (V == 0)
      return Late ? 0.6 : 0.1;
    return 0.25;
  });
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_GE(T.ChosenVersions.size(), 2u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);
}

// ---------------- Acceptance (c): no NaN/inf ever escapes -----------------

/// A runner that alternates real measurements with zero-duration
/// (degenerate) intervals -- the shape that previously injected fake
/// zero-overhead measurements into version selection.
class FlakyRunner : public SyntheticRunner {
public:
  FlakyRunner(unsigned NumVersions, Nanos TotalWork,
              std::function<double(unsigned, Nanos)> OverheadFn)
      : SyntheticRunner(NumVersions, TotalWork, std::move(OverheadFn)) {}

  IntervalReport runInterval(unsigned V, Nanos Target) override {
    if (++Calls % 3 == 0)
      return IntervalReport{}; // Zero duration, nothing consumed.
    return SyntheticRunner::runInterval(V, Target);
  }
  unsigned Calls = 0;
};

TEST(PerturbInvariantTest, DegenerateIntervalsAreDiscardedNotRecorded) {
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(100);
  FlakyRunner R(2, secondsToNanos(1), [](unsigned V, Nanos) {
    return V == 0 ? 0.1 : 0.5;
  });
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GT(T.DegenerateIntervals, 0u);
  // Despite a third of all intervals being degenerate, the decision is
  // still right and every recorded sample is a finite valid overhead
  // (executeSection checked assertInvariants; re-check explicitly).
  T.assertInvariants();
  EXPECT_EQ(T.dominantVersion(), 0u);
  for (const Series &S : T.SampledOverheads.all())
    for (double V : S.Values) {
      EXPECT_TRUE(std::isfinite(V));
      EXPECT_GE(V, 0.0);
      EXPECT_LE(V, 1.0);
    }
}

TEST(PerturbInvariantTest, AllDegenerateSamplingFallsBackToLastGood) {
  // After 200 ms every interval is degenerate: the controller must ride the
  // last known-good version instead of asserting or spinning.
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = millisToNanos(50);
  unsigned Calls = 0;
  class DyingRunner : public SyntheticRunner {
  public:
    using SyntheticRunner::SyntheticRunner;
    IntervalReport runInterval(unsigned V, Nanos Target) override {
      if (Clock > millisToNanos(200)) {
        // Degenerate from here on; drain a little work so the run ends.
        Remaining = Remaining > millisToNanos(20) ? Remaining - millisToNanos(20)
                                                  : 0;
        IntervalReport R;
        R.Finished = Remaining == 0;
        return R;
      }
      return SyntheticRunner::runInterval(V, Target);
    }
  };
  (void)Calls;
  DyingRunner R(2, secondsToNanos(1),
                [](unsigned V, Nanos) { return V == 1 ? 0.1 : 0.4; });
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_TRUE(R.done());
  EXPECT_GT(T.DegenerateIntervals, 0u);
  ASSERT_FALSE(T.ChosenVersions.empty());
  // Production decisions continue on the last measured best (version 1).
  EXPECT_EQ(T.ChosenVersions.back(), 1u);
}

TEST(PerturbInvariantDeathTest, TraceInvariantsCatchNaN) {
  fb::SectionExecutionTrace T;
  T.SampledOverheads.getOrCreate("v0").addPoint(
      0.0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DEATH(T.assertInvariants(), "sampled overhead");

  fb::SectionExecutionTrace U;
  U.SampledOverheads.getOrCreate("v0").addPoint(0.0, 2.0); // > 1.
  EXPECT_DEATH(U.assertInvariants(), "sampled overhead");

  fb::SectionExecutionTrace V;
  V.EndNanos = -1;
  EXPECT_DEATH(V.assertInvariants(), "end precedes start");
}

// --------------- Drift-triggered early resampling (robust knob) -----------

TEST(PerturbDriftTest, ProductionDriftCutsProductionShort) {
  // Version 0 is best until 200 ms, then collapses. With sliced production
  // and a drift threshold the controller resamples early and escapes; the
  // paper configuration (no slicing) rides the stale choice to the end of
  // the production budget.
  auto Overhead = [](unsigned V, Nanos Now) {
    if (V == 0)
      return Now > millisToNanos(200) ? 0.8 : 0.05;
    return 0.25;
  };

  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(10);
  Config.TargetProductionNanos = secondsToNanos(2);
  Config.ProductionSliceNanos = millisToNanos(50);
  Config.DriftResampleThreshold = 0.2;
  SyntheticRunner R(2, secondsToNanos(1), Overhead);
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.EarlyResamples, 1u);
  ASSERT_GE(T.ChosenVersions.size(), 2u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);

  // Control: the unsliced paper configuration cannot react -- one production
  // phase swallows the whole run.
  fb::FeedbackConfig Paper;
  Paper.TargetSamplingNanos = millisToNanos(10);
  Paper.TargetProductionNanos = secondsToNanos(2);
  SyntheticRunner R2(2, secondsToNanos(1), Overhead);
  fb::FeedbackController C2(Paper);
  const fb::SectionExecutionTrace T2 = C2.executeSection(R2, "S");
  EXPECT_EQ(T2.EarlyResamples, 0u);
  EXPECT_EQ(distinctChoices(T2.ChosenVersions), 0u);
}

// ------------------- Robust aggregation of repeated samples ---------------

TEST(PerturbAggregationTest, MedianOfRepeatsShrugsOffOutliers) {
  EXPECT_DOUBLE_EQ(
      aggregateOverheads({0.1, 0.12, 0.9}, OverheadAggregation::Median), 0.12);
  EXPECT_DOUBLE_EQ(
      aggregateOverheads({0.1, 0.12, 0.9}, OverheadAggregation::Mean),
      (0.1 + 0.12 + 0.9) / 3.0);
  EXPECT_DOUBLE_EQ(aggregateOverheads({0.9, 0.1, 0.2, 0.3, 0.15},
                                      OverheadAggregation::TrimmedMean, 0.2),
                   (0.15 + 0.2 + 0.3) / 3.0);
  // Non-finite samples are discarded before aggregation.
  EXPECT_DOUBLE_EQ(
      aggregateOverheads({0.2, std::numeric_limits<double>::infinity()},
                         OverheadAggregation::Mean),
      0.2);
  // An empty (or fully discarded) sample set yields the NaN sentinel, never
  // 0.0: a nothing-was-measured aggregate must not pose as a perfect
  // zero-overhead measurement.
  EXPECT_TRUE(
      std::isnan(aggregateOverheads({}, OverheadAggregation::Median)));
  EXPECT_TRUE(std::isnan(
      aggregateOverheads({std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()},
                         OverheadAggregation::Mean)));
}

TEST(PerturbAggregationTest, RepeatedSamplingWithMedianResistsSpikes) {
  // Version 0 is genuinely best (0.1) but every 3rd measurement of it
  // spikes to 0.9; version 1 is steady at 0.2. Single-sample mean sampling
  // can be fooled; 3 repeats with a median never is.
  unsigned Calls = 0;
  auto Spiky = [&Calls](unsigned V, Nanos) {
    if (V != 0)
      return 0.2;
    return ++Calls % 3 == 0 ? 0.9 : 0.1;
  };
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = millisToNanos(5);
  Config.TargetProductionNanos = millisToNanos(100);
  Config.SamplingRepeats = 3;
  Config.SamplingAggregation = OverheadAggregation::Median;
  SyntheticRunner R(2, secondsToNanos(1), Spiky);
  fb::FeedbackController C(Config);
  const fb::SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_FALSE(T.ChosenVersions.empty());
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u);
}

} // namespace

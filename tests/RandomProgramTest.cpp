//===- tests/RandomProgramTest.cpp - Property tests over random programs ---==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Generates random well-formed, commuting object-based programs and checks
// the invariants every synchronization transformation must preserve, for
// every policy, across the whole pipeline (generation -> optimization ->
// lowering -> simulation):
//   - the verifier accepts every generated version, including
//     interprocedural update atomicity;
//   - versions perform identical useful work (compute time per iteration);
//   - lock pairs are monotone: Aggressive <= Bounded <= Original;
//   - one-processor execution time is monotone the same way;
//   - the simulator is deterministic and deadlock-free at any processor
//     count.
//
//===----------------------------------------------------------------------===//

#include "analysis/Commutativity.h"
#include "fb/Controller.h"
#include "ir/Builder.h"
#include "ir/Clone.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "ir/Verifier.h"
#include "rt/Evaluator.h"
#include "rt/Interp.h"
#include "sim/SectionSim.h"
#include "support/Random.h"
#include "xform/LockElimination.h"
#include "xform/MultiVersion.h"
#include "xform/Synchronizer.h"

#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::xform;

namespace {

/// A random program: one module with one parallel section, built so that it
/// is well-formed and its operations commute by construction. Classes
/// split their fields into read-only fields (appearing in expressions) and
/// accumulator fields (each with one fixed commuting operator).
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : R(Seed), M("random") {}

  Module &module() { return M; }

  const Method *generate() {
    // Classes.
    const unsigned NumClasses = 1 + R.nextBelow(2);
    for (unsigned C = 0; C < NumClasses; ++C) {
      ClassDecl *Cls = M.createClass("c" + std::to_string(C));
      ClassInfo Info;
      Info.Cls = Cls;
      const unsigned ReadOnly = 1 + R.nextBelow(2);
      for (unsigned F = 0; F < ReadOnly; ++F)
        Info.ReadOnlyFields.push_back(
            Cls->addField("ro" + std::to_string(F)));
      const unsigned Accums = 1 + R.nextBelow(3);
      for (unsigned F = 0; F < Accums; ++F) {
        Info.AccumFields.push_back(
            Cls->addField("acc" + std::to_string(F)));
        Info.AccumOps.push_back(R.nextBelow(2) ? BinOp::Add : BinOp::Mul);
      }
      Classes.push_back(Info);
    }

    // A few leaf methods per class: straight-line compute + updates.
    for (ClassInfo &Info : Classes) {
      const unsigned NumLeaves = 1 + R.nextBelow(2);
      for (unsigned L = 0; L < NumLeaves; ++L) {
        Method *Leaf =
            M.createMethod("leaf" + std::to_string(Leaves.size()), Info.Cls);
        // Optionally one single-object parameter of some class.
        const bool HasParam = R.nextBelow(2) == 0;
        const ClassInfo *ParamCls = nullptr;
        if (HasParam) {
          ParamCls = &Classes[R.nextBelow(Classes.size())];
          Leaf->addParam(Param{"p", ParamCls->Cls, false});
        }
        MethodBuilder B(M, Leaf);
        emitStraightLine(B, Info, ParamCls, 1 + R.nextBelow(4));
        Leaves.push_back(Leaf);
      }
    }

    // The entry method: owner = class 0, one object-array parameter per
    // class, body with loops calling leaves / doing updates.
    const ClassInfo &EntryCls = Classes[0];
    Method *Entry = M.createMethod("entry", EntryCls.Cls);
    for (unsigned C = 0; C < Classes.size(); ++C)
      Entry->addParam(Param{"arr" + std::to_string(C), Classes[C].Cls,
                            /*IsArray=*/true});
    {
      MethodBuilder B(M, Entry);
      const unsigned Blocks = 1 + R.nextBelow(3);
      for (unsigned Blk = 0; Blk < Blocks; ++Blk)
        emitBlock(B, EntryCls, Entry, 0);
    }
    M.addSection("S", Entry);
    return Entry;
  }

private:
  struct ClassInfo {
    ClassDecl *Cls = nullptr;
    std::vector<unsigned> ReadOnlyFields;
    std::vector<unsigned> AccumFields;
    std::vector<BinOp> AccumOps;
  };

  const Expr *someValueExpr(const ClassInfo &Ctx) {
    if (R.nextBelow(2) == 0)
      return M.exprConst(1.0 + static_cast<double>(R.nextBelow(7)));
    return M.exprFieldRead(
        Receiver::thisObj(),
        Ctx.ReadOnlyFields[R.nextBelow(Ctx.ReadOnlyFields.size())]);
  }

  /// Straight-line mix of computes and commuting updates on `this` (and
  /// optionally on a single-object parameter).
  void emitStraightLine(MethodBuilder &B, const ClassInfo &Own,
                        const ClassInfo *ParamCls, unsigned Len) {
    for (unsigned I = 0; I < Len; ++I) {
      const unsigned Kind = static_cast<unsigned>(R.nextBelow(3));
      if (Kind == 0) {
        B.compute();
        continue;
      }
      if (Kind == 2 && ParamCls) {
        const size_t F = R.nextBelow(ParamCls->AccumFields.size());
        B.update(Receiver::param(0), ParamCls->AccumFields[F],
                 ParamCls->AccumOps[F], someValueExpr(Own));
        continue;
      }
      const size_t F = R.nextBelow(Own.AccumFields.size());
      B.update(Receiver::thisObj(), Own.AccumFields[F], Own.AccumOps[F],
               someValueExpr(Own));
    }
  }

  /// A block in the entry method: either straight-line work on `this`, a
  /// loop over updates/calls, or a nested loop (depth-limited).
  void emitBlock(MethodBuilder &B, const ClassInfo &Own, Method *Entry,
                 unsigned Depth) {
    const unsigned Kind = static_cast<unsigned>(R.nextBelow(3));
    if (Kind == 0 || Depth >= 2) {
      emitStraightLine(B, Own, nullptr, 1 + R.nextBelow(3));
      return;
    }
    const unsigned LoopId = B.beginLoop();
    const unsigned Inner = static_cast<unsigned>(R.nextBelow(4));
    switch (Inner) {
    case 0: {
      // Updates of array elements selected by this loop.
      const unsigned C = static_cast<unsigned>(R.nextBelow(Classes.size()));
      const ClassInfo &Target = Classes[C];
      const size_t F = R.nextBelow(Target.AccumFields.size());
      B.compute();
      B.update(Receiver::paramIndexed(C, LoopId), Target.AccumFields[F],
               Target.AccumOps[F], M.exprConst(2.0));
      break;
    }
    case 1: {
      // A call to a leaf method on `this` (if classes match) or on an
      // array element of the leaf's class.
      const Method *Leaf = Leaves[R.nextBelow(Leaves.size())];
      const unsigned OwnerIdx = classIndexOf(Leaf->owner());
      const Receiver Recv = Leaf->owner() == Entry->owner()
                                ? Receiver::thisObj()
                                : Receiver::paramIndexed(OwnerIdx, LoopId);
      std::vector<Receiver> Args;
      if (!Leaf->params().empty() && Leaf->param(0).isObject())
        Args.push_back(Receiver::paramIndexed(
            classIndexOf(Leaf->param(0).ObjClass), LoopId));
      B.call(Leaf, Recv, std::move(Args));
      break;
    }
    case 2:
      // Nested block.
      emitBlock(B, Own, Entry, Depth + 1);
      break;
    default:
      // Updates of `this` inside the loop (liftable-receiver shape).
      B.compute();
      emitStraightLine(B, Own, nullptr, 1 + R.nextBelow(2));
      break;
    }
    B.endLoop();
  }

  unsigned classIndexOf(const ClassDecl *Cls) const {
    for (unsigned I = 0; I < Classes.size(); ++I)
      if (Classes[I].Cls == Cls)
        return I;
    ADD_FAILURE() << "unknown class";
    return 0;
  }

  Rng R;
  Module M;
  std::vector<ClassInfo> Classes;
  std::vector<const Method *> Leaves;
};

/// Generic binding for random programs: hash-derived trip counts and
/// compute costs, object ids partitioned by nothing (locks only).
class RandomBinding final : public rt::DataBinding {
public:
  explicit RandomBinding(uint64_t Seed) : Seed(Seed) {}

  uint64_t iterationCount() const override { return 6; }
  uint32_t objectCount() const override { return 64; }
  rt::ObjectId thisObject(uint64_t Iter) const override {
    return static_cast<rt::ObjectId>(Iter);
  }
  std::vector<rt::ObjRef> sectionArgs(uint64_t) const override {
    // One array handle per possible array param; handles are their index.
    return {rt::ObjRef::array(0), rt::ObjRef::array(1),
            rt::ObjRef::array(2)};
  }
  rt::ObjectId elementOf(rt::ArrayId Arr, uint64_t Index,
                         const rt::LoopCtx &Ctx) const override {
    SplitMix64 H(Seed ^ (Arr * 911ULL) ^ (Index * 31ULL) ^
                 (Ctx.Iter * 7ULL));
    return static_cast<rt::ObjectId>(H.next() % objectCount());
  }
  uint64_t tripCount(unsigned LoopId, const rt::LoopCtx &Ctx) const override {
    SplitMix64 H(Seed ^ (LoopId * 131ULL) ^ (Ctx.Iter * 17ULL));
    return 1 + H.next() % 4;
  }
  rt::Nanos computeNanos(unsigned CC, const rt::LoopCtx &Ctx) const override {
    SplitMix64 H(Seed ^ (CC * 1009ULL) ^ (Ctx.Iter * 3ULL));
    return 500 + static_cast<rt::Nanos>(H.next() % 5000);
  }

private:
  const uint64_t Seed;
};

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, PipelineInvariants) {
  const uint64_t Seed = GetParam();
  ProgramGenerator Gen(Seed);
  const Method *Entry = Gen.generate();
  Module &M = Gen.module();

  // The author form is well-formed and commutes by construction.
  ASSERT_TRUE(verifyModule(M).empty()) << "seed " << Seed;
  ASSERT_TRUE(analysis::analyzeEntry(*Entry).Commutes) << "seed " << Seed;

  // Textual round-trip: print -> parse -> print is a fixed point and the
  // reparsed entry is structurally identical.
  {
    const std::string Printed = printModule(M);
    const ParseResult Parsed = parseModule(Printed);
    ASSERT_TRUE(Parsed.ok()) << "seed " << Seed << ": " << Parsed.Error;
    EXPECT_EQ(printModule(*Parsed.M), Printed) << "seed " << Seed;
    const Method *ReEntry = Parsed.M->findMethod(Entry->name());
    ASSERT_NE(ReEntry, nullptr) << "seed " << Seed;
    EXPECT_TRUE(structurallyEqual(*Entry, *ReEntry)) << "seed " << Seed;
  }

  // Generate all versions (internally verifies structure + atomicity; a
  // failure aborts, which the test harness reports).
  const VersionedProgram Program = generateVersions(M);
  ASSERT_EQ(Program.Sections.size(), 1u);
  const VersionedSection &VS = Program.Sections[0];
  ASSERT_GE(VS.Versions.size(), 1u);
  ASSERT_LE(VS.Versions.size(), 3u);

  const RandomBinding Binding(Seed);
  const rt::CostModel CM = rt::CostModel::dashLike();

  rt::IterationEmitter Orig(VS.versionFor(PolicyKind::Original).Entry,
                            Binding, CM);
  rt::IterationEmitter Bnd(VS.versionFor(PolicyKind::Bounded).Entry,
                           Binding, CM);
  rt::IterationEmitter Agg(VS.versionFor(PolicyKind::Aggressive).Entry,
                           Binding, CM);
  rt::IterationEmitter Serial(VS.SerialEntry, Binding, CM);

  for (uint64_t I = 0; I < Binding.iterationCount(); ++I) {
    // Useful work is identical in every version.
    const rt::Nanos Work = Serial.computeTime(I);
    EXPECT_EQ(Orig.computeTime(I), Work) << "seed " << Seed;
    EXPECT_EQ(Bnd.computeTime(I), Work) << "seed " << Seed;
    EXPECT_EQ(Agg.computeTime(I), Work) << "seed " << Seed;
    // Lock pairs are monotone across policies; serial has none.
    EXPECT_EQ(Serial.countPairs(I), 0u);
    EXPECT_LE(Agg.countPairs(I), Bnd.countPairs(I)) << "seed " << Seed;
    EXPECT_LE(Bnd.countPairs(I), Orig.countPairs(I)) << "seed " << Seed;
  }

  // One-processor simulation: time is monotone with the pair counts, and
  // every run terminates (deadlock-freedom).
  constexpr rt::Nanos Unbounded = std::numeric_limits<rt::Nanos>::max() / 4;
  auto RunOnce = [&](const Method *VersionEntry, unsigned Procs) {
    sim::SimMachine Machine(Procs, rt::FlatMachineModel(CM));
    sim::SimSectionRunner Runner(Machine, Binding,
                                 {sim::SimVersion{"v", VersionEntry}},
                                 false);
    const rt::IntervalReport Report = Runner.runInterval(0, Unbounded);
    EXPECT_TRUE(Report.Finished) << "seed " << Seed;
    return Report;
  };

  const rt::Nanos T1Orig =
      RunOnce(VS.versionFor(PolicyKind::Original).Entry, 1).EffectiveNanos;
  const rt::Nanos T1Bnd =
      RunOnce(VS.versionFor(PolicyKind::Bounded).Entry, 1).EffectiveNanos;
  const rt::Nanos T1Agg =
      RunOnce(VS.versionFor(PolicyKind::Aggressive).Entry, 1)
          .EffectiveNanos;
  EXPECT_LE(T1Agg, T1Bnd) << "seed " << Seed;
  EXPECT_LE(T1Bnd, T1Orig) << "seed " << Seed;

  // Semantic equivalence: every version computes the same final object
  // state as the serial code, under both natural and reversed iteration
  // orders (the operations commute).
  {
    std::vector<uint64_t> Natural(Binding.iterationCount());
    for (uint64_t I = 0; I < Natural.size(); ++I)
      Natural[I] = I;
    std::vector<uint64_t> Reversed(Natural.rbegin(), Natural.rend());

    rt::ObjectStore Reference;
    rt::SectionEvaluator(VS.SerialEntry, Binding).runAll(Natural, Reference);
    for (const SectionVersion &V : VS.Versions) {
      rt::SectionEvaluator E(V.Entry, Binding);
      rt::ObjectStore Fwd, Bwd;
      E.runAll(Natural, Fwd);
      E.runAll(Reversed, Bwd);
      EXPECT_TRUE(Fwd == Reference)
          << "seed " << Seed << " version " << V.label();
      EXPECT_TRUE(Bwd == Reference)
          << "seed " << Seed << " version " << V.label();
    }
  }

  // Multi-processor runs terminate and are deterministic.
  for (unsigned Procs : {3u, 8u}) {
    const rt::IntervalReport A =
        RunOnce(VS.versionFor(PolicyKind::Aggressive).Entry, Procs);
    const rt::IntervalReport B =
        RunOnce(VS.versionFor(PolicyKind::Aggressive).Entry, Procs);
    EXPECT_EQ(A.EffectiveNanos, B.EffectiveNanos) << "seed " << Seed;
    EXPECT_EQ(A.Stats.FailedAcquires, B.Stats.FailedAcquires)
        << "seed " << Seed;
  }

  // The dynamic feedback controller terminates on arbitrary generated
  // programs, completes every iteration, and is deterministic.
  {
    std::vector<sim::SimVersion> SimVersions;
    for (const SectionVersion &V : VS.Versions)
      SimVersions.push_back(sim::SimVersion{V.label(), V.Entry});
    auto RunDynamic = [&] {
      sim::SimMachine Machine(4, rt::FlatMachineModel(CM));
      sim::SimSectionRunner Runner(Machine, Binding, SimVersions, true);
      fb::FeedbackConfig FC;
      FC.TargetSamplingNanos = rt::millisToNanos(0.05);
      FC.TargetProductionNanos = rt::millisToNanos(1.0);
      fb::FeedbackController Controller(FC);
      const fb::SectionExecutionTrace Trace =
          Controller.executeSection(Runner, "S");
      EXPECT_TRUE(Runner.done()) << "seed " << Seed;
      return Trace.durationNanos();
    };
    EXPECT_EQ(RunDynamic(), RunDynamic()) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 61));

} // namespace

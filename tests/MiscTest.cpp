//===- tests/MiscTest.cpp - Coverage for factory, harness, code size -------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Factory.h"
#include "apps/Harness.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/RootFinding.h"
#include "rt/Stats.h"
#include "xform/CodeSize.h"

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::ir;
using namespace dynfb::xform;

namespace {

// ---------------------------- Factory --------------------------------------

TEST(FactoryTest, CreatesAllKnownApps) {
  for (const std::string &Name : appNames()) {
    auto App = createApp(Name, 1.0 / 64.0);
    ASSERT_NE(App, nullptr) << Name;
    EXPECT_FALSE(App->program().Sections.empty()) << Name;
    EXPECT_FALSE(App->schedule().empty()) << Name;
  }
}

TEST(FactoryTest, UnknownAppIsNull) {
  EXPECT_EQ(createApp("nope"), nullptr);
  EXPECT_EQ(createApp(""), nullptr);
}

// ---------------------------- Harness --------------------------------------

TEST(HarnessTest, SerialFlavourRunsLockFree) {
  auto App = createApp("water", 1.0 / 32.0);
  const fb::RunResult R = runApp(*App, 1, VersionSpec::serial(),
                                 rt::FlatMachineModel());
  EXPECT_GT(R.TotalNanos, 0);
  EXPECT_EQ(R.ParallelStats.AcquireReleasePairs, 0u);
}

TEST(HarnessTest, PolicyHistoryIsThreadedThrough) {
  auto App = createApp("water", 1.0 / 32.0);
  fb::FeedbackConfig Config;
  Config.UsePolicyOrdering = true;
  fb::PolicyHistory History;
  runApp(*App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
         Config, &History);
  EXPECT_TRUE(History.lastBest("INTERF").has_value());
  EXPECT_TRUE(History.lastBest("POTENG").has_value());
}

// ---------------------------- OverheadStats --------------------------------

TEST(OverheadStatsTest, WaitingProportion) {
  rt::OverheadStats S;
  S.ExecNanos = 1000;
  S.WaitNanos = 250;
  EXPECT_DOUBLE_EQ(S.waitingProportion(), 0.25);
  rt::OverheadStats Empty;
  EXPECT_DOUBLE_EQ(Empty.waitingProportion(), 0.0);
}

TEST(OverheadStatsTest, MergeAccumulatesAllFields) {
  rt::OverheadStats A, B;
  A.AcquireReleasePairs = 3;
  A.FailedAcquires = 1;
  A.LockOpNanos = 10;
  A.WaitNanos = 20;
  A.ExecNanos = 100;
  B = A;
  A.merge(B);
  EXPECT_EQ(A.AcquireReleasePairs, 6u);
  EXPECT_EQ(A.FailedAcquires, 2u);
  EXPECT_EQ(A.LockOpNanos, 20);
  EXPECT_EQ(A.WaitNanos, 40);
  EXPECT_EQ(A.ExecNanos, 200);
}

// ---------------------------- CodeSize -------------------------------------

TEST(CodeSizeTest2, MethodBytesArithmetic) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Meth = M.createMethod("m", C);
  MethodBuilder B(M, Meth);
  B.compute();
  B.acquire(Receiver::thisObj());
  B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
  B.release(Receiver::thisObj());

  const CodeSizeModel Model;
  EXPECT_EQ(Model.methodBytes(*Meth, false),
            Model.MethodOverheadBytes + Model.ComputeBytes +
                2 * Model.LockOpBytes + Model.UpdateBytes);
  EXPECT_EQ(Model.methodBytes(*Meth, true),
            Model.MethodOverheadBytes + Model.ComputeBytes +
                2 * Model.LockOpInstrumentedBytes + Model.UpdateBytes);
}

TEST(CodeSizeTest2, ClosureBytesDeduplicatesIdenticalMethods) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  auto MakeLeaf = [&](const char *Name) {
    Method *Leaf = M.createMethod(Name, C);
    Leaf->body().push_back(
        M.createUpdate(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0)));
    return Leaf;
  };
  Method *LeafA = MakeLeaf("a");
  Method *LeafB = MakeLeaf("b"); // Structurally identical to a.
  Method *Root1 = M.createMethod("r1", C);
  Root1->body().push_back(M.createCall(LeafA, Receiver::thisObj(), {}));
  Method *Root2 = M.createMethod("r2", C);
  Root2->body().push_back(M.createCall(LeafB, Receiver::thisObj(), {}));

  const CodeSizeModel Model;
  // r1 and r2 are structurally identical too, so the whole union collapses
  // to one root + one leaf.
  const uint64_t Bytes = Model.closureBytes({Root1, Root2}, false);
  EXPECT_EQ(Bytes, Model.methodBytes(*Root1, false) +
                       Model.methodBytes(*LeafA, false));
}

// ---------------------------- Verifier typing ------------------------------

TEST(VerifierTypingTest, CallReceiverClassMismatchRejected) {
  Module M("m");
  ClassDecl *A = M.createClass("a");
  ClassDecl *B = M.createClass("b");
  Method *CalleeOfB = M.createMethod("f", B);
  Method *Caller = M.createMethod("g", A);
  // Call a b-method with an a-typed receiver.
  Caller->body().push_back(M.createCall(CalleeOfB, Receiver::thisObj(), {}));
  const auto Errors = verifyMethod(*Caller);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("does not match callee owner"),
            std::string::npos);
}

TEST(VerifierTypingTest, ArrayArgToSingleParamRejected) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  Method *Callee = M.createMethod("f", C);
  Callee->addParam(Param{"x", C, /*IsArray=*/false});
  Method *Caller = M.createMethod("g", C);
  Caller->addParam(Param{"arr", C, /*IsArray=*/true});
  // Pass the whole array where a single object is expected: the argument
  // receiver itself is malformed (a Param receiver cannot name an array).
  Caller->body().push_back(
      M.createCall(Callee, Receiver::thisObj(), {Receiver::param(0)}));
  const auto Errors = verifyMethod(*Caller);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("malformed"), std::string::npos);
}

// ---------------------------- Root finding edges ---------------------------

TEST(RootFindingEdgeTest, NewtonRejectsNoBracket) {
  auto F = [](double X) { return X * X + 1.0; };
  auto DF = [](double X) { return 2.0 * X; };
  EXPECT_FALSE(newtonSafeguarded(F, DF, 0.0, -1.0, 1.0).has_value());
}

TEST(RootFindingEdgeTest, NewtonSurvivesZeroDerivative) {
  // f(x) = x^3 has f'(0) = 0; the safeguard bisects instead of dividing
  // by zero.
  auto F = [](double X) { return X * X * X; };
  auto DF = [](double X) { return 3.0 * X * X; };
  const auto Root = newtonSafeguarded(F, DF, 0.0, -1.0, 2.0);
  ASSERT_TRUE(Root.has_value());
  EXPECT_NEAR(Root->X, 0.0, 1e-6);
}

// ---------------------------- Loop context ---------------------------------

TEST(LoopCtxTest, IndexOfFindsInnermostMatch) {
  rt::LoopCtx Ctx;
  Ctx.Loops.emplace_back(3u, 7u);
  Ctx.Loops.emplace_back(5u, 2u);
  EXPECT_EQ(Ctx.indexOf(3), 7u);
  EXPECT_EQ(Ctx.indexOf(5), 2u);
}

// ---------------------------- Printer receivers ----------------------------

TEST(PrinterTest2, ReceiverSpellings) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  Method *Meth = M.createMethod("m", C);
  Meth->addParam(Param{"solo", C, false});
  Meth->addParam(Param{"arr", C, true});
  EXPECT_EQ(printReceiver(Receiver::thisObj(), *Meth), "this");
  EXPECT_EQ(printReceiver(Receiver::param(0), *Meth), "solo");
  EXPECT_EQ(printReceiver(Receiver::paramIndexed(1, 4), *Meth), "arr[i4]");
}

} // namespace

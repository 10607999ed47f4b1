//===- tests/ProfitabilityTest.cpp - promotion profit model tests ---------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of computeProfit (paper §4.3): benefits from loads/stores
/// that promotion deletes, costs from phi-leaf loads and compensating
/// stores, and the store-elimination decision as a function of the
/// profile. Programs are the Fig. 7 shape with controllable path
/// frequencies, compiled through the pipeline front half.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "interp/Interpreter.h"
#include "profile/ProfileInfo.h"
#include "promotion/SSAWeb.h"
#include "promotion/WebPromotion.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

struct ProfitFixture {
  std::unique_ptr<Module> M;
  Function *Main = nullptr;
  CanonicalCFG CFG;
  ProfileInfo PI;

  explicit ProfitFixture(const std::string &Source) {
    M = compileOrDie(Source);
    for (const auto &Fn : M->functions()) {
      DominatorTree DT(*Fn);
      promoteLocalsToSSA(*Fn, DT);
      if (Fn->name() == "main") {
        Main = Fn.get();
        CFG = canonicalize(*Fn);
      } else {
        canonicalize(*Fn);
      }
    }
    Interpreter I(*M);
    PI = ProfileInfo::fromExecution(I.run());
    buildMemorySSA(*Main, CFG.DT);
  }

  /// The unique web of \p Obj in the outermost loop.
  std::unique_ptr<SSAWeb> loopWeb(const char *Obj,
                                  PromotionOptions Opts = {}) {
    const Interval *Loop = CFG.IT.root()->children().front();
    auto Webs = constructSSAWebs(*Loop, Opts);
    for (SSAWeb &W : Webs)
      if (W.Obj->name() == Obj)
        return std::make_unique<SSAWeb>(std::move(W));
    ADD_FAILURE() << "no web for " << Obj;
    return nullptr;
  }
};

TEST(ProfitabilityTest, HotLoopHighProfit) {
  ProfitFixture Fx(R"(
    int x = 0;
    void main() {
      int i;
      for (i = 0; i < 100; i++) x = x + 1;
      print(x);
    }
  )");
  auto W = Fx.loopWeb("x");
  ASSERT_NE(W, nullptr);
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, {});
  // 100 loads and 100 stores deleted; boundary costs are tiny.
  EXPECT_GE(P.LoadBenefit, 100);
  EXPECT_GE(P.StoreBenefit, 100);
  EXPECT_TRUE(P.RemoveStores);
  EXPECT_GT(P.total(), 150);
}

TEST(ProfitabilityTest, ColdCallPathChargesCompensation) {
  // Fig. 7: the call path runs ~30 of 100 iterations; compensating
  // stores/loads on it are charged against the 100-iteration benefit.
  ProfitFixture Fx(R"(
    int x = 0;
    void foo() { x = x | 1; }
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        x++;
        if (x < 30) foo();
      }
      print(x);
    }
  )");
  auto W = Fx.loopWeb("x");
  ASSERT_NE(W, nullptr);
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, {});
  EXPECT_GT(P.LoadBenefit, 0);
  EXPECT_GT(P.StoreBenefit, 0);
  EXPECT_GT(P.StoreCost, 0); // stores before foo() on the cold path
  EXPECT_GT(P.LoadCost, 0);  // reloads after foo()
  EXPECT_TRUE(P.RemoveStores);
  EXPECT_GT(P.total(), 0);
}

TEST(ProfitabilityTest, HotCallPathMakesStoreRemovalUnprofitable) {
  // The call happens every iteration: a compensating store per iteration
  // cancels the store benefit; store elimination must be declined.
  ProfitFixture Fx(R"(
    int x = 0;
    void foo() { x = x | 1; }
    void main() {
      int i;
      for (i = 0; i < 100; i++) {
        x++;
        foo();
      }
      print(x);
    }
  )");
  auto W = Fx.loopWeb("x");
  ASSERT_NE(W, nullptr);
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, {});
  // Each iteration: one store deleted, one compensating store added, and
  // a reload after the call replaces the load... net ~zero. The decision
  // must not be a clear win; in particular load benefit equals load cost.
  EXPECT_LE(P.loadProfit(), 0);
  EXPECT_LE(P.storeProfit(), 100); // no meaningful win available
}

TEST(ProfitabilityTest, ReadOnlyWebProfitIsLoadsMinusPreheader) {
  ProfitFixture Fx(R"(
    int k = 7;
    void main() {
      int i;
      int s = 0;
      for (i = 0; i < 50; i++) s = s + k;
      print(s);
    }
  )");
  auto W = Fx.loopWeb("k");
  ASSERT_NE(W, nullptr);
  ASSERT_TRUE(W->DefResources.empty());
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, {});
  EXPECT_EQ(P.LoadBenefit, 50);
  EXPECT_EQ(P.LoadCost, 1); // the preheader load (boundary accounting on)
  EXPECT_FALSE(P.RemoveStores);

  PromotionOptions NoBoundary;
  NoBoundary.CountBoundaryOps = false;
  WebProfit P2 = computeProfit(*W, Fx.PI, Fx.CFG.DT, NoBoundary);
  EXPECT_EQ(P2.LoadCost, 0); // the paper's exact formula
}

TEST(ProfitabilityTest, StoreEliminationFlagRespected) {
  ProfitFixture Fx(R"(
    int x = 0;
    void main() {
      int i;
      for (i = 0; i < 100; i++) x = x + 1;
      print(x);
    }
  )");
  PromotionOptions NoElim;
  NoElim.AllowStoreElimination = false;
  auto W = Fx.loopWeb("x", NoElim);
  ASSERT_NE(W, nullptr);
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, NoElim);
  EXPECT_FALSE(P.RemoveStores);
  // Loads still profitable on their own.
  EXPECT_GT(P.loadProfit(), 0);
}

TEST(ProfitabilityTest, UnexecutedLoopHasZeroProfit) {
  ProfitFixture Fx(R"(
    int x = 0;
    int gate = 0;
    void main() {
      int i;
      if (gate) {
        for (i = 0; i < 100; i++) x = x + 1;
      }
      print(x);
    }
  )");
  auto W = Fx.loopWeb("x");
  ASSERT_NE(W, nullptr);
  WebProfit P = computeProfit(*W, Fx.PI, Fx.CFG.DT, {});
  EXPECT_EQ(P.LoadBenefit, 0);
  EXPECT_EQ(P.StoreBenefit, 0);
  // Zero-frequency promotion is allowed (profit >= 0) but worth nothing.
  EXPECT_EQ(P.total(), 0);
}

} // namespace

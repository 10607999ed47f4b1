//===- tests/SSAWebTest.cpp - SSA web construction tests ------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests constructSSAWebs (paper §4.2, Fig. 3): the phi-connectivity
/// partition, the per-web reference sets, live-in identification, and the
/// web-vs-whole-variable granularity switch. Scenarios are built through
/// the standard pipeline front half so the webs come from real memory SSA.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "promotion/SSAWeb.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "ir/Printer.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>
#include <set>

using namespace srp;
using namespace srp::test;

namespace {

struct WebFixture {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  CanonicalCFG CFG;

  explicit WebFixture(const std::string &Source, const char *FnName = "main") {
    M = compileOrDie(Source);
    for (const auto &Fn : M->functions()) {
      DominatorTree DT(*Fn);
      promoteLocalsToSSA(*Fn, DT);
      if (Fn->name() == FnName) {
        F = Fn.get();
        CFG = canonicalize(*Fn);
      } else {
        canonicalize(*Fn);
      }
    }
    buildMemorySSA(*F, CFG.DT);
  }

  std::vector<SSAWeb> websIn(const Interval *Iv, PromotionOptions Opts = {}) {
    return constructSSAWebs(*Iv, Opts);
  }

  const Interval *loop() const {
    EXPECT_FALSE(CFG.IT.root()->children().empty());
    return CFG.IT.root()->children().front();
  }

  std::vector<SSAWeb *> websOf(std::vector<SSAWeb> &Ws, const char *ObjName) {
    std::vector<SSAWeb *> Out;
    for (SSAWeb &W : Ws)
      if (W.Obj->name() == ObjName)
        Out.push_back(&W);
    return Out;
  }
};

TEST(SSAWebTest, LoopWebCollectsAllConnectedVersions) {
  WebFixture Fx(R"(
    int x = 0;
    void main() {
      int i;
      for (i = 0; i < 10; i++) x = x + 1;
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  auto XWebs = Fx.websOf(Webs, "x");
  ASSERT_EQ(XWebs.size(), 1u);
  SSAWeb *W = XWebs[0];
  // Live-in version, loop phi, store def: at least three names connected.
  EXPECT_GE(W->Resources.size(), 3u);
  EXPECT_EQ(W->LoadRefs.size(), 1u);
  EXPECT_EQ(W->StoreRefs.size(), 1u);
  EXPECT_EQ(W->Phis.size(), 1u);
  EXPECT_NE(W->LiveIn, nullptr);
  EXPECT_EQ(W->NumLiveIns, 1u);
  EXPECT_TRUE(W->AliasedLoadRefs.empty());
}

TEST(SSAWebTest, CallSplitsVariableIntoMultipleWebs) {
  // The paper's example: x = ..; foo(); bar(); gives one web per segment
  // because each call redefines x with a fresh unconnected name.
  WebFixture Fx(R"(
    int x = 0;
    void foo() { x = x + 1; }
    void bar() { x = x * 2; }
    void main() {
      x = 5;
      foo();
      x = x + 1;
      bar();
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.CFG.IT.root());
  auto XWebs = Fx.websOf(Webs, "x");
  // Straight-line code has no phis: every segment is its own web.
  EXPECT_GE(XWebs.size(), 3u);
  for (SSAWeb *W : XWebs)
    EXPECT_LE(W->Resources.size(), 2u);
}

TEST(SSAWebTest, WholeVariableGranularityMergesWebs) {
  WebFixture Fx(R"(
    int x = 0;
    void foo() { x = x + 1; }
    void main() {
      x = 5;
      foo();
      x = x + 1;
      print(x);
    }
  )");
  PromotionOptions Whole;
  Whole.WebGranularity = false;
  auto Webs = Fx.websIn(Fx.CFG.IT.root(), Whole);
  auto XWebs = Fx.websOf(Webs, "x");
  ASSERT_EQ(XWebs.size(), 1u);
  EXPECT_GE(XWebs[0]->Resources.size(), 3u);
}

TEST(SSAWebTest, AliasedRefsClassified) {
  WebFixture Fx(R"(
    int x = 0;
    void foo() { x = x + 1; }
    void main() {
      int i;
      for (i = 0; i < 10; i++) {
        x = x + 1;
        if (i == 5) foo();
      }
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  auto XWebs = Fx.websOf(Webs, "x");
  ASSERT_EQ(XWebs.size(), 1u);
  SSAWeb *W = XWebs[0];
  // The call inside the loop contributes both an aliased load (mu) and an
  // aliased store (chi) to the web.
  EXPECT_EQ(W->AliasedLoadRefs.size(), 1u);
  EXPECT_EQ(W->AliasedStoreRefs.size(), 1u);
  EXPECT_TRUE(isa<CallInst>(W->AliasedLoadRefs[0].first));
}

TEST(SSAWebTest, ArraysExcludedFromWebs) {
  WebFixture Fx(R"(
    int a[4];
    void main() {
      int i;
      for (i = 0; i < 4; i++) a[i] = i;
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  for (const SSAWeb &W : Webs)
    EXPECT_NE(W.Obj->kind(), MemoryObject::Kind::Array);
}

TEST(SSAWebTest, LeafClassification) {
  WebFixture Fx(R"(
    int x = 0;
    void foo() { x = x + 1; }
    void main() {
      int i;
      for (i = 0; i < 10; i++) {
        x = x + 1;
        if (i == 5) foo();
      }
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  auto XWebs = Fx.websOf(Webs, "x");
  ASSERT_EQ(XWebs.size(), 1u);
  SSAWeb *W = XWebs[0];
  ASSERT_GE(W->Phis.size(), 1u);
  // Phi operands: those defined by web phis are not leaves; the live-in,
  // the store def and the chi def are leaves; only the store-defined leaf
  // is "defined by a store of the web".
  unsigned Leaves = 0, StoreLeaves = 0;
  for (MemPhiInst *P : W->Phis) {
    for (unsigned I = 0; I != P->numIncoming(); ++I) {
      MemoryName *N = P->incomingName(I);
      if (W->isLeaf(N)) {
        ++Leaves;
        if (W->definedByWebStore(N))
          ++StoreLeaves;
      }
    }
  }
  EXPECT_GE(Leaves, 2u);
  EXPECT_GE(StoreLeaves, 1u);
  EXPECT_LT(StoreLeaves, Leaves);
}

TEST(SSAWebTest, DisconnectedSegmentsHaveDistinctLiveIns) {
  // Two loops over the same variable with a call between them: the outer
  // (root) interval sees distinct webs whose live-ins differ.
  WebFixture Fx(R"(
    int x = 0;
    void wipe() { x = 0; }
    void main() {
      int i;
      for (i = 0; i < 5; i++) x = x + 1;
      wipe();
      for (i = 0; i < 5; i++) x = x + 2;
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.CFG.IT.root());
  auto XWebs = Fx.websOf(Webs, "x");
  EXPECT_GE(XWebs.size(), 2u);
}

TEST(SSAWebTest, WebsWithoutReferencesAreDropped) {
  // A variable never touched inside the loop contributes no web there.
  WebFixture Fx(R"(
    int x = 0;
    int y = 0;
    void main() {
      int i;
      for (i = 0; i < 5; i++) x = x + 1;
      y = x;
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  EXPECT_TRUE(Fx.websOf(Webs, "y").empty());
  EXPECT_EQ(Fx.websOf(Webs, "x").size(), 1u);
}

TEST(SSAWebTest, ContainsOnlyTheWebsOwnNames) {
  WebFixture Fx(R"(
    int x = 0;
    void foo() { x = x + 1; }
    void main() {
      int i;
      for (i = 0; i < 10; i++) {
        x = x + 1;
        if (i == 5) foo();
      }
      print(x);
    }
  )");
  auto Webs = Fx.websIn(Fx.loop());
  auto XWebs = Fx.websOf(Webs, "x");
  ASSERT_EQ(XWebs.size(), 1u);
  const SSAWeb &W = *XWebs[0];
  ASSERT_FALSE(W.Resources.empty());
  for (MemoryName *N : W.Resources)
    EXPECT_TRUE(W.contains(N)) << N->name();
  for (const SSAWeb &Other : Webs) {
    if (&Other == &W)
      continue;
    for (MemoryName *N : Other.Resources)
      EXPECT_FALSE(W.contains(N)) << N->name();
  }

  // A name created after construction is past the web's name table.
  MemoryName *Late = Fx.F->createMemoryName(W.Obj);
  EXPECT_FALSE(W.contains(Late));

  // Another function's name with the number of one of the web's names.
  Function *Foo = nullptr;
  for (const auto &Fn : Fx.M->functions())
    if (Fn->name() == "foo")
      Foo = Fn.get();
  ASSERT_NE(Foo, nullptr);
  const MemoryName *Own = W.Resources.back();
  MemoryName *Foreign = nullptr;
  while (Foo->memoryNameBound() <= Own->number())
    Foreign = Foo->createMemoryName(W.Obj);
  ASSERT_NE(Foreign, nullptr);
  ASSERT_EQ(Foreign->number(), Own->number());
  EXPECT_FALSE(W.contains(Foreign));
}

TEST(SSAWebTest, WholeVariableGivesOneWebPerObject) {
  WebFixture Fx(R"(
    int x = 0;
    int y = 0;
    void foo() { x = x + y; }
    void main() {
      int i;
      for (i = 0; i < 10; i++) {
        x = x + 1;
        foo();
        y = y + x;
        foo();
      }
      print(x + y);
    }
  )");
  // The calls split both variables into several webs per loop...
  auto Granular = Fx.websIn(Fx.loop());
  EXPECT_GT(Fx.websOf(Granular, "x").size(), 1u);
  EXPECT_GT(Fx.websOf(Granular, "y").size(), 1u);

  // ...which whole-variable mode merges into exactly one per object, each
  // holding every name of its object the interval references.
  PromotionOptions Whole;
  Whole.WebGranularity = false;
  auto Webs = Fx.websIn(Fx.loop(), Whole);
  std::set<const MemoryObject *> Objects;
  for (const SSAWeb &W : Webs)
    EXPECT_TRUE(Objects.insert(W.Obj).second) << W.Obj->name();
  for (const char *Name : {"x", "y"}) {
    auto Ws = Fx.websOf(Webs, Name);
    ASSERT_EQ(Ws.size(), 1u) << Name;
    size_t GranularNames = 0;
    for (SSAWeb *G : Fx.websOf(Granular, Name))
      GranularNames += G->Resources.size();
    EXPECT_GE(Ws[0]->Resources.size(), GranularNames) << Name;
  }
}

} // namespace

//===- tests/RandomCFGTest.cpp - random-CFG analysis cross-checks ---------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property suite over randomly generated raw CFGs (IR level, not Mini-C):
///  - the Cooper-Harvey-Kennedy dominator tree matches a naive O(n^2)
///    dataflow reference,
///  - dominance frontiers satisfy their definition,
///  - the interval tree respects containment/entry/exit invariants,
///  - CFG canonicalisation preserves these and establishes its promises.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/BitVector.h"
#include "support/RNG.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>
#include <map>

using namespace srp;
using namespace srp::test;

namespace {

/// Builds a random function CFG: N blocks, block 0 the entry, every block
/// ends in ret / br / condbr to random targets. Unreachable blocks are
/// possible and must be tolerated by the analyses.
std::unique_ptr<Module> randomCFG(uint64_t Seed, unsigned N) {
  RNG Rand(Seed);
  auto M = std::make_unique<Module>("randcfg");
  Function *F = M->createFunction("f", Type::Void);
  std::vector<BasicBlock *> Blocks;
  for (unsigned I = 0; I != N; ++I) {
    std::string Name = "b";
    Name += std::to_string(I);
    Blocks.push_back(F->createBlock(std::move(Name)));
  }
  for (unsigned I = 0; I != N; ++I) {
    IRBuilder B(Blocks[I]);
    unsigned Kind = static_cast<unsigned>(Rand.below(10));
    if (Kind < 2 || N == 1) {
      B.ret();
    } else if (Kind < 6) {
      B.br(Blocks[Rand.below(N)]);
    } else {
      BasicBlock *T = Blocks[Rand.below(N)];
      BasicBlock *E = Blocks[Rand.below(N)];
      if (T == E) {
        B.br(T);
      } else {
        B.condBr(M->constant(static_cast<int64_t>(Rand.below(2))), T, E);
      }
    }
  }
  return M;
}

/// Naive dominator sets: iterate Dom(b) = {b} U intersect(Dom(preds))
/// until fixpoint, over reachable blocks only.
std::map<const BasicBlock *, BitVector>
naiveDominators(Function &F, const std::vector<BasicBlock *> &Reachable) {
  std::map<const BasicBlock *, unsigned> Idx;
  for (unsigned I = 0; I != Reachable.size(); ++I)
    Idx[Reachable[I]] = I;
  unsigned N = static_cast<unsigned>(Reachable.size());

  std::map<const BasicBlock *, BitVector> Dom;
  for (BasicBlock *BB : Reachable) {
    Dom[BB].resize(N, BB != F.entry());
    if (BB == F.entry()) {
      Dom[BB].resize(N, false);
      Dom[BB].set(Idx[BB]);
    }
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : Reachable) {
      if (BB == F.entry())
        continue;
      BitVector New(N, true);
      bool AnyPred = false;
      for (BasicBlock *P : BB->preds()) {
        if (!Idx.count(P))
          continue;
        New.intersectWith(Dom[P]);
        AnyPred = true;
      }
      if (!AnyPred)
        New.resetAll();
      New.set(Idx[BB]);
      if (!(New == Dom[BB])) {
        Dom[BB] = std::move(New);
        Changed = true;
      }
    }
  }
  return Dom;
}

class RandomCFGTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCFGTest, DominatorsMatchNaiveReference) {
  auto M = randomCFG(GetParam(), 4 + GetParam() % 20);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);

  std::vector<BasicBlock *> Reachable = DT.rpo();
  auto Naive = naiveDominators(*F, Reachable);
  std::map<const BasicBlock *, unsigned> Idx;
  for (unsigned I = 0; I != Reachable.size(); ++I)
    Idx[Reachable[I]] = I;

  for (BasicBlock *A : Reachable)
    for (BasicBlock *B : Reachable)
      EXPECT_EQ(DT.dominates(A, B), Naive[B].test(Idx[A]))
          << "seed " << GetParam() << ": dom(" << A->name() << ", "
          << B->name() << ")";
}

TEST_P(RandomCFGTest, FrontiersSatisfyDefinition) {
  auto M = randomCFG(GetParam() * 31 + 1, 4 + GetParam() % 16);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);

  // DF(X) = { Y | X dominates a pred of Y, X does not strictly dominate Y }
  for (BasicBlock *X : DT.rpo()) {
    std::vector<BasicBlock *> Expected;
    for (BasicBlock *Y : DT.rpo()) {
      bool DomPred = false;
      for (BasicBlock *P : Y->preds())
        if (DT.contains(P) && DT.dominates(X, P))
          DomPred = true;
      if (DomPred && !DT.strictlyDominates(X, Y))
        Expected.push_back(Y);
    }
    std::vector<BasicBlock *> Got(DT.frontier(X).begin(),
                                  DT.frontier(X).end());
    std::sort(Expected.begin(), Expected.end());
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, Expected) << "seed " << GetParam() << " DF("
                             << X->name() << ")";
  }
}

TEST_P(RandomCFGTest, IntervalInvariants) {
  auto M = randomCFG(GetParam() * 977 + 3, 4 + GetParam() % 24);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  IntervalTree IT(*F, DT);

  for (Interval *Iv : IT.postorder()) {
    if (Iv->isRoot())
      continue;
    // Children are contained in the parent.
    EXPECT_TRUE(Iv->parent() != nullptr);
    for (BasicBlock *BB : Iv->blocks())
      EXPECT_TRUE(Iv->parent()->contains(BB));
    // The header is an entry and entries have outside predecessors.
    EXPECT_TRUE(Iv->contains(Iv->header()));
    for (BasicBlock *E : Iv->entries()) {
      bool HasOutsidePred = false;
      for (BasicBlock *P : E->preds())
        if (!Iv->contains(P))
          HasOutsidePred = true;
      EXPECT_TRUE(HasOutsidePred || E == Iv->header());
    }
    // Exit edges leave the interval.
    for (auto &[From, To] : Iv->exitEdges()) {
      EXPECT_TRUE(Iv->contains(From));
      EXPECT_FALSE(Iv->contains(To));
    }
    // Depth increases with nesting.
    EXPECT_EQ(Iv->depth(), Iv->parent()->depth() + 1);
  }
}

TEST_P(RandomCFGTest, CanonicalizeEstablishesPromises) {
  auto M = randomCFG(GetParam() * 131 + 7, 4 + GetParam() % 16);
  Function *F = M->getFunction("f");
  CanonicalCFG CFG = canonicalize(*F);
  expectValid(*F, "after canonicalise");

  EXPECT_TRUE(F->entry()->preds().empty());
  for (Interval *Iv : CFG.IT.postorder()) {
    if (Iv->isRoot()) {
      EXPECT_EQ(Iv->preheader(), F->entry());
      continue;
    }
    ASSERT_NE(Iv->preheader(), nullptr);
    EXPECT_FALSE(Iv->contains(Iv->preheader()));
    if (Iv->isProper()) {
      // Dedicated preheader: single successor into the header.
      EXPECT_EQ(Iv->preheader()->succs().size(), 1u);
      EXPECT_EQ(Iv->preheader()->succs()[0], Iv->header());
      // The preheader strictly dominates every block of the interval.
      for (BasicBlock *BB : Iv->blocks())
        EXPECT_TRUE(CFG.DT.strictlyDominates(Iv->preheader(), BB));
    }
    // Exit edges are not critical: each tail has exactly one predecessor.
    for (auto &[From, To] : Iv->exitEdges())
      EXPECT_EQ(To->numPreds(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCFGTest,
                         ::testing::Range<uint64_t>(1, 31));

} // namespace

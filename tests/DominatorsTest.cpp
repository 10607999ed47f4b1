//===- tests/DominatorsTest.cpp - dominator analyses tests ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace srp;

namespace {

/// Diamond: entry -> {l, r} -> join -> exit.
struct Diamond {
  Module M;
  Function *F;
  BasicBlock *Entry, *L, *R, *Join, *Exit;

  Diamond() {
    F = M.createFunction("f", Type::Void);
    Entry = F->createBlock("entry");
    L = F->createBlock("l");
    R = F->createBlock("r");
    Join = F->createBlock("join");
    Exit = F->createBlock("exit");
    IRBuilder B(Entry);
    B.condBr(M.constant(1), L, R);
    B.setInsertPoint(L);
    B.br(Join);
    B.setInsertPoint(R);
    B.br(Join);
    B.setInsertPoint(Join);
    B.br(Exit);
    B.setInsertPoint(Exit);
    B.ret();
  }
};

TEST(DominatorsTest, DiamondIDoms) {
  Diamond D;
  DominatorTree DT(*D.F);
  EXPECT_EQ(DT.idom(D.Entry), nullptr);
  EXPECT_EQ(DT.idom(D.L), D.Entry);
  EXPECT_EQ(DT.idom(D.R), D.Entry);
  EXPECT_EQ(DT.idom(D.Join), D.Entry);
  EXPECT_EQ(DT.idom(D.Exit), D.Join);
}

TEST(DominatorsTest, DominanceQueries) {
  Diamond D;
  DominatorTree DT(*D.F);
  EXPECT_TRUE(DT.dominates(D.Entry, D.Exit));
  EXPECT_TRUE(DT.dominates(D.Join, D.Exit));
  EXPECT_FALSE(DT.dominates(D.L, D.Join));
  EXPECT_TRUE(DT.dominates(D.L, D.L));
  EXPECT_FALSE(DT.strictlyDominates(D.L, D.L));
  EXPECT_EQ(DT.commonDominator(D.L, D.R), D.Entry);
  EXPECT_EQ(DT.commonDominator(D.Join, D.Exit), D.Join);
}

TEST(DominatorsTest, DiamondFrontiers) {
  Diamond D;
  DominatorTree DT(*D.F);
  auto FL = DT.frontier(D.L);
  ASSERT_EQ(FL.size(), 1u);
  EXPECT_EQ(FL[0], D.Join);
  EXPECT_TRUE(DT.frontier(D.Entry).empty());
  EXPECT_TRUE(DT.frontier(D.Join).empty());
}

TEST(DominatorsTest, IteratedFrontierOfBothArms) {
  Diamond D;
  DominatorTree DT(*D.F);
  auto IDF = DT.iteratedFrontier({D.L, D.R});
  ASSERT_EQ(IDF.size(), 1u);
  EXPECT_EQ(IDF[0], D.Join);
}

TEST(DominatorsTest, LoopFrontierIncludesHeader) {
  // entry -> header <-> body; header -> exit.
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Entry);
  B.br(Header);
  B.setInsertPoint(Header);
  B.condBr(M.constant(1), Body, Exit);
  B.setInsertPoint(Body);
  B.br(Header);
  B.setInsertPoint(Exit);
  B.ret();

  DominatorTree DT(*F);
  auto FB = DT.frontier(Body);
  ASSERT_EQ(FB.size(), 1u);
  EXPECT_EQ(FB[0], Header);
  // A definition in the body needs a phi at the loop header.
  auto IDF = DT.iteratedFrontier({Body});
  EXPECT_TRUE(std::find(IDF.begin(), IDF.end(), Header) != IDF.end());
}

TEST(DominatorsTest, UnreachableBlocksExcluded) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead = F->createBlock("dead");
  IRBuilder B(Entry);
  B.ret();
  IRBuilder BD(Dead);
  BD.ret();

  DominatorTree DT(*F);
  EXPECT_TRUE(DT.contains(Entry));
  EXPECT_FALSE(DT.contains(Dead));
  EXPECT_EQ(DT.rpo().size(), 1u);
}

TEST(DominatorsTest, InstructionDominanceWithinBlock) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  auto *I1 = cast<Instruction>(B.add(M.constant(1), M.constant(2)));
  auto *I2 = cast<Instruction>(B.add(I1, I1));
  B.ret();
  DominatorTree DT(*F);
  EXPECT_TRUE(DT.dominates(I1, I2));
  EXPECT_FALSE(DT.dominates(I2, I1));
}

// The tree indexes its per-block data by BasicBlock::number(). A block it
// never saw must read as absent even when its number is in range.
TEST(DominatorsTest, BlocksOutsideTheBuildAreAbsent) {
  Diamond D;
  DominatorTree DT(*D.F);
  // Another function's block with the same number as a reachable one.
  Diamond Other;
  ASSERT_EQ(Other.L->number(), D.L->number());
  // A block created after the build, reachable by then.
  BasicBlock *Late = D.F->createBlockAfter(D.L, "late");
  D.L->back()->replaceSuccessor(D.Join, Late);
  D.Join->replacePred(D.L, Late);
  IRBuilder B(Late);
  B.br(D.Join);
  ASSERT_GE(Late->number(), D.Exit->number());

  for (const BasicBlock *BB : {static_cast<BasicBlock *>(nullptr), Other.L,
                               Other.Join, Late}) {
    EXPECT_FALSE(DT.contains(BB));
    EXPECT_TRUE(DT.children(BB).empty());
    EXPECT_TRUE(DT.frontier(BB).empty());
  }
  EXPECT_TRUE(DT.contains(D.L));
  EXPECT_EQ(DT.frontier(D.L).size(), 1u);
  EXPECT_EQ(DT.children(D.Join).size(), 1u);
  // The blocks it saw answer as at build time.
  EXPECT_EQ(DT.iteratedFrontier({D.L, Late, Other.R}),
            std::vector<BasicBlock *>{D.Join});
}

// comesBefore reads cached positions; every kind of edit must leave it
// agreeing with the instruction list.
TEST(DominatorsTest, ComesBeforeFollowsEdits) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Instruction *Mid = B.print(M.constant(1));
  Instruction *Gone = B.print(M.constant(2));
  B.print(M.constant(3));
  B.ret();
  auto ExpectListOrder = [&](const char *After) {
    std::vector<Instruction *> List;
    for (auto &I : *BB)
      List.push_back(I.get());
    for (unsigned I = 0; I != List.size(); ++I) {
      EXPECT_EQ(BB->indexOf(List[I]), I) << After;
      for (unsigned J = 0; J != List.size(); ++J)
        EXPECT_EQ(BB->comesBefore(List[I], List[J]), I < J) << After;
    }
  };
  ExpectListOrder("build");
  BB->prepend(std::make_unique<PrintInst>(M.constant(4)));
  ExpectListOrder("prepend");
  BB->insertBefore(Mid, std::make_unique<PrintInst>(M.constant(5)));
  ExpectListOrder("insertBefore");
  BB->insertAfter(Mid, std::make_unique<PrintInst>(M.constant(6)));
  ExpectListOrder("insertAfter");
  BB->erase(Gone);
  ExpectListOrder("erase");
  BB->insertBeforeTerminator(std::make_unique<PrintInst>(M.constant(7)));
  ExpectListOrder("insertBeforeTerminator");
}

TEST(DominatorsTest, RPOStartsAtEntryAndCoversAll) {
  Diamond D;
  DominatorTree DT(*D.F);
  ASSERT_EQ(DT.rpo().size(), 5u);
  EXPECT_EQ(DT.rpo().front(), D.Entry);
  EXPECT_EQ(DT.rpoNumber(D.Entry), 0u);
  EXPECT_LT(DT.rpoNumber(D.Join), DT.rpoNumber(D.Exit));
}

} // namespace

//===- tests/ValueNumberingTest.cpp - register GVN tests ------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "analysis/Dominators.h"
#include "gen/ProgramGen.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "ssa/ValueNumbering.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

unsigned countKind(const Function &F, Value::Kind K) {
  unsigned N = 0;
  for (const auto &BB : F)
    for (const auto &I : *BB)
      if (I->kind() == K)
        ++N;
  return N;
}

TEST(GVNTest, UnifiesIdenticalBinOps) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *X = B.add(M.constant(2), M.constant(3));
  Value *Y = B.add(M.constant(2), M.constant(3)); // same expression
  Value *Z = B.mul(X, Y);
  B.print(Z);
  B.ret();

  DominatorTree DT(*F);
  GVNStats S = runGVN(*F, DT);
  EXPECT_EQ(S.BinOpsUnified, 1u);
  expectValid(*F, "after GVN");
  // The multiply now squares the single remaining add.
  auto *ZI = cast<Instruction>(Z);
  EXPECT_EQ(ZI->operand(0), ZI->operand(1));
}

TEST(GVNTest, CommutativityCanonicalised) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(7), M.constant(9));
  Value *X = B.mul(A, M.constant(5));
  Value *Y = B.mul(M.constant(5), A); // commuted duplicate
  B.print(B.add(X, Y));
  B.ret();

  DominatorTree DT(*F);
  GVNStats S = runGVN(*F, DT);
  EXPECT_GE(S.BinOpsUnified, 1u);
  expectValid(*F, "after commutative GVN");
}

TEST(GVNTest, NonCommutativeKeptApart) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *X = B.sub(A, M.constant(5));
  Value *Y = B.sub(M.constant(5), A); // NOT the same value
  B.print(X);
  B.print(Y);
  B.ret();

  DominatorTree DT(*F);
  GVNStats S = runGVN(*F, DT);
  EXPECT_EQ(S.BinOpsUnified, 0u);

  Interpreter I(M);
  auto R = I.run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, (std::vector<int64_t>{-2, 2}));
}

TEST(GVNTest, DominanceScopingPreventsCrossArmReuse) {
  // The same expression in sibling arms must NOT unify (neither occurrence
  // dominates the other).
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  Value *Seed = B.add(M.constant(1), M.constant(1));
  B.condBr(Seed, L, R);
  B.setInsertPoint(L);
  Value *EL = B.mul(Seed, M.constant(3));
  B.print(EL);
  B.br(J);
  B.setInsertPoint(R);
  Value *ER = B.mul(Seed, M.constant(3));
  B.print(ER);
  B.br(J);
  B.setInsertPoint(J);
  B.ret();

  DominatorTree DT(*F);
  GVNStats S = runGVN(*F, DT);
  EXPECT_EQ(S.BinOpsUnified, 0u);
  EXPECT_EQ(countKind(*F, Value::Kind::BinOp), 3u);
  expectValid(*F, "after scoped GVN");
}

TEST(GVNTest, UnifiesLoadsOfSameMemoryVersion) {
  auto M = compileOrDie(R"(
    int g = 5;
    void main() {
      print(g + g);
      print(g);
    }
  )");
  Function *Main = M->getFunction("main");
  DominatorTree DT0(*Main);
  promoteLocalsToSSA(*Main, DT0);
  canonicalize(*Main);
  DominatorTree DT(*Main);
  buildMemorySSA(*Main, DT);

  GVNStats S = runGVN(*Main, DT);
  EXPECT_GE(S.LoadsUnified, 2u);
  EXPECT_EQ(countKind(*Main, Value::Kind::Load), 1u);
  expectValid(*Main, "after load GVN");

  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{10, 5}));
}

TEST(GVNTest, LoadsAcrossCallNotUnified) {
  auto M = compileOrDie(R"(
    int g = 1;
    void bump() { g = g + 1; }
    void main() {
      print(g);
      bump();
      print(g);
    }
  )");
  Function *Main = M->getFunction("main");
  DominatorTree DT0(*Main);
  promoteLocalsToSSA(*Main, DT0);
  canonicalize(*Main);
  DominatorTree DT(*Main);
  buildMemorySSA(*Main, DT);

  runGVN(*Main, DT);
  // Different versions across the call: both loads stay.
  EXPECT_EQ(countKind(*Main, Value::Kind::Load), 2u);
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1, 2}));
}

TEST(GVNTest, TrivialPhisFolded) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  Value *V = B.add(M.constant(4), M.constant(5));
  B.condBr(V, L, R);
  B.setInsertPoint(L);
  B.br(J);
  B.setInsertPoint(R);
  B.br(J);
  B.setInsertPoint(J);
  PhiInst *P = B.phi(Type::Int, "p");
  P->addIncoming(V, L);
  P->addIncoming(V, R); // both arms agree
  B.print(P);
  B.ret();

  DominatorTree DT(*F);
  GVNStats S = runGVN(*F, DT);
  EXPECT_EQ(S.PhisSimplified, 1u);
  EXPECT_EQ(countKind(*F, Value::Kind::Phi), 0u);
  expectValid(*F, "after phi folding");
}

class GVNPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GVNPropertyTest, PreservesBehaviourOnRandomPrograms) {
  gen::ProgramGen Gen(GetParam() * 12007 + 3);
  std::string Src = Gen.generate();
  std::vector<std::string> Errors;
  auto M = compileMiniC(Src, Errors);
  ASSERT_TRUE(M != nullptr);
  for (const auto &F : M->functions()) {
    DominatorTree DT0(*F);
    promoteLocalsToSSA(*F, DT0);
    canonicalize(*F);
  }
  Interpreter I0(*M);
  auto R0 = I0.run();
  ASSERT_TRUE(R0.Ok) << R0.Error;

  for (const auto &F : M->functions()) {
    DominatorTree DT(*F);
    buildMemorySSA(*F, DT);
    runGVN(*F, DT);
  }
  expectValid(*M, "after GVN");
  Interpreter I1(*M);
  auto R1 = I1.run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(R0.Output, R1.Output) << Src;
  EXPECT_EQ(R0.FinalMemory, R1.FinalMemory) << Src;
  EXPECT_LE(R1.Counts.Instructions, R0.Counts.Instructions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GVNPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

// The translation validator canonicalises through ValueNumberTable
// leaders, so a leader that does not dominate its value would let a proof
// use a value that is not available there. Over generated programs in the
// validator's input form (mem2reg, canonical CFG, memory SSA), every
// leader is an argument, a constant or a dominating instruction, and two
// builds agree. A scope of the table that failed to pop would leak a
// leader into a sibling subtree of the dominator tree.
TEST(ValueNumberTableTest, LeadersDominateOnGeneratedPrograms) {
  unsigned Mapped = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::vector<std::string> Errors;
    auto M = compileMiniC(gen::generateProgram(Seed, gen::biasedConfig(Seed)),
                          Errors);
    ASSERT_TRUE(M != nullptr);
    for (const auto &F : M->functions()) {
      if (F->empty())
        continue;
      DominatorTree DT0(*F);
      promoteLocalsToSSA(*F, DT0);
      canonicalize(*F);
      DominatorTree DT(*F);
      buildMemorySSA(*F, DT);
      ValueNumberTable VN(*F, DT), Again(*F, DT);
      for (BasicBlock *BB : F->blocks())
        for (auto &IP : *BB) {
          Instruction *I = IP.get();
          Value *L = VN.leader(I);
          EXPECT_EQ(L, Again.leader(I));
          if (L == I)
            continue;
          ++Mapped;
          if (isa<Argument>(L) || isa<ConstantInt>(L) || isa<UndefValue>(L))
            continue;
          auto *LI = dyn_cast<Instruction>(L);
          ASSERT_TRUE(LI) << F->name() << ": " << toString(*I);
          EXPECT_TRUE(DT.dominates(LI, I))
              << F->name() << ": leader " << toString(*LI)
              << " does not dominate " << toString(*I);
        }
    }
  }
  EXPECT_GT(Mapped, 100u);
}

} // namespace

//===- tests/IRTest.cpp - IR core tests -----------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "ir/CFGEdit.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "regalloc/Liveness.h"
#include "ssa/MemorySSA.h"
#include "TestHelpers.h"
#include <functional>
#include <set>
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

TEST(IRTest, ConstantsAreUniqued) {
  Module M;
  EXPECT_EQ(M.constant(7), M.constant(7));
  EXPECT_NE(M.constant(7), M.constant(8));
  EXPECT_EQ(M.constant(7)->value(), 7);
}

TEST(IRTest, UseListsTrackOperands) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *C1 = M.constant(1);
  Value *Add = B.add(C1, C1);
  B.ret(Add);

  // The constant is used twice by the add.
  unsigned Count = 0;
  for (const Use &U : C1->uses())
    if (U.User == Add)
      ++Count;
  EXPECT_EQ(Count, 2u);
  EXPECT_EQ(Add->numUses(), 1u);
}

TEST(IRTest, RAUWRedirectsAllUses) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *Mul = B.mul(A, A);
  B.ret(Mul);

  Value *Repl = M.constant(3);
  A->replaceAllUsesWith(Repl);
  EXPECT_FALSE(A->hasUses());
  auto *MulI = cast<Instruction>(Mul);
  EXPECT_EQ(MulI->operand(0), Repl);
  EXPECT_EQ(MulI->operand(1), Repl);
}

TEST(IRTest, EraseInstructionDropsOperandUses) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *Dead = B.mul(A, M.constant(5));
  B.ret();

  EXPECT_EQ(A->numUses(), 1u);
  cast<Instruction>(Dead)->eraseFromParent();
  EXPECT_EQ(A->numUses(), 0u);
}

TEST(IRTest, ComesBeforeOrdering) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  auto *I1 = cast<Instruction>(B.add(M.constant(1), M.constant(1)));
  auto *I2 = cast<Instruction>(B.add(I1, I1));
  B.ret();
  EXPECT_TRUE(BB->comesBefore(I1, I2));
  EXPECT_FALSE(BB->comesBefore(I2, I1));

  // Insertion invalidates and rebuilds the ordering cache.
  auto *I0 = BB->prepend(std::make_unique<CopyInst>(M.constant(9), "c"));
  EXPECT_TRUE(BB->comesBefore(I0, I1));
}

TEST(IRTest, PhiIncomingMaintenance) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *C = F->createBlock("c");
  IRBuilder B(A);
  B.condBr(M.constant(1), B1, C);
  IRBuilder BB1(B1);
  BB1.br(C);
  IRBuilder BC(C);
  PhiInst *P = BC.phi(Type::Int, "p");
  P->addIncoming(M.constant(10), A);
  P->addIncoming(M.constant(20), B1);
  BC.ret(P);

  EXPECT_EQ(P->incomingValueFor(A), M.constant(10));
  EXPECT_EQ(P->indexOfBlock(B1), 1);
  P->removeIncoming(0);
  EXPECT_EQ(P->numIncoming(), 1u);
  EXPECT_EQ(P->incomingValueFor(B1), M.constant(20));
  EXPECT_EQ(M.constant(10)->numUses(), 0u);
}

TEST(IRTest, MemoryNameDefUseLinks) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 5);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  StoreInst *St = B.store(G, M.constant(1));
  LoadInst *Ld = B.load(G);
  B.ret();

  MemoryName *V0 = F->createMemoryName(G);
  MemoryName *V1 = F->createMemoryName(G);
  F->setEntryMemoryName(G, V0);
  St->addMemDef(V1);
  Ld->addMemOperand(V1);

  EXPECT_EQ(V1->def(), St);
  EXPECT_EQ(Ld->memUse(), V1);
  EXPECT_EQ(V1->numUses(), 1u);
  EXPECT_TRUE(V0->isEntryVersion());
  EXPECT_EQ(St->memDefFor(G), V1);
  EXPECT_EQ(Ld->memOperandFor(G), V1);
}

// Memory names carry dense per-function numbers for vector-indexed tables
// (memory SSA, SSA webs). A number is never handed out twice: a table
// sized before a name was created must not cover it.
TEST(IRTest, MemoryNameNumbersAreDenseAndNeverReused) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 5);
  MemoryObject *H = M.createGlobal("h", 6);
  Function *F = M.createFunction("f", Type::Void);
  Function *Other = M.createFunction("other", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  StoreInst *St = B.store(G, M.constant(1));
  B.ret();
  EXPECT_EQ(F->memoryNameBound(), 0u);

  std::vector<MemoryName *> Names = {F->createMemoryName(G),
                                     F->createMemoryName(H),
                                     F->createMemoryName(G)};
  F->setEntryMemoryName(G, Names[0]);
  St->addMemDef(Names[2]);
  EXPECT_EQ(F->memoryNameBound(), 3u);
  std::set<unsigned> Seen;
  for (MemoryName *N : Names) {
    EXPECT_LT(N->number(), F->memoryNameBound());
    EXPECT_TRUE(Seen.insert(N->number()).second) << N->name();
  }
  // Numbering is per function.
  EXPECT_EQ(Other->createMemoryName(G)->number(), 0u);

  // Purging the unused h.0 frees no number.
  F->purgeDeadMemoryNames();
  ASSERT_EQ(F->memoryNames().size(), 2u);
  MemoryName *AfterPurge = F->createMemoryName(H);
  EXPECT_EQ(AfterPurge->number(), 3u);

  // Neither does dropping all of memory SSA.
  F->clearMemorySSA();
  EXPECT_TRUE(F->memoryNames().empty());
  EXPECT_EQ(F->memoryNameBound(), 4u);
  MemoryName *AfterClear = F->createMemoryName(G);
  EXPECT_EQ(AfterClear->number(), 4u);
  EXPECT_EQ(F->memoryNameBound(), 5u);
  EXPECT_EQ(F->entryMemoryName(G), nullptr);
}

TEST(IRTest, SplitCriticalEdgeUpdatesPhis) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  // a -> {b, j}: the a->j edge is critical because j also hears from b.
  B.condBr(M.constant(1), B1, J);
  IRBuilder BB1(B1);
  BB1.br(J);
  IRBuilder BJ(J);
  PhiInst *P = BJ.phi(Type::Int, "p");
  P->addIncoming(M.constant(1), A);
  P->addIncoming(M.constant(2), B1);
  BJ.ret(P);

  EXPECT_TRUE(isCriticalEdge(A, J));
  unsigned N = splitAllCriticalEdges(*F);
  EXPECT_EQ(N, 1u);
  expectValid(*F, "after splitting");
  EXPECT_EQ(P->indexOfBlock(A), -1); // now arrives via the split block
}

TEST(IRTest, PrinterMentionsCoreConstructs) {
  Module M;
  MemoryObject *G = M.createGlobal("x", 0);
  Function *F = M.createFunction("main", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *L = B.load(G, "t0");
  B.store(G, B.add(L, M.constant(1)));
  B.ret(M.constant(0));

  std::string S = toString(M);
  EXPECT_NE(S.find("ld [x]"), std::string::npos);
  EXPECT_NE(S.find("st [x]"), std::string::npos);
  EXPECT_NE(S.find("func int @main"), std::string::npos);
}

// The printer's output pinned byte for byte: every instruction kind, the
// constant spellings (undef, negative, INT64_MIN) and the module header
// with scalar, field and array globals.
TEST(IRTest, PrinterTextIsExact) {
  Module M("pinned");
  MemoryObject *X = M.createGlobal("x", -3);
  M.createField("s.f", 7);
  MemoryObject *A = M.createGlobalArray("a", 4);

  Function *Get = M.createFunction("get", Type::Int);
  Argument *N = Get->addArgument("n");
  IRBuilder(Get->createBlock("entry")).ret(N);
  Function *Sink = M.createFunction("sink", Type::Void);
  IRBuilder(Sink->createBlock("entry")).ret();

  Function *F = M.createFunction("main", Type::Int);
  Argument *P = F->addArgument("p");
  Argument *Q = F->addArgument("q");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Right = F->createBlock("right");
  BasicBlock *Join = F->createBlock("join");
  MemoryName *X0 = F->createMemoryName(X);
  MemoryName *X1 = F->createMemoryName(X);
  MemoryName *X2 = F->createMemoryName(X);
  MemoryName *X3 = F->createMemoryName(X);
  MemoryName *A0 = F->createMemoryName(A);
  MemoryName *A1 = F->createMemoryName(A);

  IRBuilder B(Entry);
  Value *Sum = B.binop(BinOpKind::Add, P, M.constant(-5), "sum");
  Value *Cp = B.copy(Sum, "cp");
  B.load(X, "ld")->addMemOperand(X0);
  B.store(X, Cp)->addMemDef(X1);
  Value *Addr = B.addrOf(X);
  auto *PL = cast<Instruction>(B.ptrLoad(Addr));
  PL->addMemOperand(X1);
  Instruction *PS = B.ptrStore(Addr, M.undef());
  PS->addMemOperand(X1);
  PS->addMemDef(X2);
  auto *AL = cast<Instruction>(B.arrayLoad(A, Q));
  AL->addMemOperand(A0);
  Instruction *AS = B.arrayStore(A, AL, M.constant(INT64_MIN));
  AS->addMemOperand(A0);
  AS->addMemDef(A1);
  CallInst *C = B.call(Get, {AL}, "c");
  C->addMemOperand(X2);
  C->addMemDef(X3);
  B.call(Sink, {});
  B.print(C);
  Instruction *DL = B.block()->append(std::make_unique<DummyLoadInst>(X));
  DL->addMemOperand(X3);
  B.condBr(Sum, Left, Right);

  IRBuilder(Left).br(Join);
  IRBuilder(Right).ret();

  auto Target = std::make_unique<MemPhiInst>(X);
  Target->addMemDef(F->createMemoryName(X));
  Target->addIncoming(X3, Left);
  Join->append(std::move(Target));
  auto NoTarget = std::make_unique<MemPhiInst>(A);
  NoTarget->addIncoming(A1, Left);
  Join->append(std::move(NoTarget));
  IRBuilder BJ(Join);
  PhiInst *Phi = BJ.phi(Type::Int, "r");
  Phi->addIncoming(C, Left);
  BJ.ret(Phi);

  EXPECT_EQ(toString(M), R"(; module pinned
global x = -3
global s.f = 7
global a[4]

func int @get(%n) {
entry:
  ret %n
}

func void @sink() {
entry:
  ret
}

func int @main(%p, %q) {
entry:
  %sum = add %p, -5
  %cp = %sum
  %ld = ld [x] mu(x.0)
  x.1 = st [x], %cp
  %t0 = &x
  %t1 = ptrload %t0 mu(x.1)
  ptrstore %t0, undef mu(x.1) chi(x.2)
  %t2 = a[%q] mu(a.0)
  a[%t2] = -9223372036854775808 mu(a.0) chi(a.1)
  %c = call get(%t2) mu(x.2) chi(x.3)
  call sink()
  print %c
  dummyload [x] mu(x.3)
  condbr %sum, left, right
left:  ; preds: entry
  br join
right:  ; preds: entry
  ret
join:  ; preds: left
  x.4 = memphi(x.3:left)
  <none> = memphi(a.1:left)
  %r = phi(%c:left)
  ret %r
}
)");
  EXPECT_EQ(toString(*Phi), "%r = phi(%c:left)");
  EXPECT_EQ(toString(*Right), "right:  ; preds: entry\n  ret\n");
}

TEST(IRTest, VerifierCatchesBrokenPhi) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.br(J);
  IRBuilder BJ(J);
  PhiInst *P = BJ.phi(Type::Int, "p");
  // Wrong: claims an incoming edge from a block that is not a predecessor.
  P->addIncoming(M.constant(1), J);
  BJ.ret(P);

  DiagnosticEngine DE;
  runChecks(*F, DE, Strictness::Fast);
  EXPECT_TRUE(DE.hasErrors());
}

TEST(IRTest, VerifierCatchesUseBeforeDef) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB1(B1);
  Value *X = BB1.add(M.constant(1), M.constant(1));
  BB1.ret(X);
  // Sneak a use of X into block A, before its definition.
  IRBuilder BA(A);
  BA.setInsertPoint(A->terminator());
  BA.print(X);
  DiagnosticEngine DE;
  runChecks(*F, DE, Strictness::Fast);
  EXPECT_TRUE(DE.hasErrors());
}

//===----------------------------------------------------------------------===
// Edit epochs: which mutators move which epoch.
//===----------------------------------------------------------------------===

/// A diamond whose entry->join edge is critical, with a register phi, a
/// dead multiply, a spare block and memory SSA over one global.
struct EpochFixture {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Spare = F->createBlock("spare");
  Argument *A = F->addArgument("a");
  Instruction *Add = nullptr, *Dead = nullptr;
  PhiInst *Phi = nullptr;
  LoadInst *Ld = nullptr;

  EpochFixture() {
    IRBuilder B(Entry);
    B.condBr(A, Then, Join);
    B.setInsertPoint(Then);
    Add = cast<Instruction>(B.add(A, M.constant(1)));
    B.store(G, Add);
    B.br(Join);
    B.setInsertPoint(Join);
    Phi = B.phi(Type::Int, "p");
    Phi->addIncoming(A, Entry);
    Phi->addIncoming(Add, Then);
    Dead = cast<Instruction>(B.mul(Phi, M.constant(2)));
    Ld = B.load(G, "v");
    B.ret(B.add(Phi, Ld));
    B.setInsertPoint(Spare);
    B.ret(M.constant(0));
    buildMemorySSA(*F, DominatorTree(*F));
  }

  MemPhiInst *memPhi() const {
    for (auto &I : *Join)
      if (auto *MP = dyn_cast<MemPhiInst>(I.get()))
        return MP;
    return nullptr;
  }
};

struct EpochCase {
  const char *Name;
  std::function<void(EpochFixture &)> Edit;
  bool MovesCFG;
  bool MovesBody;
};

TEST(IRTest, MutatorsMoveExactlyTheirEpochs) {
  const EpochCase Cases[] = {
      // CFG edits.
      {"createBlock", [](EpochFixture &X) { X.F->createBlock("x"); }, true,
       false},
      {"createBlockAfter",
       [](EpochFixture &X) { X.F->createBlockAfter(X.Entry, "x"); }, true,
       false},
      {"eraseBlock", [](EpochFixture &X) { X.F->eraseBlock(X.Spare); }, true,
       true},
      {"makeEntry", [](EpochFixture &X) { X.F->makeEntry(X.Spare); }, true,
       false},
      {"addPred", [](EpochFixture &X) { X.Spare->addPred(X.Then); }, true,
       false},
      {"removePred", [](EpochFixture &X) { X.Join->removePred(X.Entry); },
       true, false},
      {"replacePred",
       [](EpochFixture &X) { X.Join->replacePred(X.Entry, X.Spare); }, true,
       false},
      {"replaceSuccessor",
       [](EpochFixture &X) {
         X.Entry->terminator()->replaceSuccessor(X.Join, X.Spare);
       },
       true, false},
      {"splitEdge", [](EpochFixture &X) { splitEdge(X.Entry, X.Join); },
       true, true},
      // Body edits.
      {"insertBeforeTerminator",
       [](EpochFixture &X) {
         X.Then->insertBeforeTerminator(std::make_unique<BinOpInst>(
             BinOpKind::Add, X.A, X.A, "n"));
       },
       false, true},
      {"prepend",
       [](EpochFixture &X) {
         X.Then->prepend(std::make_unique<CopyInst>(X.A, "c"));
       },
       false, true},
      {"eraseFromParent", [](EpochFixture &X) { X.Dead->eraseFromParent(); },
       false, true},
      {"removeFromParent",
       [](EpochFixture &X) { X.Dead->removeFromParent(); }, false, true},
      {"setOperand",
       [](EpochFixture &X) { X.Dead->setOperand(1, X.M.constant(3)); }, false,
       true},
      {"replaceAllUsesWith",
       [](EpochFixture &X) { X.Add->replaceAllUsesWith(X.M.constant(5)); },
       false, true},
      {"phi addIncoming",
       [](EpochFixture &X) { X.Phi->addIncoming(X.A, X.Spare); }, false,
       true},
      {"phi removeIncoming", [](EpochFixture &X) { X.Phi->removeIncoming(0); },
       false, true},
      {"phi setIncomingBlock",
       [](EpochFixture &X) { X.Phi->setIncomingBlock(0, X.Spare); }, false,
       true},
      // Edits that change nothing, and memory-SSA annotations.
      {"setOperand to the same value",
       [](EpochFixture &X) { X.Dead->setOperand(0, X.Phi); }, false, false},
      {"replaceSuccessor with itself",
       [](EpochFixture &X) {
         X.Entry->terminator()->replaceSuccessor(X.Join, X.Join);
       },
       false, false},
      {"replacePred with itself",
       [](EpochFixture &X) { X.Join->replacePred(X.Entry, X.Entry); }, false,
       false},
      {"phi setIncomingBlock to the same block",
       [](EpochFixture &X) { X.Phi->setIncomingBlock(0, X.Entry); }, false,
       false},
      {"makeEntry of the entry",
       [](EpochFixture &X) { X.F->makeEntry(X.Entry); }, false, false},
      {"setMemOperand",
       [](EpochFixture &X) {
         X.Ld->setMemOperand(0, X.F->entryMemoryName(X.G));
       },
       false, false},
      {"insert memory phi",
       [](EpochFixture &X) {
         auto MP = std::make_unique<MemPhiInst>(X.G);
         MP->addMemDef(X.F->createMemoryName(X.G));
         X.Then->prepend(std::move(MP));
       },
       false, false},
      {"memory phi setIncomingBlock",
       [](EpochFixture &X) { X.memPhi()->setIncomingBlock(0, X.Spare); },
       false, false},
      {"clearMemorySSA", [](EpochFixture &X) { X.F->clearMemorySSA(); },
       false, false},
      {"rebuild memory SSA",
       [](EpochFixture &X) {
         X.F->clearMemorySSA();
         buildMemorySSA(*X.F, DominatorTree(*X.F));
       },
       false, false},
  };
  for (const EpochCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    EpochFixture X;
    ASSERT_NE(X.memPhi(), nullptr);
    AnalysisManager AM(&X.M);
    AnalysisHandle<DominatorTree> DT = AM.getHandle<DominatorTree>(*X.F);
    AnalysisHandle<Liveness> LV = AM.getHandle<Liveness>(*X.F);
    const uint64_t CFG = X.F->cfgEpoch(), Body = X.F->bodyEpoch();

    C.Edit(X);
    EXPECT_EQ(X.F->cfgEpoch() != CFG, C.MovesCFG);
    EXPECT_EQ(X.F->bodyEpoch() != Body, C.MovesBody);
    // Dominators read the CFG epoch, liveness reads both.
    EXPECT_EQ(DT.stale(), C.MovesCFG);
    EXPECT_EQ(LV.stale(), C.MovesCFG || C.MovesBody);
    EXPECT_EQ(DT.get() == nullptr, C.MovesCFG);
  }
}

} // namespace

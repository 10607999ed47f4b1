//===- tests/VerifierTest.cpp - IR verifier negative tests ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each test constructs one specific malformation and asserts the
/// verifier reports it (the positive path is exercised everywhere else).
/// The first half runs the Fast checks and looks for an error message;
/// the CheckId* half asserts check IDs, one deliberately broken module per
/// registered check ID.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/StaticAnalysis.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <string>

using namespace srp;

namespace {

/// The diagnostics of a Fast-level check run.
DiagnosticEngine checkAtFast(Function &F) {
  DiagnosticEngine DE;
  runChecks(F, DE, Strictness::Fast);
  return DE;
}

bool anyErrorContains(const DiagnosticEngine &DE, const char *Needle) {
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Severity == DiagSeverity::Error &&
        D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(VerifierTest, MissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.add(M.constant(1), M.constant(2));
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "terminator"));
}

TEST(VerifierTest, TerminatorInTheMiddle) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.ret();
  BB->append(std::make_unique<PrintInst>(M.constant(1)));
  BB->append(std::make_unique<RetInst>());
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "terminator"));
}

TEST(VerifierTest, EntryWithPredecessors) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(Entry);
  B.br(Next);
  IRBuilder BN(Next);
  BN.br(Entry); // loops back to the entry
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "entry block has predecessors"));
}

TEST(VerifierTest, InconsistentPredList) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB(B1);
  BB.ret();
  B1->removePred(A); // corrupt the cache
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "pred list"));
}

TEST(VerifierTest, PhiAfterNonPhi) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB(B1);
  BB.print(M.constant(1));
  auto Phi = std::make_unique<PhiInst>(Type::Int, "p");
  Phi->addIncoming(M.constant(1), A);
  B1->append(std::move(Phi));
  BB.setInsertPoint(B1);
  BB.ret();
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "phi after non-phi"));
}

TEST(VerifierTest, PhiArityMismatch) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  BL.br(J);
  IRBuilder BR(R);
  BR.br(J);
  auto Phi = std::make_unique<PhiInst>(Type::Int, "p");
  Phi->addIncoming(M.constant(1), L); // missing the R entry
  J->append(std::move(Phi));
  IRBuilder BJ(J);
  BJ.ret();
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "incoming blocks mismatch"));
}

TEST(VerifierTest, MemPhiWithoutTarget) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  auto MP = std::make_unique<MemPhiInst>(G);
  MemoryName *V = F->createMemoryName(G);
  MP->addIncoming(V, A); // no target def set
  B1->prepend(std::move(MP));
  IRBuilder BB(B1);
  BB.ret();
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "memphi without target"));
}

TEST(VerifierTest, MemoryUseNotDominated) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  StoreInst *St = BL.store(G, M.constant(1));
  BL.ret();
  IRBuilder BR(R);
  LoadInst *Ld = BR.load(G);
  BR.print(Ld);
  BR.ret();

  MemoryName *V = F->createMemoryName(G);
  St->addMemDef(V);
  Ld->addMemOperand(V); // sibling arm: the def does not dominate the use
  auto Errors = checkAtFast(*F);
  EXPECT_TRUE(anyErrorContains(Errors, "not dominated"));
}

TEST(VerifierTest, ModuleAggregatesFunctionErrors) {
  Module M;
  Function *F1 = M.createFunction("good", Type::Void);
  IRBuilder B(F1->createBlock("entry"));
  B.ret();
  Function *F2 = M.createFunction("bad", Type::Void);
  F2->createBlock("entry"); // empty block, no terminator
  DiagnosticEngine Errors;
  runChecks(M, Errors, Strictness::Fast);
  ASSERT_TRUE(Errors.hasErrors());
  EXPECT_EQ(Errors.diagnostics()[0].Loc.Function, "bad");
}

//===----------------------------------------------------------------------===
// One negative case per registered check ID, asserted against the
// structured framework (docs/STATIC_ANALYSIS.md is the catalogue).
//===----------------------------------------------------------------------===

DiagnosticEngine checkAtFull(Function &F, AnalysisManager *AM = nullptr) {
  DiagnosticEngine DE;
  runChecks(F, DE, Strictness::Full, AM);
  return DE;
}

TEST(CheckIdTest, CfgBlocks) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  EXPECT_TRUE(checkAtFull(*F).has("cfg-blocks"));
}

TEST(CheckIdTest, CfgTerminator) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.add(M.constant(1), M.constant(2));
  EXPECT_TRUE(checkAtFull(*F).has("cfg-terminator"));
}

TEST(CheckIdTest, CfgEntryPreds) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(Entry);
  B.br(Next);
  IRBuilder BN(Next);
  BN.br(Entry);
  EXPECT_TRUE(checkAtFull(*F).has("cfg-entry-preds"));
}

/// The first diagnostic of check \p ID, or null.
const Diagnostic *firstOf(const DiagnosticEngine &DE, const char *ID) {
  for (const Diagnostic &D : DE.diagnostics())
    if (D.CheckID == ID)
      return &D;
  return nullptr;
}

TEST(CheckIdTest, CfgSuccTargets) {
  Module M;
  Function *F1 = M.createFunction("f1", Type::Void);
  Function *F2 = M.createFunction("f2", Type::Void);
  BasicBlock *A = F1->createBlock("entry");
  BasicBlock *Foreign = F2->createBlock("entry");
  IRBuilder B(A);
  B.br(Foreign); // terminator target lives in another function
  IRBuilder BF(Foreign);
  BF.ret();
  EXPECT_FALSE(checkAtFull(*F2).has("cfg-succ-targets"));
  DiagnosticEngine DE = checkAtFull(*F1);
  const Diagnostic *D = firstOf(DE, "cfg-succ-targets");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Message, "terminator of block entry targets block 'entry' "
                        "which is not in the function");
  EXPECT_EQ(D->Loc.Function, "f1");
  EXPECT_EQ(D->Loc.Block, "entry");
  EXPECT_EQ(D->Loc.InstIndex, 0);
  EXPECT_EQ(D->Loc.Snippet, "br entry");

  // A foreign target whose block number is also one of this function's.
  Function *F4 = M.createFunction("f4", Type::Void);
  BasicBlock *E4 = F4->createBlock("e4");
  BasicBlock *N4 = F4->createBlock("n4");
  BasicBlock *Other = F2->createBlock("other");
  ASSERT_EQ(Other->number(), N4->number());
  IRBuilder B4(E4);
  B4.print(M.constant(1));
  B4.condBr(M.constant(1), N4, Other);
  IRBuilder BN4(N4);
  BN4.ret();
  DiagnosticEngine DE4 = checkAtFull(*F4);
  D = firstOf(DE4, "cfg-succ-targets");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Message, "terminator of block e4 targets block 'other' "
                        "which is not in the function");
  EXPECT_EQ(D->Loc.Function, "f4");
  EXPECT_EQ(D->Loc.Block, "e4");
  EXPECT_EQ(D->Loc.InstIndex, 1);
  EXPECT_EQ(D->Loc.Snippet, "condbr 1, n4, other");

  // A null target: printing the branch would crash, so the location is
  // the block.
  Function *F3 = M.createFunction("f3", Type::Void);
  BasicBlock *C = F3->createBlock("c");
  IRBuilder BC(C);
  BC.print(M.constant(1));
  C->append(std::make_unique<BrInst>(nullptr));
  DiagnosticEngine NullDE = checkAtFull(*F3);
  D = firstOf(NullDE, "cfg-succ-targets");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Message, "terminator of block c targets a null block");
  EXPECT_EQ(D->Loc.Function, "f3");
  EXPECT_EQ(D->Loc.Block, "c");
  EXPECT_FALSE(D->Loc.hasInstruction());
  EXPECT_EQ(D->Loc.Snippet, "");
}

TEST(CheckIdTest, CfgPredConsistency) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB(B1);
  BB.ret();
  B1->removePred(A);
  EXPECT_TRUE(checkAtFull(*F).has("cfg-pred-consistency"));
}

// The pred list is compared with the incoming edges as a multiset: a
// condbr whose two targets are the same block is two edges.
TEST(CheckIdTest, CfgPredConsistencyCountsEdges) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), J, J);
  IRBuilder BJ(J);
  BJ.ret();
  ASSERT_EQ(J->numPreds(), 2u);
  EXPECT_FALSE(checkAtFull(*F).has("cfg-pred-consistency"));

  J->removePred(A); // one entry for two edges
  DiagnosticEngine DE = checkAtFull(*F);
  std::vector<const Diagnostic *> Found;
  for (const Diagnostic &D : DE.diagnostics())
    if (D.CheckID == "cfg-pred-consistency")
      Found.push_back(&D);
  ASSERT_EQ(Found.size(), 1u);
  EXPECT_EQ(Found[0]->Loc.Function, "f");
  EXPECT_EQ(Found[0]->Loc.Block, "j");
  EXPECT_EQ(Found[0]->Message, "pred list of j inconsistent with edges");
}

TEST(CheckIdTest, CfgPredConsistencyForeignPred) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  Function *G = M.createFunction("g", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *Foreign = G->createBlock("x");
  ASSERT_EQ(Foreign->number(), A->number());
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB(B1);
  BB.ret();
  B1->replacePred(A, Foreign); // a pred from another function
  DiagnosticEngine DE = checkAtFull(*F);
  const Diagnostic *D = firstOf(DE, "cfg-pred-consistency");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.Block, "b");
}

TEST(CheckIdTest, SsaPhiGrouping) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB(B1);
  BB.print(M.constant(1));
  auto Phi = std::make_unique<PhiInst>(Type::Int, "p");
  Phi->addIncoming(M.constant(1), A);
  B1->append(std::move(Phi));
  BB.setInsertPoint(B1);
  BB.ret();
  EXPECT_TRUE(checkAtFull(*F).has("ssa-phi-grouping"));
}

TEST(CheckIdTest, SsaPhiIncoming) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  BL.br(J);
  IRBuilder BR(R);
  BR.br(J);
  auto Phi = std::make_unique<PhiInst>(Type::Int, "p");
  Phi->addIncoming(M.constant(1), L); // missing the R entry
  J->append(std::move(Phi));
  IRBuilder BJ(J);
  BJ.ret();
  EXPECT_TRUE(checkAtFull(*F).has("ssa-phi-incoming"));
}

TEST(CheckIdTest, SsaUseDominance) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  Value *X = BL.add(M.constant(1), M.constant(2));
  BL.ret();
  IRBuilder BR(R);
  BR.print(X); // sibling arm: the def does not dominate this use
  BR.ret();
  EXPECT_TRUE(checkAtFull(*F).has("ssa-use-dominance"));
}

TEST(CheckIdTest, SsaUseLists) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  Value *X = B.add(M.constant(1), M.constant(2));
  Instruction *P = B.print(X);
  B.ret();
  X->removeUse(Use{P, 0, false}); // use-list no longer knows about P
  EXPECT_TRUE(checkAtFull(*F).has("ssa-use-lists"));
}

TEST(CheckIdTest, MemDefLinks) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  StoreInst *St = B.store(G, M.constant(1));
  B.ret();
  MemoryName *V = F->createMemoryName(G);
  St->addMemDef(V);
  V->setDef(nullptr); // sever the back link
  EXPECT_TRUE(checkAtFull(*F).has("mem-def-links"));
}

TEST(CheckIdTest, MemUseDominance) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  StoreInst *St = BL.store(G, M.constant(1));
  BL.ret();
  IRBuilder BR(R);
  LoadInst *Ld = BR.load(G);
  BR.print(Ld);
  BR.ret();
  MemoryName *V = F->createMemoryName(G);
  St->addMemDef(V);
  Ld->addMemOperand(V);
  EXPECT_TRUE(checkAtFull(*F).has("mem-use-dominance"));
}

TEST(CheckIdTest, MemUseLists) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  LoadInst *Ld = B.load(G);
  B.ret();
  MemoryName *E = F->createMemoryName(G);
  F->setEntryMemoryName(G, E);
  Ld->addMemOperand(E);
  E->removeUse(Use{Ld, 0, true});
  EXPECT_TRUE(checkAtFull(*F).has("mem-use-lists"));
}

TEST(CheckIdTest, MemNameLinks) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  LoadInst *Ld = B.load(G);
  B.ret();
  // An entry-style version that is used but never registered or defined.
  MemoryName *V = F->createMemoryName(G);
  Ld->addMemOperand(V);
  EXPECT_TRUE(checkAtFull(*F).has("mem-name-links"));
}

// Objects with more than one live entry version are reported in the
// order their names are first counted (the order no longer depends on
// object addresses).
TEST(CheckIdTest, MemNameLinksReportsObjectsInNameOrder) {
  Module M;
  MemoryObject *X = M.createGlobal("x", 0);
  MemoryObject *Y = M.createGlobal("y", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  LoadInst *LdX = B.load(X);
  LoadInst *LdY = B.load(Y);
  B.ret();
  // Per object: the registered entry version, and a second entry-style
  // version that a load uses. y's names come first.
  for (auto [Obj, Ld] : {std::pair{Y, LdY}, std::pair{X, LdX}}) {
    F->setEntryMemoryName(Obj, F->createMemoryName(Obj));
    Ld->addMemOperand(F->createMemoryName(Obj));
  }
  DiagnosticEngine DE = checkAtFull(*F);
  std::vector<std::string> Counted;
  for (const Diagnostic &D : DE.diagnostics())
    if (D.CheckID == "mem-name-links" &&
        D.Message.find("live entry versions") != std::string::npos)
      Counted.push_back(D.Message);
  EXPECT_EQ(Counted,
            (std::vector<std::string>{
                "object 'y' has 2 live entry versions (expected at most one)",
                "object 'x' has 2 live entry versions (expected at most "
                "one)"}));
}

TEST(CheckIdTest, MemNameLinksUnlistedDef) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  B.print(M.constant(7));
  StoreInst *St = B.store(G, M.constant(1));
  B.ret();
  // The version names the store as its definition; the store's def list
  // does not name the version.
  MemoryName *V = F->createMemoryName(G);
  V->setDef(St);
  DiagnosticEngine DE = checkAtFull(*F);
  const Diagnostic *D = nullptr;
  for (const Diagnostic &X : DE.diagnostics())
    if (X.CheckID == "mem-name-links")
      D = &X;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Message,
            "memory version " + V->name() +
                " not listed among its defining instruction's defs");
  EXPECT_EQ(D->Loc.Function, "f");
  EXPECT_EQ(D->Loc.Block, "a");
  EXPECT_EQ(D->Loc.InstIndex, 1);
  EXPECT_EQ(D->Loc.Snippet, "st [g], 1");
}

TEST(CheckIdTest, MemVersionConsistency) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  StoreInst *St = B.store(G, M.constant(1));
  LoadInst *Ld = B.load(G);
  B.print(Ld);
  B.ret();
  MemoryName *E = F->createMemoryName(G);
  F->setEntryMemoryName(G, E);
  MemoryName *V1 = F->createMemoryName(G);
  St->addMemDef(V1);
  Ld->addMemOperand(E); // stale: the live version after the store is V1
  EXPECT_TRUE(checkAtFull(*F).has("mem-version-consistency"));
}

TEST(CheckIdTest, MemPhiPlacement) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  BL.br(J);
  IRBuilder BR(R);
  BR.br(J);
  MemoryName *E = F->createMemoryName(G);
  F->setEntryMemoryName(G, E);
  for (int K = 0; K != 2; ++K) { // duplicate memphi for the same object
    auto MP = std::make_unique<MemPhiInst>(G);
    MP->addIncoming(E, L);
    MP->addIncoming(E, R);
    MP->addMemDef(F->createMemoryName(G));
    J->prepend(std::move(MP));
  }
  IRBuilder BJ(J);
  BJ.ret();
  EXPECT_TRUE(checkAtFull(*F).has("mem-phi-placement"));
}

TEST(CheckIdTest, MemAliasTagging) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(A);
  B.load(G); // no mu operand although memory SSA is (nominally) built
  B.ret();
  MemoryName *E = F->createMemoryName(G);
  F->setEntryMemoryName(G, E);
  EXPECT_TRUE(checkAtFull(*F).has("mem-alias-tagging"));
}

/// A two-block loop entered straight from a branching entry: the header's
/// only outside predecessor doubles as a branch, so every canonical-shape
/// rule is violated at once (no dedicated preheader, critical entry and
/// exit edges, shared exit tail).
Function *buildNonCanonicalLoop(Module &M) {
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *E = F->createBlock("entry");
  BasicBlock *H = F->createBlock("h");
  BasicBlock *H2 = F->createBlock("h2");
  BasicBlock *X = F->createBlock("x");
  IRBuilder BE(E);
  BE.condBr(M.constant(1), H, X);
  IRBuilder BH(H);
  BH.br(H2);
  IRBuilder BH2(H2);
  BH2.condBr(M.constant(0), H, X);
  IRBuilder BX(X);
  BX.ret();
  return F;
}

TEST(CheckIdTest, CanonPreheaders) {
  Module M;
  Function *F = buildNonCanonicalLoop(M);
  AnalysisManager AM(&M);
  AM.markCanonical(*F);
  EXPECT_TRUE(checkAtFull(*F, &AM).has("canon-preheaders"));
}

TEST(CheckIdTest, CanonCriticalEdges) {
  Module M;
  Function *F = buildNonCanonicalLoop(M);
  AnalysisManager AM(&M);
  AM.markCanonical(*F);
  EXPECT_TRUE(checkAtFull(*F, &AM).has("canon-critical-edges"));
}

TEST(CheckIdTest, CanonExitTails) {
  Module M;
  Function *F = buildNonCanonicalLoop(M);
  AnalysisManager AM(&M);
  AM.markCanonical(*F);
  EXPECT_TRUE(checkAtFull(*F, &AM).has("canon-exit-tails"));
}

TEST(CheckIdTest, CanonicalChecksGatedWithoutFlag) {
  // The same broken shape is NOT reported unless the function was marked
  // canonical (the checks would misfire on every pre-canonical function).
  Module M;
  Function *F = buildNonCanonicalLoop(M);
  AnalysisManager AM(&M);
  DiagnosticEngine DE = checkAtFull(*F, &AM);
  EXPECT_FALSE(DE.has("canon-preheaders"));
  EXPECT_FALSE(DE.has("canon-critical-edges"));
  EXPECT_FALSE(DE.has("canon-exit-tails"));
}

TEST(CheckIdTest, PromoWebValues) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  IRBuilder BL(L);
  BL.br(J);
  IRBuilder BR(R);
  BR.br(J);
  auto Phi = std::make_unique<PhiInst>(Type::Int, "p");
  Phi->addIncoming(M.constant(1), L);
  Phi->addIncoming(M.constant(2), R);
  PhiInst *P = static_cast<PhiInst *>(J->append(std::move(Phi)));
  IRBuilder BJ(J);
  BJ.ret();
  MemoryName *E = F->createMemoryName(G);
  F->setEntryMemoryName(G, E);
  P->setOperand(0, E); // a web that pulled in a memory version
  EXPECT_TRUE(checkAtFull(*F).has("promo-web-values"));
}

TEST(CheckIdTest, PromoDummyScope) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 0);
  Function *F = buildNonCanonicalLoop(M);
  // "x" (the exit block) is not a preheader of any interval.
  for (BasicBlock *BB : F->blocks())
    if (BB->name() == "x")
      BB->prepend(std::make_unique<DummyLoadInst>(G));
  AnalysisManager AM(&M);
  AM.markCanonical(*F);
  EXPECT_TRUE(checkAtFull(*F, &AM).has("promo-dummy-scope"));
}

TEST(CheckIdTest, PromoCountDelta) {
  PromotionDeltaExpectation E;
  E.LoadsBefore = 10;
  E.LoadsReplaced = 2;
  E.LoadsInserted = 1;
  E.LoadsAfter = 12; // bound is 10 - 2 + 1 = 9: unaccounted insertions
  E.StoresBefore = 4;
  E.StoresDeleted = 1;
  E.StoresAfter = 3;
  DiagnosticEngine DE;
  checkPromotionDelta(E, DE);
  EXPECT_TRUE(DE.has("promo-count-delta"));
  EXPECT_TRUE(DE.hasErrors());

  // Falling short of the bound (extra cleanup) is only a note.
  DiagnosticEngine DE2;
  E.LoadsAfter = 7;
  checkPromotionDelta(E, DE2);
  EXPECT_TRUE(DE2.has("promo-count-delta"));
  EXPECT_FALSE(DE2.hasErrors());
  EXPECT_EQ(DE2.count(DiagSeverity::Note), 1u);
}

TEST(CheckIdTest, EveryRegisteredCheckHasANegativeTest) {
  // Keep this list in sync with the CheckId* tests above; it fails when a
  // new check is registered without negative coverage.
  const std::set<std::string> Covered = {
      "cfg-blocks",          "cfg-terminator",
      "cfg-entry-preds",     "cfg-succ-targets",
      "cfg-pred-consistency","ssa-phi-grouping",
      "ssa-phi-incoming",    "ssa-use-dominance",
      "ssa-use-lists",       "mem-def-links",
      "mem-use-dominance",   "mem-use-lists",
      "mem-name-links",      "mem-version-consistency",
      "mem-phi-placement",   "mem-alias-tagging",
      "canon-preheaders",    "canon-critical-edges",
      "canon-exit-tails",    "promo-web-values",
      "promo-dummy-scope",
  };
  for (const CheckInfo &CI : registeredChecks())
    EXPECT_TRUE(Covered.count(CI.Id))
        << "no negative test for check '" << CI.Id << "'";
}

} // namespace

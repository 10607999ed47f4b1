//===- tests/TransValidateTest.cpp - translation-validation oracle --------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the per-pass translation validator (-verify-each=semantic):
///  - the "semantic" strictness spelling round-trips,
///  - cloneModule deep-copies (text-identical, independent mutation),
///    also with calls, address-taken locals, arrays, struct fields, phis
///    reading later-laid-out values and blocks numbered out of layout
///    order,
///  - ValueNumberTable records dominating congruence leaders,
///  - validateTranslation proves identical clones and rejects a dropped
///    store through the direct API, with diagnostics and counts that do
///    not depend on where the clones were allocated,
///  - positive control: every promotion mode proves every pass over
///    promotion-rich programs and the oracle workloads at
///    Strictness::Semantic with zero failed obligations,
///  - mutation tests in the StaticAnalysisTest style: a pass that drops a
///    store, swaps a phi's incoming values, or swaps two promoted webs'
///    stored values must fail semantic validation with the error
///    attributed to the mutating pass and the right trans-* check,
///  - the pass manager's kept snapshot analyses: a validation that reuses
///    the previous validation's analyses reports exactly what fresh clones
///    report, and proves what they prove.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "analysis/AnalysisManager.h"
#include "analysis/CFGCanonicalize.h"
#include "analysis/Dominators.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/TransValidate.h"
#include "frontend/Lowering.h"
#include "ir/CFGEdit.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "pipeline/PassManager.h"
#include "pipeline/Pipeline.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "ssa/ValueNumbering.h"
#include <algorithm>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

using namespace srp;
using srp::test::compileOrDie;

namespace {

bool anyContains(const std::vector<std::string> &Strings,
                 const std::string &Needle) {
  for (const auto &S : Strings)
    if (S.find(Needle) != std::string::npos)
      return true;
  return false;
}

const PromotionMode AllModes[] = {
    PromotionMode::None,         PromotionMode::Paper,
    PromotionMode::PaperNoProfile, PromotionMode::LoopBaseline,
    PromotionMode::Superblock,   PromotionMode::MemOptOnly,
};

//===----------------------------------------------------------------------===
// Strictness spelling.
//===----------------------------------------------------------------------===

TEST(TransValidateTest, SemanticStrictnessRoundTrips) {
  EXPECT_STREQ(strictnessName(Strictness::Semantic), "semantic");
  Strictness S = Strictness::Off;
  ASSERT_TRUE(parseStrictness("semantic", S));
  EXPECT_EQ(S, Strictness::Semantic);
}

//===----------------------------------------------------------------------===
// cloneModule.
//===----------------------------------------------------------------------===

TEST(TransValidateTest, CloneModuleIsTextIdenticalAndIndependent) {
  auto M = compileOrDie(R"(
    int g = 3;
    int main() {
      int i;
      i = 0;
      while (i < 5) {
        g = g + i;
        i = i + 1;
      }
      return g;
    }
  )");
  ASSERT_NE(M, nullptr);
  const std::string Before = toString(*M);
  auto Clone = cloneModule(*M);
  ASSERT_NE(Clone, nullptr);
  EXPECT_EQ(toString(*Clone), Before);

  // Mutating the clone must not touch the source.
  Function *CF = Clone->getFunction("main");
  ASSERT_NE(CF, nullptr);
  CF->entry()->erase(CF->entry()->terminator());
  EXPECT_EQ(toString(*M), Before);
  EXPECT_NE(toString(*Clone), Before);
}

// Shapes the cloner must map without a lookup by address: calls between
// functions, an address-taken local, a global array and struct fields, a
// loop header phi whose back-edge value is laid out after it, and a split
// edge, whose new block's number is out of layout order.
TEST(TransValidateTest, CloneModuleCopiesAwkwardShapes) {
  auto M = compileOrDie(R"(
    int g = 2;
    int arr[4];
    struct S { int f1; int f2 = 3; } s;
    int bump(int x) {
      int t;
      int p = &t;
      *p = x + g;
      arr[x % 4] = t;
      s.f1 = s.f1 + t;
      return t;
    }
    int main() {
      int i;
      int acc;
      i = 0;
      acc = 1;
      while (i < 6) {
        acc = acc + bump(i);
        if (acc > 10) {
          s.f2 = acc;
        }
        i = i + 1;
      }
      print(acc);
      return acc + s.f2 + arr[1];
    }
  )");
  ASSERT_NE(M, nullptr);
  for (const auto &F : M->functions()) {
    DominatorTree DT(*F);
    promoteLocalsToSSA(*F, DT);
    canonicalize(*F);
  }
  Function *Main = M->getFunction("main");
  ASSERT_NE(Main, nullptr);
  bool Split = false;
  for (BasicBlock *BB : Main->blocks())
    if (!Split && BB->numSuccs() == 1 && BB->succ(0)->numPreds() == 2) {
      splitEdge(BB, BB->succ(0));
      Split = true;
    }
  ASSERT_TRUE(Split);
  bool OutOfOrder = false, ForwardPhi = false;
  unsigned Layout = 0;
  for (BasicBlock *BB : Main->blocks()) {
    OutOfOrder |= BB->number() != Layout++;
    for (auto &I : *BB)
      if (auto *P = dyn_cast<PhiInst>(I.get()))
        for (unsigned K = 0; K != P->numIncoming(); ++K)
          if (auto *D = dyn_cast<Instruction>(P->incomingValue(K)))
            ForwardPhi |= D->parent() != BB && D->parent()->number() >
                                                   BB->number();
  }
  ASSERT_TRUE(OutOfOrder);
  ASSERT_TRUE(ForwardPhi);

  const std::string Before = toString(*M);
  auto Clone = cloneModule(*M);
  auto Clone2 = cloneModule(*M);
  EXPECT_EQ(toString(*Clone), Before);

  DiagnosticEngine DE;
  TransValidateStats Stats;
  EXPECT_TRUE(validateTranslation(*Clone, *Clone2, {}, DE, Stats));
  for (const Diagnostic &D : DE.diagnostics())
    ADD_FAILURE() << toText(D);
  EXPECT_EQ(Stats.FunctionsValidated, 2u);
  EXPECT_EQ(Stats.ObligationsFailed, 0u);

  // Mutating a clone must not touch the source.
  auto Mutant = cloneModule(*M);
  Function *Bump = Mutant->getFunction("bump");
  ASSERT_NE(Bump, nullptr);
  for (BasicBlock *BB : Bump->blocks())
    for (auto &I : *BB)
      if (auto *St = dyn_cast<ArrayStoreInst>(I.get()))
        St->setOperand(1, Mutant->constant(99));
  EXPECT_NE(toString(*Mutant), Before);
  EXPECT_EQ(toString(*M), Before);
}

//===----------------------------------------------------------------------===
// ValueNumberTable.
//===----------------------------------------------------------------------===

TEST(TransValidateTest, ValueNumberTableFindsDominatingLeaders) {
  auto M = compileOrDie(R"(
    int main() {
      int a;
      int b;
      a = 2 + 3;
      b = 2 + 3;
      return a + b;
    }
  )");
  ASSERT_NE(M, nullptr);
  Function *F = M->getFunction("main");
  ASSERT_NE(F, nullptr);
  DominatorTree DT(*F);
  promoteLocalsToSSA(*F, DT);

  ValueNumberTable VN(*F, DT);
  // The two `2 + 3` expressions are one congruence class: the later one
  // must map to the earlier as its leader.
  std::vector<BinOpInst *> ConstAdds;
  for (BasicBlock *BB : F->blocks())
    for (auto &I : *BB)
      if (auto *B = dyn_cast<BinOpInst>(I.get()))
        if (isa<ConstantInt>(B->lhs()) && isa<ConstantInt>(B->rhs()))
          ConstAdds.push_back(B);
  ASSERT_GE(ConstAdds.size(), 2u);
  EXPECT_EQ(VN.leader(ConstAdds[1]), ConstAdds[0]);
  EXPECT_EQ(VN.leader(ConstAdds[0]), ConstAdds[0]);
  EXPECT_GE(VN.size(), 1u);
}

//===----------------------------------------------------------------------===
// validateTranslation, direct API.
//===----------------------------------------------------------------------===

TEST(TransValidateTest, IdenticalClonesProve) {
  auto M = compileOrDie(R"(
    int g = 1;
    int main() {
      g = g + 41;
      print(g);
      return g;
    }
  )");
  ASSERT_NE(M, nullptr);
  auto Old = cloneModule(*M);
  auto New = cloneModule(*M);
  DiagnosticEngine DE;
  TransValidateStats Stats;
  EXPECT_TRUE(validateTranslation(*Old, *New, {}, DE, Stats));
  for (const Diagnostic &D : DE.diagnostics())
    ADD_FAILURE() << toText(D);
  EXPECT_GT(Stats.FunctionsValidated, 0u);
  EXPECT_GT(Stats.EffectPairsMatched, 0u);
  EXPECT_EQ(Stats.ObligationsFailed, 0u);
}

TEST(TransValidateTest, DirectDroppedStoreIsRejected) {
  auto M = compileOrDie(R"(
    int g = 0;
    int main() {
      g = 1;
      return g;
    }
  )");
  ASSERT_NE(M, nullptr);
  auto Old = cloneModule(*M);
  auto New = cloneModule(*M);
  Function *NF = New->getFunction("main");
  ASSERT_NE(NF, nullptr);
  StoreInst *St = nullptr;
  for (BasicBlock *BB : NF->blocks())
    for (auto &I : *BB)
      if (auto *S = dyn_cast<StoreInst>(I.get()))
        St = S;
  ASSERT_NE(St, nullptr);
  St->parent()->erase(St);

  DiagnosticEngine DE;
  TransValidateStats Stats;
  EXPECT_FALSE(validateTranslation(*Old, *New, {}, DE, Stats));
  EXPECT_TRUE(DE.has("trans-memory") || DE.has("trans-value"));
  EXPECT_GT(Stats.ObligationsFailed, 0u);
}

bool sameCounts(const TransValidateStats &A, const TransValidateStats &B) {
  return A.PassesValidated == B.PassesValidated &&
         A.FunctionsValidated == B.FunctionsValidated &&
         A.FunctionsSkippedIdentical == B.FunctionsSkippedIdentical &&
         A.EffectPairsMatched == B.EffectPairsMatched &&
         A.ObligationsProven == B.ObligationsProven &&
         A.ObligationsFailed == B.ObligationsFailed &&
         A.WebsChecked == B.WebsChecked && A.WebsProven == B.WebsProven;
}

// The proof state lives in hash tables keyed by addresses. Nothing read
// from them may reach a diagnostic or a count in a different order or
// amount when the clones land elsewhere in memory.
TEST(TransValidateTest, DiagnosticsDoNotDependOnAddresses) {
  auto M = compileOrDie(R"(
    int g = 0;
    int h = 0;
    int f(int a) { g = a; h = a + 1; print(g + h); return a; }
    int main() { g = 1; h = 2; print(f(3)); g = 4; h = 5; return 0; }
  )");
  ASSERT_NE(M, nullptr);
  // Drops the last store to each object in every function.
  auto DropLastStores = [](Module &Mod) {
    for (const auto &F : Mod.functions()) {
      std::map<std::string, StoreInst *> Last;
      for (BasicBlock *BB : F->blocks())
        for (auto &I : *BB)
          if (auto *S = dyn_cast<StoreInst>(I.get()))
            Last[S->object()->name()] = S;
      for (auto &[Name, S] : Last)
        S->parent()->erase(S);
    }
  };
  const std::vector<validation::PromotedWebRecord> Webs = {
      {"f", "g", "g#0", "drop"}, {"f", "h", "h#0", "drop"},
      {"main", "g", "g#1", "drop"}, {"main", "h", "h#1", "drop"}};

  std::vector<std::string> First;
  TransValidateStats FirstStats;
  std::vector<std::unique_ptr<std::string>> Ballast;
  for (unsigned Round = 0; Round != 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    // Allocate between rounds so the clones land at different addresses.
    for (unsigned K = 0; K != 1 + Round * 7; ++K)
      Ballast.push_back(std::make_unique<std::string>(40 + K % 90, 'x'));
    auto Old = cloneModule(*M);
    auto New = cloneModule(*M);
    DropLastStores(*New);
    DiagnosticEngine DE;
    TransValidateStats Stats;
    EXPECT_FALSE(validateTranslation(*Old, *New, Webs, DE, Stats));
    std::vector<std::string> Texts;
    for (const Diagnostic &D : DE.diagnostics())
      Texts.push_back(toText(D));
    if (Round == 0) {
      First = Texts;
      FirstStats = Stats;
      // Failures on both objects in both functions.
      for (const char *Fn : {"f", "main"})
        for (const char *Obj : {"'g.", "'h."}) {
          bool Found = false;
          for (const Diagnostic &D : DE.diagnostics())
            Found |= D.Loc.Function == Fn && D.CheckID == "trans-memory" &&
                     D.Message.find(Obj) != std::string::npos;
          EXPECT_TRUE(Found) << Fn << " " << Obj;
        }
      EXPECT_GE(Stats.ObligationsFailed, 4u);
      continue;
    }
    EXPECT_EQ(Texts, First);
    EXPECT_TRUE(sameCounts(Stats, FirstStats));
  }
}

//===----------------------------------------------------------------------===
// Positive control: every mode proves every pass at Semantic.
//===----------------------------------------------------------------------===

PipelineResult runSemantic(const std::string &Source, PromotionMode Mode) {
  return PipelineBuilder()
      .mode(Mode)
      .verifyEachStep(true)
      .verifyStrictness(Strictness::Semantic)
      .run(Source);
}

void expectProven(const std::string &Source, PromotionMode Mode) {
  SCOPED_TRACE(std::string("mode=") + promotionModeName(Mode));
  PipelineResult R = runSemantic(Source, Mode);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(R.Ok);
  EXPECT_GT(R.Verify.Validation.PassesValidated, 0u);
  EXPECT_EQ(R.Verify.Validation.ObligationsFailed, 0u);
}

TEST(TransValidateSemanticTest, AllModesProvePromotionRichProgram) {
  // Loop-carried global web (the paper's bread and butter), a guarded
  // store, array traffic and an observable print: every promoter has
  // something to chew on, and every effect anchors the simulation.
  const char *Src = R"(
    int g = 0;
    int h = 7;
    int arr[8];
    int main() {
      int i;
      i = 0;
      while (i < 8) {
        arr[((i) % 8 + 8) % 8] = g + i;
        g = g + arr[((i) % 8 + 8) % 8];
        if (g > 20) {
          h = h + g;
        }
        i = i + 1;
      }
      print(g);
      print(h);
      return g + h;
    }
  )";
  for (PromotionMode Mode : AllModes)
    expectProven(Src, Mode);
}

TEST(TransValidateSemanticTest, AllModesProveStoresOnlyWeb) {
  // A stores-only web plus a pointer alias: exercises the §4.3 rejection
  // paths and chi-definitions under the validator.
  const char *Src = R"(
    int g = 5;
    int main() {
      int i;
      int p = &g;
      i = 0;
      while (i < 4) {
        g = i;
        *p = *p + 1;
        i = i + 1;
      }
      return g;
    }
  )";
  for (PromotionMode Mode : AllModes)
    expectProven(Src, Mode);
}

std::string readWorkload(const std::string &File) {
  std::ifstream In(std::string(SRP_WORKLOAD_DIR) + "/" + File);
  EXPECT_TRUE(In.good()) << "cannot open workload " << File;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(TransValidateSemanticTest, AllModesProveOracleWorkloads) {
  for (const char *File : {"spice.mc", "mpeg.mc", "db.mc"}) {
    const std::string Src = readWorkload(File);
    ASSERT_FALSE(Src.empty());
    for (PromotionMode Mode : AllModes) {
      SCOPED_TRACE(File);
      expectProven(Src, Mode);
    }
  }
}

//===----------------------------------------------------------------------===
// Mutation tests: a semantics-changing pass must fail validation with the
// error attributed to that pass. Each mutation keeps the IR well-formed
// (L0-L4 clean) so only the translation validator can catch it.
//===----------------------------------------------------------------------===

using MutateFn = std::function<void(Module &, AnalysisManager &)>;
using Step = std::pair<std::string, MutateFn>;

/// Compiles \p Src and runs it under the pass manager at
/// Strictness::Semantic: a "setup" pass (mem2reg if \p Mem2Reg, then CFG
/// canonicalisation and memory SSA) which must validate clean, then each
/// of \p Steps as a pass of its own. Returns whether the run succeeded.
bool runSemanticSteps(const char *Src, bool Mem2Reg,
                      const std::vector<Step> &Steps,
                      std::vector<std::string> &Errors,
                      TransValidateStats *Stats = nullptr) {
  std::vector<std::string> CompileErrors;
  auto M = compileMiniC(Src, CompileErrors);
  EXPECT_TRUE(CompileErrors.empty());
  if (!M)
    return false;
  AnalysisManager AM(M.get());

  PassManagerOptions PMO;
  PMO.VerifyEachPass = true;
  PMO.VerifyStrictness = Strictness::Semantic;
  PassManager PM(PMO);

  PM.addPass("setup", [&](Module &Mod, AnalysisManager &AM,
                          std::vector<std::string> &) {
    for (const auto &F : Mod.functions()) {
      if (F->empty())
        continue;
      if (Mem2Reg)
        promoteLocalsToSSA(*F, AM);
      canonicalize(*F, AM);
      AM.get<MemorySSAInfo>(*F);
    }
    return true;
  });
  for (const auto &[Name, Fn] : Steps)
    PM.addPass(Name, [&Fn = Fn](Module &Mod, AnalysisManager &AM,
                                std::vector<std::string> &) {
      Fn(Mod, AM);
      return true;
    });

  const bool Ok = PM.run(*M, AM, Errors);
  EXPECT_FALSE(anyContains(Errors, "after pass 'setup'"));
  if (Stats)
    *Stats = PM.verifyStats().Validation;
  return Ok;
}

/// Runs \p Mutate as pass \p PassName after setup; the run is expected
/// to fail.
std::vector<std::string> runSemanticMutation(const char *Src,
                                             const char *PassName,
                                             bool Mem2Reg, MutateFn Mutate) {
  std::vector<std::string> Errors;
  EXPECT_FALSE(runSemanticSteps(Src, Mem2Reg, {{PassName, Mutate}}, Errors));
  EXPECT_FALSE(Errors.empty());
  return Errors;
}

/// Deletes main's last store to a global, rebuilding memory SSA from
/// scratch around the deletion so every structural invariant stays
/// intact: only the semantics change.
void dropLastStore(Module &M, AnalysisManager &AM) {
  Function *F = M.getFunction("main");
  ASSERT_NE(F, nullptr);
  F->clearMemorySSA();
  StoreInst *St = nullptr;
  for (BasicBlock *BB : F->blocks())
    for (auto &I : *BB)
      if (auto *S = dyn_cast<StoreInst>(I.get()))
        St = S;
  ASSERT_NE(St, nullptr);
  St->parent()->erase(St);
  DominatorTree DT(*F);
  buildMemorySSA(*F, DT);
  AM.invalidate(*F);
}

TEST(SemanticMutationTest, DroppedStoreIsAttributed) {
  auto Errors =
      runSemanticMutation("int g = 0; int main() { g = 1; return g; }",
                          "mutate-drop-store", false, dropLastStore);
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-drop-store'"));
  EXPECT_TRUE(anyContains(Errors, "trans-memory") ||
              anyContains(Errors, "trans-value"));
}

// The pass manager prints each pass boundary once and rolls the text
// forward only after a pass has verified and validated. A mutation after
// a pass that changed nothing is still rejected and attributed to its own
// pass, and its failure dump shows the IR it started from (the IR after
// setup) next to the IR it produced. The diagnostics, proven against the
// kept snapshot, read exactly as against fresh clones.
TEST(SemanticMutationTest, MutationAfterNoOpPassDumpsItsPrePassIR) {
  std::string AfterSetup, AfterMutation;
  std::unique_ptr<Module> FreshPre, FreshPost;
  std::vector<std::string> Errors;
  EXPECT_FALSE(runSemanticSteps(
      "int g = 0; int main() { g = 1; return g; }", false,
      {{"no-op",
        [&](Module &M, AnalysisManager &) {
          AfterSetup = toString(*M.getFunction("main"));
          FreshPre = cloneModule(M);
        }},
       {"mutate-drop-store",
        [&](Module &M, AnalysisManager &AM) {
          dropLastStore(M, AM);
          AfterMutation = toString(*M.getFunction("main"));
          FreshPost = cloneModule(M);
        }}},
      Errors));
  EXPECT_FALSE(anyContains(Errors, "after pass 'no-op'"));
  ASSERT_NE(AfterSetup, AfterMutation);
  const std::string Prefix = "after pass 'mutate-drop-store': ";
  auto Has = [&](const std::string &Text) {
    return std::find(Errors.begin(), Errors.end(), Prefix + Text) !=
           Errors.end();
  };
  EXPECT_TRUE(Has("IR of function 'main' before the pass:\n" + AfterSetup));
  EXPECT_TRUE(Has("IR of function 'main':\n" + AfterMutation));

  DiagnosticEngine DE;
  TransValidateStats Stats;
  ASSERT_TRUE(FreshPre && FreshPost);
  EXPECT_FALSE(validateTranslation(*FreshPre, *FreshPost, {}, DE, Stats));
  ASSERT_TRUE(DE.has("trans-memory") || DE.has("trans-value"));
  for (const Diagnostic &D : DE.diagnostics())
    EXPECT_TRUE(Has(toText(D))) << toText(D);
}

// The module snapshot rolls too: setup's post-pass clone, on which setup's
// validation already built memory SSA, is kept across a pass that changed
// nothing and is what the next pass is proven against. A correct edge
// split there must be proven with no error.
TEST(SemanticMutationTest, EdgeSplitAfterNoOpPassIsProven) {
  std::vector<std::string> Errors;
  TransValidateStats Stats;
  bool Split = false;
  EXPECT_TRUE(runSemanticSteps(
      "int g = 0; int main() { int a; a = 3;"
      " if (a < 5) { g = 7; } else { g = 9; } print(g); return g; }",
      true,
      {{"no-op", [](Module &, AnalysisManager &) {}},
       {"split-edge",
        [&](Module &M, AnalysisManager &AM) {
          // The edge from one arm into the join, whose memory phi for g
          // then merges through the new block.
          Function *F = M.getFunction("main");
          for (BasicBlock *BB : F->blocks())
            if (BB->succs().size() == 1 &&
                BB->succs()[0]->preds().size() == 2) {
              splitEdge(BB, BB->succs()[0]);
              AM.invalidate(*F);
              Split = true;
              return;
            }
        }}},
      Errors, &Stats));
  for (const auto &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(Split);
  // setup and split-edge are validated; no-op is skipped as identical.
  EXPECT_EQ(Stats.PassesValidated, 2u);
  EXPECT_EQ(Stats.FunctionsValidated, 2u);
  EXPECT_EQ(Stats.ObligationsFailed, 0u);
}

TEST(SemanticMutationTest, WrongPhiOperandIsAttributed) {
  auto Errors = runSemanticMutation(
      "int main() { int a; int r; a = 3;"
      " if (a < 5) { r = 7; } else { r = 9; } return r; }",
      "mutate-phi-operand", true, [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        ASSERT_NE(F, nullptr);
        for (BasicBlock *BB : F->blocks())
          for (auto &I : *BB)
            if (auto *P = dyn_cast<PhiInst>(I.get()))
              if (P->numIncoming() == 2 &&
                  P->incomingValue(0) != P->incomingValue(1)) {
                // Swap the values but keep the blocks: the phi is still
                // perfectly well-formed, it just merges the branches the
                // wrong way round.
                Value *V0 = P->incomingValue(0);
                Value *V1 = P->incomingValue(1);
                P->setOperand(0, V1);
                P->setOperand(1, V0);
                return;
              }
        FAIL() << "no two-way phi with distinct incomings to corrupt";
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-phi-operand'"));
  EXPECT_TRUE(anyContains(Errors, "trans-value"));
}

TEST(SemanticMutationTest, SwappedWebValuesIsAttributed) {
  auto Errors = runSemanticMutation(
      "int g = 1; int h = 2;"
      " int main() { g = 3; h = 4; return g + h; }",
      "mutate-swap-webs", false, [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        ASSERT_NE(F, nullptr);
        StoreInst *StG = nullptr, *StH = nullptr;
        for (BasicBlock *BB : F->blocks())
          for (auto &I : *BB)
            if (auto *S = dyn_cast<StoreInst>(I.get())) {
              if (S->object()->name() == "g")
                StG = S;
              else if (S->object()->name() == "h")
                StH = S;
            }
        ASSERT_NE(StG, nullptr);
        ASSERT_NE(StH, nullptr);
        // Cross the two webs' stored values, claiming both as promoted:
        // the ledger cross-check must reject the unproven webs.
        Value *VG = StG->storedValue();
        Value *VH = StH->storedValue();
        StG->setOperand(0, VH);
        StH->setOperand(0, VG);
        validation::recordPromotedWeb("main", "g", "g#0", "mutate-swap-webs");
        validation::recordPromotedWeb("main", "h", "h#0", "mutate-swap-webs");
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-swap-webs'"));
  EXPECT_TRUE(anyContains(Errors, "trans-web"));
  EXPECT_TRUE(anyContains(Errors, "trans-memory"));
}

/// Inserts a dead `add` before the entry block's terminator in every
/// function: a change to each function's text that proves trivially.
void addDeadAdds(Module &M, AnalysisManager &AM) {
  for (const auto &F : M.functions()) {
    if (F->empty())
      continue;
    F->entry()->insertBeforeTerminator(std::make_unique<BinOpInst>(
        BinOpKind::Add, M.constant(1), M.constant(2), F->uniqueValueName()));
    AM.invalidate(*F);
  }
}

// touch-both is validated in both functions, so its post-pass clone, the
// next snapshot, carries both functions' analyses; mutate-main changes
// main only and is proven against that snapshot. Its diagnostics must read
// exactly as against fresh clones, whose memory versions are numbered with
// main analysed on its own: kept analyses name a global's versions per
// function, not in continuation of the functions validated before.
TEST(SemanticMutationTest, KeptAnalysesReportAsFreshClones) {
  std::unique_ptr<Module> FreshPre, FreshPost;
  std::vector<std::string> Errors;
  EXPECT_FALSE(runSemanticSteps(
      "int g = 0; int f(int a) { g = g + a; return g; }"
      " int main() { g = 1; print(f(2)); g = 5; return g; }",
      false,
      {{"touch-both", addDeadAdds},
       {"mutate-main",
        [&](Module &M, AnalysisManager &AM) {
          FreshPre = cloneModule(M);
          dropLastStore(M, AM);
          FreshPost = cloneModule(M);
        }}},
      Errors));
  EXPECT_FALSE(anyContains(Errors, "after pass 'touch-both'"));
  const std::string Prefix = "after pass 'mutate-main': ";
  std::vector<std::string> Reported;
  for (const std::string &E : Errors)
    if (E.rfind(Prefix + "error[trans-", 0) == 0)
      Reported.push_back(E.substr(Prefix.size()));

  ASSERT_TRUE(FreshPre && FreshPost);
  const std::unordered_set<std::string> OnlyMain = {"main"};
  DiagnosticEngine DE;
  TransValidateStats Stats;
  EXPECT_FALSE(
      validateTranslation(*FreshPre, *FreshPost, {}, DE, Stats, &OnlyMain));
  std::vector<std::string> Fresh;
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      Fresh.push_back(toText(D));
  ASSERT_FALSE(Fresh.empty());
  EXPECT_EQ(Reported, Fresh);
}

// The positive twin: split-edge is proven against touch-both's snapshot,
// reusing the analyses touch-both's validation built for main.
TEST(SemanticMutationTest, EdgeSplitProvenWithKeptAnalyses) {
  std::vector<std::string> Errors;
  TransValidateStats Stats;
  bool Split = false;
  EXPECT_TRUE(runSemanticSteps(
      "int g = 0; int f(int a) { g = g + a; return g; }"
      " int main() { int a; a = 3;"
      " if (a < 5) { g = 7; } else { g = 9; } print(f(2)); return g; }",
      true,
      {{"touch-both", addDeadAdds},
       {"split-edge",
        [&](Module &M, AnalysisManager &AM) {
          Function *F = M.getFunction("main");
          for (BasicBlock *BB : F->blocks())
            if (BB->numSuccs() == 1 && BB->succ(0)->numPreds() == 2) {
              splitEdge(BB, BB->succ(0));
              AM.invalidate(*F);
              Split = true;
              return;
            }
        }}},
      Errors, &Stats));
  for (const auto &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(Split);
  // setup and touch-both validate both functions, split-edge main alone.
  EXPECT_EQ(Stats.PassesValidated, 3u);
  EXPECT_EQ(Stats.FunctionsValidated, 5u);
  EXPECT_EQ(Stats.ObligationsFailed, 0u);
}

} // namespace

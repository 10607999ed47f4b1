//===- tests/StaticAnalysisTest.cpp - checker framework + lints -----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the layered invariant-checking framework and the source
/// lints:
///  - diagnostic rendering (text and JSON),
///  - a positive control (sound canonical memory-SSA IR is clean at Full),
///  - one mutation per layer L0..L4, applied by a pass under the pass
///    manager at Full strictness: the failure must name the mutating pass
///    and the violated check,
///  - the Mini-C lints with exact locations,
///  - verification accounting surfaced through PipelineResult.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/CFGCanonicalize.h"
#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "pipeline/PassManager.h"
#include "pipeline/Pipeline.h"
#include "ssa/MemorySSA.h"
#include <gtest/gtest.h>
#include <functional>
#include <memory>
#include <set>
#include <string>

using namespace srp;

namespace {

bool anyContains(const std::vector<std::string> &Strings,
                 const std::string &Needle) {
  for (const auto &S : Strings)
    if (S.find(Needle) != std::string::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===
// Diagnostic engine and renderers.
//===----------------------------------------------------------------------===

TEST(DiagnosticsTest, TextRendering) {
  Diagnostic D;
  D.CheckID = "cfg-terminator";
  D.Severity = DiagSeverity::Error;
  D.Loc.Function = "f";
  D.Loc.Block = "bb2";
  D.Loc.InstIndex = 3;
  D.Loc.Snippet = "ret";
  D.Message = "boom";
  D.FixIt = "do less";
  EXPECT_EQ(toText(D), "error[cfg-terminator] f:bb2:#3: boom | ret "
                       "(fix: do less)");

  Diagnostic Bare;
  Bare.CheckID = "cfg-blocks";
  Bare.Severity = DiagSeverity::Warning;
  Bare.Loc.Function = "g";
  Bare.Message = "empty";
  EXPECT_EQ(toText(Bare), "warning[cfg-blocks] g: empty");
}

TEST(DiagnosticsTest, EngineCountsAndLookup) {
  DiagnosticEngine DE;
  DE.error("a-check", DiagLocation::inFunction("f"), "e1");
  DE.warning("b-check", DiagLocation::inFunction("f"), "w1");
  DE.warning("b-check", DiagLocation::inFunction("g"), "w2");
  EXPECT_EQ(DE.size(), 3u);
  EXPECT_EQ(DE.errors(), 1u);
  EXPECT_EQ(DE.warnings(), 2u);
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_TRUE(DE.has("a-check"));
  EXPECT_TRUE(DE.has("b-check"));
  EXPECT_FALSE(DE.has("c-check"));
  DE.clear();
  EXPECT_TRUE(DE.empty());
  EXPECT_FALSE(DE.hasErrors());
}

TEST(DiagnosticsTest, JsonRendering) {
  DiagnosticEngine DE;
  Diagnostic D;
  D.CheckID = "lint-dead-store";
  D.Severity = DiagSeverity::Warning;
  D.Loc.Function = "main";
  D.Loc.Block = "entry";
  D.Loc.InstIndex = 0;
  D.Loc.Snippet = "st \"x\"";
  D.Message = "never read";
  DE.report(D);
  std::string J = diagnosticsToJson(DE.diagnostics());
  EXPECT_NE(J.find("\"check\": \"lint-dead-store\""), std::string::npos);
  EXPECT_NE(J.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(J.find("\"function\": \"main\""), std::string::npos);
  EXPECT_NE(J.find("\"instruction_index\": 0"), std::string::npos);
  // The snippet's quote must be escaped.
  EXPECT_NE(J.find("st \\\"x\\\""), std::string::npos);
  EXPECT_EQ(diagnosticsToJson({}), "[]");
}

TEST(StrictnessTest, NameRoundTrip) {
  for (Strictness S :
       {Strictness::Off, Strictness::Fast, Strictness::Full}) {
    Strictness Parsed;
    ASSERT_TRUE(parseStrictness(strictnessName(S), Parsed));
    EXPECT_EQ(Parsed, S);
  }
  Strictness S = Strictness::Fast;
  EXPECT_FALSE(parseStrictness("bogus", S));
  EXPECT_EQ(S, Strictness::Fast);
}

TEST(CheckRegistryTest, WellFormed) {
  const auto &Checks = registeredChecks();
  ASSERT_FALSE(Checks.empty());
  std::set<std::string> Ids;
  uint8_t LastLayer = 0;
  for (const CheckInfo &CI : Checks) {
    EXPECT_TRUE(Ids.insert(CI.Id).second) << "duplicate check id " << CI.Id;
    // Execution order is layer order: later layers assume earlier ones.
    EXPECT_GE(static_cast<uint8_t>(CI.Layer), LastLayer) << CI.Id;
    LastLayer = static_cast<uint8_t>(CI.Layer);
    EXPECT_NE(CI.MinLevel, Strictness::Off) << CI.Id;
    EXPECT_NE(std::string(CI.Description), "") << CI.Id;
  }
}

//===----------------------------------------------------------------------===
// Positive control: sound IR is clean at Full strictness.
//===----------------------------------------------------------------------===

TEST(StaticAnalysisTest, SoundCanonicalIRIsClean) {
  std::vector<std::string> Errors;
  auto M = compileMiniC(R"(
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
  )",
                        Errors);
  ASSERT_TRUE(Errors.empty());
  ASSERT_NE(M, nullptr);
  AnalysisManager AM(M.get());
  for (const auto &F : M->functions())
    if (!F->empty()) {
      canonicalize(*F, AM);
      AM.get<MemorySSAInfo>(*F);
    }
  DiagnosticEngine DE;
  CheckRunStats S = runChecks(*M, DE, Strictness::Full, &AM);
  EXPECT_GT(S.ChecksRun, 0u);
  for (const Diagnostic &D : DE.diagnostics())
    ADD_FAILURE() << toText(D);
}

//===----------------------------------------------------------------------===
// Mutation tests: one invariant broken per layer, through the pass
// manager at Full strictness. The failure must be attributed to the
// mutating pass and name the violated check.
//===----------------------------------------------------------------------===

using MutateFn = std::function<void(Module &, AnalysisManager &)>;

/// Compiles \p Src, optionally canonicalises / builds memory SSA in a
/// "setup" pass (which must verify clean), then applies \p Mutate in a
/// pass named \p PassName and returns the pass manager's errors. The run
/// is expected to fail.
std::vector<std::string> runMutation(const char *Src, const char *PassName,
                                     bool Canonical, bool MemSSA,
                                     MutateFn Mutate) {
  std::vector<std::string> CompileErrors;
  auto M = compileMiniC(Src, CompileErrors);
  EXPECT_TRUE(CompileErrors.empty());
  if (!M)
    return {};
  AnalysisManager AM(M.get());

  PassManagerOptions PMO;
  PMO.VerifyEachPass = true;
  PMO.VerifyStrictness = Strictness::Full;
  PassManager PM(PMO);

  PM.addPass("setup", [&](Module &Mod, AnalysisManager &AM,
                          std::vector<std::string> &) {
    for (const auto &F : Mod.functions()) {
      if (F->empty())
        continue;
      if (Canonical)
        canonicalize(*F, AM);
      if (MemSSA)
        AM.get<MemorySSAInfo>(*F);
    }
    return true;
  });
  PM.addPass(PassName, [&](Module &Mod, AnalysisManager &AM,
                           std::vector<std::string> &) {
    Mutate(Mod, AM);
    return true;
  });

  std::vector<std::string> Errors;
  EXPECT_FALSE(PM.run(*M, AM, Errors));
  EXPECT_FALSE(Errors.empty());
  return Errors;
}

TEST(MutationTest, L0MissingTerminatorIsAttributed) {
  auto Errors = runMutation(
      "int main() { return 0; }", "mutate-l0", false, false,
      [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        BasicBlock *BB = F->entry();
        BB->erase(BB->terminator());
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-l0'"));
  EXPECT_TRUE(anyContains(Errors, "cfg-terminator"));
}

TEST(MutationTest, L1BrokenUseListIsAttributed) {
  auto Errors = runMutation(
      "int main() { int x; x = 2; return x + 1; }", "mutate-l1", false,
      false, [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        for (BasicBlock *BB : F->blocks())
          for (auto &I : *BB)
            for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
              if (isa<Instruction>(I->operand(Idx))) {
                I->operand(Idx)->removeUse(Use{I.get(), Idx, false});
                return;
              }
        FAIL() << "no instruction operand to corrupt";
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-l1'"));
  EXPECT_TRUE(anyContains(Errors, "ssa-use-lists"));
}

TEST(MutationTest, L2StaleMemoryVersionIsAttributed) {
  auto Errors = runMutation(
      "int g = 0; int main() { g = 1; return g; }", "mutate-l2", false,
      true, [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        for (BasicBlock *BB : F->blocks())
          for (auto &I : *BB) {
            auto *Ld = dyn_cast<LoadInst>(I.get());
            if (!Ld || !Ld->memUse())
              continue;
            MemoryName *Entry = F->entryMemoryName(Ld->object());
            if (!Entry || Ld->memUse() == Entry)
              continue;
            // Rewind the load to the entry version: the store between the
            // two is now silently skipped on this path.
            Ld->removeMemOperand(0);
            Ld->addMemOperand(Entry);
            return;
          }
        FAIL() << "no load reading a stored version";
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-l2'"));
  EXPECT_TRUE(anyContains(Errors, "mem-version-consistency"));
}

TEST(MutationTest, L3SecondLoopEntryIsAttributed) {
  auto Errors = runMutation(
      R"(int g = 0;
         int main() {
           int i;
           i = 0;
           while (i < 3) { g = g + 1; i = i + 1; }
           return g;
         })",
      "mutate-l3", true, false, [](Module &M, AnalysisManager &AM) {
        Function *F = M.getFunction("main");
        // A rogue unreachable block branching at a loop header gives the
        // header a second outside predecessor — the preheader is no
        // longer the unique way in. The cached interval tree (the mutate
        // pass preserves analyses) still knows the old preheaders.
        IntervalTree &IT = AM.get<IntervalTree>(*F);
        for (Interval *Iv : IT.postorder()) {
          if (Iv->isRoot())
            continue;
          BasicBlock *Rogue = F->createBlock("rogue");
          IRBuilder B(Rogue);
          B.br(Iv->header());
          return;
        }
        FAIL() << "no loop interval found";
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-l3'"));
  EXPECT_TRUE(anyContains(Errors, "canon-preheaders"));
}

TEST(MutationTest, L4DummyLoadOutsidePreheaderIsAttributed) {
  auto Errors = runMutation(
      R"(int g = 0;
         int main() {
           int i;
           i = 0;
           while (i < 3) { g = g + 1; i = i + 1; }
           return g;
         })",
      "mutate-l4", true, false, [](Module &M, AnalysisManager &AM) {
        Function *F = M.getFunction("main");
        IntervalTree &IT = AM.get<IntervalTree>(*F);
        std::set<const BasicBlock *> Preheaders;
        for (Interval *Iv : IT.postorder())
          if (Iv->preheader())
            Preheaders.insert(Iv->preheader());
        MemoryObject *G = M.globals().front().get();
        for (BasicBlock *BB : F->blocks())
          if (!Preheaders.count(BB) && BB->terminator()) {
            BB->insertBeforeTerminator(std::make_unique<DummyLoadInst>(G));
            return;
          }
        FAIL() << "every block is a preheader?";
      });
  EXPECT_TRUE(anyContains(Errors, "after pass 'mutate-l4'"));
  EXPECT_TRUE(anyContains(Errors, "promo-dummy-scope"));
}

TEST(MutationTest, FullStrictnessDumpsOffendingFunctionIR) {
  auto Errors = runMutation(
      "int main() { return 0; }", "mutate-dump", false, false,
      [](Module &M, AnalysisManager &) {
        Function *F = M.getFunction("main");
        BasicBlock *BB = F->entry();
        BB->erase(BB->terminator());
      });
  EXPECT_TRUE(anyContains(Errors, "IR of function 'main'"));
}

//===----------------------------------------------------------------------===
// Source lints.
//===----------------------------------------------------------------------===

/// Compiles \p Src the way `srpc --analyze` does (no implicit zero-init),
/// builds memory SSA, and runs the lints.
DiagnosticEngine lint(const char *Src) {
  std::vector<std::string> Errors;
  LoweringOptions LO;
  LO.ImplicitZeroInitLocals = false;
  auto M = compileMiniC(Src, Errors, "mc", LO);
  EXPECT_TRUE(Errors.empty());
  DiagnosticEngine DE;
  if (!M)
    return DE;
  AnalysisManager AM(M.get());
  for (const auto &F : M->functions())
    if (!F->empty())
      AM.get<MemorySSAInfo>(*F);
  runSourceLints(*M, AM, DE);
  // Lints are advisory: never errors.
  EXPECT_FALSE(DE.hasErrors());
  return DE;
}

TEST(LintTest, UninitializedLoadDirect) {
  DiagnosticEngine DE = lint("int main() { int u; print(u); return 0; }");
  ASSERT_TRUE(DE.has("lint-uninitialized-load"));
  const Diagnostic *D = nullptr;
  for (const Diagnostic &X : DE.diagnostics())
    if (X.CheckID == "lint-uninitialized-load")
      D = &X;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.Function, "main");
  EXPECT_EQ(D->Loc.Block, "entry");
  EXPECT_NE(D->Message.find("uninitialised"), std::string::npos);
}

TEST(LintTest, UninitializedLoadOnSomePaths) {
  DiagnosticEngine DE = lint(R"(
    int main(int a) {
      int x;
      if (a > 0) { x = 1; }
      print(x);
      return 0;
    })");
  ASSERT_TRUE(DE.has("lint-uninitialized-load"));
  bool SomePaths = false;
  for (const Diagnostic &D : DE.diagnostics())
    if (D.CheckID == "lint-uninitialized-load" &&
        D.Message.find("some paths") != std::string::npos)
      SomePaths = true;
  EXPECT_TRUE(SomePaths);
}

TEST(LintTest, NoUninitializedLoadWhenStoredOnAllPaths) {
  DiagnosticEngine DE = lint(R"(
    int main(int a) {
      int x;
      if (a > 0) { x = 1; } else { x = 2; }
      print(x);
      return 0;
    })");
  EXPECT_FALSE(DE.has("lint-uninitialized-load"));
}

TEST(LintTest, DeadStoreOverwrittenBeforeRead) {
  DiagnosticEngine DE = lint(R"(
    int main() {
      int d;
      d = 5;
      d = 6;
      print(d);
      return 0;
    })");
  ASSERT_TRUE(DE.has("lint-dead-store"));
  const Diagnostic *D = nullptr;
  for (const Diagnostic &X : DE.diagnostics())
    if (X.CheckID == "lint-dead-store")
      D = &X;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.Function, "main");
  // The *first* store is the dead one.
  EXPECT_NE(D->Loc.Snippet.find("5"), std::string::npos);
}

TEST(LintTest, EscapingStoreIsNotDead) {
  // A final store to a global is observable after return.
  DiagnosticEngine DE =
      lint("int g = 0; int main() { g = 7; return 0; }");
  EXPECT_FALSE(DE.has("lint-dead-store"));
}

TEST(LintTest, UnreachableJoinAfterBothArmsReturn) {
  DiagnosticEngine DE = lint(R"(
    int pick(int a) {
      if (a > 0) { return 1; } else { return 2; }
    }
    int main() { return pick(1); })");
  ASSERT_TRUE(DE.has("lint-unreachable-code"));
  const Diagnostic *D = nullptr;
  for (const Diagnostic &X : DE.diagnostics())
    if (X.CheckID == "lint-unreachable-code")
      D = &X;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.Function, "pick");
  EXPECT_EQ(D->Loc.Block, "if.join");
}

TEST(LintTest, CleanProgramHasNoFindings) {
  DiagnosticEngine DE = lint(R"(
    int main() {
      int x;
      x = 1;
      print(x);
      return x;
    })");
  for (const Diagnostic &D : DE.diagnostics())
    ADD_FAILURE() << toText(D);
}

//===----------------------------------------------------------------------===
// Verification accounting through the pipeline.
//===----------------------------------------------------------------------===

TEST(VerifyStatsTest, PipelineReportsCheckCounts) {
  PipelineResult R = PipelineBuilder()
                         .mode(PromotionMode::Paper)
                         .verifyStrictness(Strictness::Full)
                         .run("int g = 2; int main() { int i; i = 0; "
                              "while (i < 4) { g = g + i; i = i + 1; } "
                              "return g; }");
  ASSERT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GT(R.Verify.PassesVerified, 0u);
  EXPECT_GT(R.Verify.ChecksRun, 0u);
  EXPECT_EQ(R.Verify.Diagnostics, 0u);
  EXPECT_GE(R.Verify.WallSeconds, 0.0);
  // Every pass record carries the verified flag.
  for (const PassRecord &P : R.Passes)
    EXPECT_TRUE(P.Verified) << P.Name;
}

TEST(VerifyStatsTest, OffStrictnessSkipsVerification) {
  PipelineOptions Opts;
  Opts.VerifyEachStep = false;
  PipelineResult R =
      PipelineBuilder().options(Opts).run("int main() { return 3; }");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Verify.PassesVerified, 0u);
  EXPECT_EQ(R.Verify.ChecksRun, 0u);
}

TEST(VerifyStatsTest, FullRunsMoreChecksThanFast) {
  const char *Src = "int g = 2; int main() { int i; i = 0; "
                    "while (i < 4) { g = g + i; i = i + 1; } return g; }";
  PipelineResult Fast =
      PipelineBuilder().verifyStrictness(Strictness::Fast).run(Src);
  PipelineResult Full =
      PipelineBuilder().verifyStrictness(Strictness::Full).run(Src);
  ASSERT_TRUE(Fast.Ok);
  ASSERT_TRUE(Full.Ok);
  EXPECT_GT(Full.Verify.ChecksRun, Fast.Verify.ChecksRun);
}

} // namespace

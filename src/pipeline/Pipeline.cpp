//===- pipeline/Pipeline.cpp - End-to-end compilation driver -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"
#include "analysis/CFGCanonicalize.h"
#include "frontend/Lowering.h"
#include "ir/Module.h"
#include "pipeline/PassManager.h"
#include "profile/ProfileInfo.h"
#include "promotion/Cleanup.h"
#include "promotion/RegisterPromotion.h"
#include "regalloc/Coloring.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemoryOpt.h"
#include "ssa/MemorySSA.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include <algorithm>

using namespace srp;

namespace {
SRP_STATISTIC(NumPipelineRuns, "pipeline", "runs",
              "Pipeline executions (all modes)");
} // namespace

StaticCounts srp::countStaticMemOps(const Function &F) {
  StaticCounts C;
  for (const auto &BB : F) {
    for (const auto &I : *BB) {
      switch (I->kind()) {
      case Value::Kind::Load:
        ++C.Loads;
        break;
      case Value::Kind::Store:
        ++C.Stores;
        break;
      case Value::Kind::PtrLoad:
      case Value::Kind::PtrStore:
      case Value::Kind::ArrayLoad:
      case Value::Kind::ArrayStore:
        ++C.AliasedOps;
        break;
      default:
        break;
      }
    }
  }
  return C;
}

StaticCounts srp::countStaticMemOps(const Module &M) {
  StaticCounts C;
  for (const auto &F : M.functions()) {
    StaticCounts FC = countStaticMemOps(*F);
    C.Loads += FC.Loads;
    C.Stores += FC.Stores;
    C.AliasedOps += FC.AliasedOps;
  }
  return C;
}

PipelineResult PipelineBuilder::run(const SourceText &Source) {
  const double T0 = monotonicSeconds();
  PipelineResult R;
  auto M = compileMiniC(Source.str(), R.Errors);
  if (!M) {
    R.WallSeconds = monotonicSeconds() - T0;
    return R;
  }
  R = run(std::move(M));
  R.WallSeconds = monotonicSeconds() - T0; // include the compile
  return R;
}

PipelineResult PipelineBuilder::run(std::unique_ptr<Module> M) {
  const double T0 = monotonicSeconds();
  PipelineResult R;
  R.M = std::move(M);
  Module &Mod = *R.M;
  ++NumPipelineRuns;

  // Fresh manager per run: analyses of the previous run's module must not
  // leak into this one. The builder keeps it alive past the run so tests
  // can inspect cache state.
  AM = std::make_unique<AnalysisManager>(&Mod);
  AnalysisManager &AMRef = *AM;
  if (Opts.DisableAnalysisCache)
    AMRef.setCachingEnabled(false);

  PassManagerOptions PMOpts;
  PMOpts.VerifyEachPass = Opts.VerifyEachStep;
  PMOpts.VerifyStrictness = Opts.VerifyStrictness;
  PassManager PM(PMOpts);

  // -- Common front half: locals to SSA, canonical CFG shape. ------------
  PM.addFunctionPass(
      "mem2reg", [](Function &F, AnalysisManager &AM,
                    std::vector<std::string> &) { promoteLocalsToSSA(F, AM); });

  PM.addPass("canonicalise", [&](Module &Mod, AnalysisManager &AM,
                                 std::vector<std::string> &) {
    for (const auto &F : Mod.functions())
      canonicalize(*F, AM);
    R.StaticBefore = countStaticMemOps(Mod);
    return true;
  });

  // -- Profile run ("before" measurement doubles as the profile input). --
  PM.addPass("profile", [&](Module &Mod, AnalysisManager &AM,
                            std::vector<std::string> &Errors) {
    Interpreter Interp(Mod, 200'000'000, Opts.Interp, &AM);
    Interp.setJitThreshold(Opts.JitThreshold);
    R.RunBefore = Interp.run(Opts.EntryFunction);
    if (!R.RunBefore.Ok) {
      Errors.push_back("profile run failed: " + R.RunBefore.Error);
      return false;
    }
    // One module-wide profile for every function (the old pipeline
    // re-derived it per function inside the promotion pass).
    AM.setExecution(R.RunBefore.BlockCounts);
    return true;
  });

  // -- Mode-specific transformation stages. ------------------------------
  bool NeedsMemorySSA = Opts.Mode == PromotionMode::Paper ||
                        Opts.Mode == PromotionMode::PaperNoProfile ||
                        Opts.Mode == PromotionMode::MemOptOnly;
  if (NeedsMemorySSA)
    PM.addFunctionPass(
        "memory-ssa", [](Function &F, AnalysisManager &AM,
                         std::vector<std::string> &) {
          AM.get<MemorySSAInfo>(F);
        });

  switch (Opts.Mode) {
  case PromotionMode::None:
    break;
  case PromotionMode::Paper:
  case PromotionMode::PaperNoProfile:
    PM.addFunctionPass(
        "promotion", [&](Function &F, AnalysisManager &AM,
                         std::vector<std::string> &Errors) {
          const ProfileInfo &PI = Opts.Mode == PromotionMode::Paper
                                      ? AM.executionProfile()
                                      : AM.get<StaticFrequency>(F).Freq;
          // At Full strictness, cross-check the promoter's ledger (L4's
          // promo-count-delta): the static load/store deltas must stay
          // within what the reported replacements/insertions/deletions
          // allow.
          const bool CheckDelta =
              Opts.VerifyEachStep &&
              Opts.VerifyStrictness >= Strictness::Full;
          StaticCounts Before =
              CheckDelta ? countStaticMemOps(F) : StaticCounts{};
          const size_t LedgerBefore =
              validation::sink() ? validation::sink()->size() : 0;
          PromotionStats S = promoteRegisters(F, PI, AM, Opts.Promo);
          R.Promo += S;
          // At Semantic the promoter must have filed one validation-ledger
          // record per web it claims promoted, or the validator would
          // silently skip the cross-check for the missing webs.
          if (validation::WebLedger *L = validation::sink())
            if (L->size() - LedgerBefore != S.WebsPromoted)
              Errors.push_back(
                  "promotion ledger mismatch in '" + F.name() + "': " +
                  std::to_string(S.WebsPromoted) +
                  " web(s) reported promoted but " +
                  std::to_string(L->size() - LedgerBefore) +
                  " recorded for validation");
          if (CheckDelta) {
            StaticCounts After = countStaticMemOps(F);
            PromotionDeltaExpectation E;
            E.LoadsBefore = Before.Loads;
            E.LoadsAfter = After.Loads;
            E.LoadsReplaced = S.LoadsReplaced;
            E.LoadsInserted = S.LoadsInserted;
            E.StoresBefore = Before.Stores;
            E.StoresAfter = After.Stores;
            E.StoresDeleted = S.StoresDeleted;
            E.StoresInserted = S.StoresInserted;
            DiagnosticEngine DE;
            checkPromotionDelta(E, DE);
            for (const Diagnostic &D : DE.diagnostics())
              if (D.Severity == DiagSeverity::Error)
                Errors.push_back("promotion ledger mismatch in '" +
                                 F.name() + "': " + D.Message);
          }
        });
    break;
  case PromotionMode::LoopBaseline:
    PM.addFunctionPass(
        "promotion", [&](Function &F, AnalysisManager &AM,
                         std::vector<std::string> &) {
          R.Baseline += promoteLoopsBaseline(F, AM);
        });
    break;
  case PromotionMode::Superblock:
    PM.addFunctionPass(
        "promotion", [&](Function &F, AnalysisManager &AM,
                         std::vector<std::string> &) {
          R.Superblock += promoteSuperblocks(F, AM.executionProfile(), AM);
        });
    break;
  case PromotionMode::MemOptOnly:
    PM.addFunctionPass(
        "promotion", [](Function &F, AnalysisManager &AM,
                        std::vector<std::string> &) {
          optimizeMemorySSA(F, AM);
        });
    break;
  }

  // The promoters sweep up after themselves; this pass re-runs the
  // cleanup as an idempotent fixpoint so stragglers (dummy loads, dead
  // copies, unused memory phis) never survive into measurement.
  if (NeedsMemorySSA)
    PM.addFunctionPass(
        "cleanup", [](Function &F, AnalysisManager &AM,
                      std::vector<std::string> &) {
          cleanupAfterPromotion(F, AM);
        });

  // -- Measurement back half. --------------------------------------------
  PM.addPass("measure", [&](Module &Mod, AnalysisManager &AM,
                            std::vector<std::string> &Errors) {
    R.StaticAfter = countStaticMemOps(Mod);
    // Shares the manager with the profile pass: functions the promotion
    // stage left untouched reuse their decoded bytecode (decode-cache-hits
    // in --stats-json counts them).
    Interpreter Interp(Mod, 200'000'000, Opts.Interp, &AM);
    Interp.setJitThreshold(Opts.JitThreshold);
    R.RunAfter = Interp.run(Opts.EntryFunction);
    if (!R.RunAfter.Ok) {
      Errors.push_back("measurement run failed: " + R.RunAfter.Error);
      return false;
    }
    // Behavioural equivalence between the two runs is an invariant of
    // every mode; violations are reported as errors so tests and benches
    // notice.
    if (R.RunBefore.Output != R.RunAfter.Output)
      Errors.push_back("printed output changed across promotion");
    if (R.RunBefore.ExitValue != R.RunAfter.ExitValue)
      Errors.push_back("exit value changed across promotion");
    if (R.RunBefore.FinalMemory != R.RunAfter.FinalMemory)
      Errors.push_back("final memory state changed across promotion");
    return Errors.empty();
  });

  if (Opts.MeasurePressure)
    PM.addFunctionPass(
        "pressure", [&](Function &F, AnalysisManager &AM,
                        std::vector<std::string> &) {
          PressureReport PR = measureRegisterPressure(F, AM);
          R.Pressure.NumValues += PR.NumValues;
          R.Pressure.Edges += PR.Edges;
          R.Pressure.ColorsNeeded =
              std::max(R.Pressure.ColorsNeeded, PR.ColorsNeeded);
          R.Pressure.MaxLive = std::max(R.Pressure.MaxLive, PR.MaxLive);
          if (RemarkEngine *RE = remarks::sink())
            RE->record(
                Remark(RemarkKind::Analysis, "pressure", "RegisterPressure")
                    .inFunction(F.name())
                    .arg("num-values", PR.NumValues)
                    .arg("interference-edges", PR.Edges)
                    .arg("colors-needed", PR.ColorsNeeded)
                    .arg("max-live", PR.MaxLive));
        });

  R.Ok = PM.run(Mod, AMRef, R.Errors) && R.Errors.empty();
  R.Passes = PM.records();
  R.Analysis = AMRef.cacheStats();
  R.Verify = PM.verifyStats();
  R.WallSeconds = monotonicSeconds() - T0;
  return R;
}


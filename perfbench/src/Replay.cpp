//===- perfbench/src/Replay.cpp - Layer-by-layer traced replay ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
//
// The stages below follow the pipeline's run (pipeline/Pipeline.cpp)
// and the between-pass loop follows PassManager::run
// (pipeline/PassManager.cpp) call for call; only the spans are new.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "analysis/CFGCanonicalize.h"
#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "pipeline/Pipeline.h"
#include "profile/ProfileInfo.h"
#include "promotion/Cleanup.h"
#include "promotion/LoopPromotion.h"
#include "promotion/RegisterPromotion.h"
#include "promotion/SuperblockPromotion.h"
#include "regalloc/Coloring.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemoryOpt.h"
#include "ssa/MemorySSA.h"
#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace srp;
using namespace srp::perfbench;

namespace {

using Errors = std::vector<std::string>;

/// Span name of every registered check ("analysis.check.<id>"), in
/// registry order; spans keep the pointers.
const std::vector<std::string> &checkSpanNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const CheckInfo &CI : registeredChecks())
      N.push_back(std::string("analysis.check.") + CI.Id);
    return N;
  }();
  return Names;
}

/// One pipeline stage: the span it runs under and its body.
struct Stage {
  const char *Span;
  std::function<bool(Errors &)> Run;
};

/// PassManager::addFunctionPass: runs \p Fn on every function, drops
/// what it did not preserve, and stops at the first new error.
template <class FnT>
bool forEachFunction(Module &M, AnalysisManager &AM, Errors &E, FnT Fn) {
  const size_t Before = E.size();
  for (const auto &F : M.functions()) {
    PreservedAnalyses PA = Fn(*F);
    AM.invalidate(*F, PA);
    if (E.size() > Before)
      return false;
  }
  return true;
}

/// runChecks(M, DE, Level, &AM), gating each registered check exactly as
/// runChecks does, with a span around every check that runs. Returns the
/// number of checks run.
uint64_t runChecksTraced(Module &M, DiagnosticEngine &DE, Strictness Level,
                         AnalysisManager &AM, Tracer &T) {
  const std::vector<CheckInfo> &Checks = registeredChecks();
  const std::vector<std::string> &Names = checkSpanNames();
  uint64_t Run = 0;
  for (const auto &FPtr : M.functions()) {
    Function &F = *FPtr;
    const unsigned ErrorsBefore = DE.errors();
    CheckContext Ctx{F, DE, &AM, nullptr, false};
    bool GateDone = false, Stop = false;
    for (size_t I = 0; I != Checks.size(); ++I) {
      const CheckInfo &CI = Checks[I];
      if (static_cast<uint8_t>(CI.MinLevel) > static_cast<uint8_t>(Level))
        continue;
      if (CI.Layer != CheckLayer::L0_CFG) {
        if (!GateDone) {
          GateDone = true;
          if (F.empty() || DE.errors() != ErrorsBefore) {
            Stop = true;
          } else {
            Ctx.DT = &AM.get<DominatorTree>(F);
            Ctx.MemorySSAPresent = !F.memoryNames().empty();
          }
        }
        if (Stop)
          break;
        if (CI.NeedsMemorySSA && !Ctx.MemorySSAPresent)
          continue;
        if (CI.NeedsCanonicalCFG && !AM.isCanonical(F))
          continue;
      }
      {
        SpanScope S(T, Names[I].c_str());
        CI.Run(Ctx);
      }
      ++Run;
    }
  }
  return Run;
}

/// Interpreter::run as the profile and measure passes call it. The run's
/// own decode and JIT-compile seconds become children of the open span.
ExecutionResult execute(Module &M, AnalysisManager &AM,
                        const PipelineOptions &Opts, Tracer &T) {
  Interpreter Interp(M, 200'000'000, Opts.Interp, &AM);
  Interp.setJitThreshold(Opts.JitThreshold);
  ExecutionResult R = Interp.run(Opts.EntryFunction);
  T.addMeasuredChild("interp.decode", R.Interp.DecodeSeconds);
  T.addMeasuredChild("jit.compile", R.Interp.CompileSeconds);
  return R;
}

/// The stages of one job, as pipeline/Pipeline.cpp registers its passes.
/// They fill \p St's fields as the pipeline fills its result's.
std::vector<Stage> buildStages(Module &Mod, AnalysisManager &AM,
                               const PipelineOptions &Opts, Strictness Level,
                               PipelineResult &St, Tracer &T) {
  std::vector<Stage> Stages;
  Stages.push_back({"ssa.mem2reg", [&](Errors &E) {
                      return forEachFunction(Mod, AM, E, [&](Function &F) {
                        promoteLocalsToSSA(F, AM);
                        return PreservedAnalyses::all();
                      });
                    }});
  Stages.push_back({"analysis.canonicalize", [&](Errors &) {
                      for (const auto &F : Mod.functions())
                        canonicalize(*F, AM);
                      St.StaticBefore = countStaticMemOps(Mod);
                      return true;
                    }});
  Stages.push_back({"interp.profile", [&](Errors &E) {
                      St.RunBefore = execute(Mod, AM, Opts, T);
                      if (!St.RunBefore.Ok) {
                        E.push_back("profile run failed: " +
                                    St.RunBefore.Error);
                        return false;
                      }
                      AM.setExecution(St.RunBefore.BlockCounts);
                      return true;
                    }});

  const bool NeedsMemorySSA = Opts.Mode == PromotionMode::Paper ||
                              Opts.Mode == PromotionMode::PaperNoProfile ||
                              Opts.Mode == PromotionMode::MemOptOnly;
  if (NeedsMemorySSA)
    Stages.push_back({"ssa.memssa", [&](Errors &E) {
                        return forEachFunction(Mod, AM, E, [&](Function &F) {
                          AM.get<MemorySSAInfo>(F);
                          return PreservedAnalyses::all();
                        });
                      }});

  const PreservedAnalyses Kept = PreservedAnalyses::all();
  const PreservedAnalyses Recode =
      PreservedAnalyses::all().abandon(AnalysisKind::Bytecode);
  std::function<PreservedAnalyses(Function &, Errors &)> Promote;
  switch (Opts.Mode) {
  case PromotionMode::None:
    break;
  case PromotionMode::Paper:
  case PromotionMode::PaperNoProfile:
    Promote = [&, Kept, Recode, Level](Function &F, Errors &E) {
      const ProfileInfo &PI = Opts.Mode == PromotionMode::Paper
                                  ? AM.executionProfile()
                                  : AM.get<StaticFrequency>(F).Freq;
      const bool CheckDelta = Level >= Strictness::Full;
      StaticCounts Before = CheckDelta ? countStaticMemOps(F) : StaticCounts{};
      const size_t LedgerBefore =
          validation::sink() ? validation::sink()->size() : 0;
      PromotionStats S = promoteRegisters(F, PI, AM, Opts.Promo);
      St.Promo += S;
      if (validation::WebLedger *L = validation::sink())
        if (L->size() - LedgerBefore != S.WebsPromoted)
          E.push_back("promotion ledger mismatch in '" + F.name() + "'");
      const bool Edited = S.LoadsReplaced || S.LoadsInserted ||
                          S.StoresInserted || S.StoresDeleted ||
                          S.DummyLoadsInserted || S.RegisterPhisCreated;
      if (CheckDelta) {
        StaticCounts After = countStaticMemOps(F);
        PromotionDeltaExpectation X;
        X.LoadsBefore = Before.Loads;
        X.LoadsAfter = After.Loads;
        X.LoadsReplaced = S.LoadsReplaced;
        X.LoadsInserted = S.LoadsInserted;
        X.StoresBefore = Before.Stores;
        X.StoresAfter = After.Stores;
        X.StoresDeleted = S.StoresDeleted;
        X.StoresInserted = S.StoresInserted;
        DiagnosticEngine DE;
        checkPromotionDelta(X, DE);
        for (const Diagnostic &D : DE.diagnostics())
          if (D.Severity == DiagSeverity::Error)
            E.push_back("promotion ledger mismatch in '" + F.name() +
                        "': " + D.Message);
      }
      return Edited ? Recode : Kept;
    };
    break;
  case PromotionMode::LoopBaseline:
    Promote = [&, Kept, Recode](Function &F, Errors &) {
      LoopPromotionStats S = promoteLoopsBaseline(F, AM);
      St.Baseline += S;
      return S.VariablesPromoted ? Recode : Kept;
    };
    break;
  case PromotionMode::Superblock:
    Promote = [&, Kept, Recode](Function &F, Errors &) {
      SuperblockStats S = promoteSuperblocks(F, AM.executionProfile(), AM);
      St.Superblock += S;
      return S.TracesFormed || S.VariablesPromoted ? Recode : Kept;
    };
    break;
  case PromotionMode::MemOptOnly:
    Promote = [&, Kept, Recode](Function &F, Errors &) {
      return optimizeMemorySSA(F, AM).total() ? Recode : Kept;
    };
    break;
  }
  if (Promote)
    Stages.push_back({"promotion.promote", [&, Promote](Errors &E) {
                        return forEachFunction(Mod, AM, E, [&](Function &F) {
                          return Promote(F, E);
                        });
                      }});

  if (NeedsMemorySSA)
    Stages.push_back(
        {"promotion.cleanup", [&, Kept, Recode](Errors &E) {
           return forEachFunction(Mod, AM, E, [&](Function &F) {
             CleanupStats S = cleanupAfterPromotion(F, AM);
             return S.DummyLoadsRemoved || S.CopiesPropagated ||
                            S.DeadInstructionsRemoved || S.DeadMemPhisRemoved
                        ? Recode
                        : Kept;
           });
         }});

  Stages.push_back({"interp.measure", [&](Errors &E) {
                      St.StaticAfter = countStaticMemOps(Mod);
                      St.RunAfter = execute(Mod, AM, Opts, T);
                      if (!St.RunAfter.Ok) {
                        E.push_back("measurement run failed: " +
                                    St.RunAfter.Error);
                        return false;
                      }
                      if (St.RunBefore.Output != St.RunAfter.Output)
                        E.push_back("printed output changed across promotion");
                      if (St.RunBefore.ExitValue != St.RunAfter.ExitValue)
                        E.push_back("exit value changed across promotion");
                      if (St.RunBefore.FinalMemory != St.RunAfter.FinalMemory)
                        E.push_back(
                            "final memory state changed across promotion");
                      return E.empty();
                    }});

  if (Opts.MeasurePressure)
    Stages.push_back({"regalloc.pressure", [&](Errors &E) {
                        return forEachFunction(Mod, AM, E, [&](Function &F) {
                          PressureReport PR = measureRegisterPressure(F, AM);
                          St.Pressure.NumValues += PR.NumValues;
                          St.Pressure.Edges += PR.Edges;
                          St.Pressure.ColorsNeeded = std::max(
                              St.Pressure.ColorsNeeded, PR.ColorsNeeded);
                          St.Pressure.MaxLive =
                              std::max(St.Pressure.MaxLive, PR.MaxLive);
                          return PreservedAnalyses::all();
                        });
                      }});
  return Stages;
}

/// One iteration of PassManager::run's loop: pre-pass printing and
/// snapshot, the stage, verification, translation validation.
bool runStage(const Stage &S, Module &M, AnalysisManager &AM,
              Strictness Level, PipelineResult &St, ReplayResult &Out,
              Tracer &T) {
  Errors &E = Out.Errors;
  std::unordered_map<std::string, std::string> PreText;
  if (Level >= Strictness::Full) {
    SpanScope P(T, "ir.print");
    for (const auto &F : M.functions())
      PreText.emplace(F->name(), toString(*F));
    Out.FunctionsPrinted += M.functions().size();
  }
  std::unique_ptr<Module> PreClone;
  validation::WebLedger Ledger;
  if (Level >= Strictness::Semantic) {
    SpanScope C(T, "analysis.validate_clone");
    PreClone = cloneModule(M);
  }

  bool Ok;
  {
    std::optional<validation::ScopedWebLedger> LG;
    if (Level >= Strictness::Semantic)
      LG.emplace(Ledger);
    SpanScope P(T, S.Span);
    Ok = S.Run(E);
  }
  if (!Ok) {
    if (E.empty())
      E.push_back(std::string("stage '") + S.Span + "' failed");
    return false;
  }

  if (Level != Strictness::Off) {
    DiagnosticEngine DE;
    {
      SpanScope V(T, "analysis.verify");
      St.Verify.ChecksRun += runChecksTraced(M, DE, Level, AM, T);
    }
    if (DE.hasErrors()) {
      for (const Diagnostic &D : DE.diagnostics())
        if (D.Severity == DiagSeverity::Error)
          E.push_back(std::string("after '") + S.Span + "': " + toText(D));
      return false;
    }
  }

  if (Level >= Strictness::Semantic) {
    std::unordered_set<std::string> Changed;
    {
      SpanScope P(T, "ir.print");
      for (const auto &F : M.functions()) {
        auto It = PreText.find(F->name());
        if (It == PreText.end()) {
          Changed.insert(F->name());
          continue;
        }
        ++Out.FunctionsPrinted;
        if (It->second != toString(*F))
          Changed.insert(F->name());
      }
    }
    for (const auto &[Name, Text] : PreText)
      if (!M.getFunction(Name))
        Changed.insert(Name);
    if (Changed.empty() && Ledger.size() == 0)
      return true;
    DiagnosticEngine VDE;
    std::unique_ptr<Module> PostClone;
    {
      SpanScope C(T, "analysis.validate_clone");
      PostClone = cloneModule(M);
    }
    bool Proven;
    {
      SpanScope P(T, "analysis.validate_prove");
      Proven = validateTranslation(*PreClone, *PostClone, Ledger.records(),
                                   VDE, St.Verify.Validation, &Changed);
    }
    if (!Proven) {
      for (const Diagnostic &D : VDE.diagnostics())
        if (D.Severity == DiagSeverity::Error)
          E.push_back(std::string("after '") + S.Span + "': " + toText(D));
      return false;
    }
  }
  return true;
}

void replayStages(const CompileJob &Job, Tracer &T, ReplayResult &Out) {
  const PipelineOptions &Opts = Job.Opts;
  std::unique_ptr<Module> M;
  {
    SpanScope S(T, "frontend");
    M = compileMiniC(Job.Source.str(), Out.Errors);
  }
  if (!M)
    return;
  for (const auto &F : M->functions())
    for (const auto &BB : *F)
      Out.IrInsts += BB->size();

  AnalysisManager AM(M.get());
  if (Opts.DisableAnalysisCache)
    AM.setCachingEnabled(false);
  const Strictness Level =
      Opts.VerifyEachStep ? Opts.VerifyStrictness : Strictness::Off;
  PipelineResult St;
  bool Ok = true;
  for (const Stage &S : buildStages(*M, AM, Opts, Level, St, T))
    if (!(Ok = runStage(S, *M, AM, Level, St, Out, T)))
      break;
  Out.Ok = Ok && Out.Errors.empty();

  Out.C = countersOf(St);
  Out.Output = St.RunAfter.Output;
  Out.ExitValue = St.RunAfter.ExitValue;
  Out.MemoryHash = finalMemoryHash(St.RunAfter);
  Out.WebsConsidered = St.Promo.WebsConsidered;
  Out.PaperWebsPromoted = St.Promo.WebsPromoted;
  for (const ExecutionResult *Run : {&St.RunBefore, &St.RunAfter}) {
    Out.FunctionsDecoded += Run->Interp.FunctionsDecoded;
    Out.DecodeCacheHits += Run->Interp.DecodeCacheHits;
    Out.FunctionsCompiled += Run->Interp.FunctionsCompiled;
    Out.Deopts += Run->Interp.Deopts;
  }
  Out.Analysis = AM.cacheStats();
  Out.Validation = St.Verify.Validation;
}

} // namespace

ReplayResult srp::perfbench::replayJob(const CompileJob &Job, Tracer &T) {
  ReplayResult Out;
  const size_t Root = T.spans().size();
  {
    SpanScope S(T, "job");
    replayStages(Job, T, Out);
  }
  Out.WallSeconds = T.spans()[Root].End - T.spans()[Root].Start;
  return Out;
}

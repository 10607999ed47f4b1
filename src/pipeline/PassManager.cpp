//===- pipeline/PassManager.cpp - Instrumented pass sequencing ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "pipeline/PassManager.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/JSON.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace srp;

namespace {
SRP_STATISTIC(NumPassesRun, "pipeline", "passes-run",
              "Passes executed across all pipeline runs");
SRP_STATISTIC(NumVerifyFailures, "pipeline", "verify-failures",
              "Post-pass verifier failures across all pipeline runs");
SRP_HISTOGRAM(PassMicros, "pipeline", "pass-micros",
              "Wall time of one pass execution (us)");
} // namespace

void PassManager::addPass(std::string Name, ModulePassFn Fn) {
  Passes.emplace_back(std::move(Name), std::move(Fn));
}

void PassManager::addFunctionPass(std::string Name, FunctionPassFn Fn) {
  addPass(std::move(Name),
          ModulePassFn([Fn = std::move(Fn)](Module &M, AnalysisManager &AM,
                                            std::vector<std::string> &Errors) {
            const size_t Before = Errors.size();
            for (const auto &F : M.functions()) {
              Fn(*F, AM, Errors);
              if (Errors.size() > Before)
                return false;
            }
            return true;
          }));
}

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> Names;
  Names.reserve(Passes.size());
  for (const auto &[Name, Fn] : Passes)
    Names.push_back(Name);
  return Names;
}

bool PassManager::run(Module &M, AnalysisManager &AM,
                      std::vector<std::string> &Errors) {
  VStats = VerifyRunStats{};
  Records.clear();
  Records.reserve(Passes.size());
  for (const auto &[Name, Fn] : Passes)
    Records.push_back(PassRecord{Name, 0, false, false, false, 0});

  const Strictness Level = Opts.effectiveStrictness();
  // At Semantic, the text of every function and a snapshot of the module
  // roll across the loop: nothing touches the module between one pass's
  // post-pass print and clone and the next pass, so those are the next
  // pass's pre-pass text and snapshot. The text detects which functions a
  // pass touched (only those are translation-validated) and lets a failure
  // dump show the IR the pass started from next to what it produced; the
  // snapshot is what the pass is proven against. The snapshot carries the
  // analyses the validation that cloned it built on it, which the next
  // validation reuses on its pre-pass side.
  std::unordered_map<std::string, std::string> PreText;
  std::unique_ptr<Module> PreClone;
  SnapshotAnalyses PreAnalyses;
  if (Level >= Strictness::Semantic) {
    for (const auto &F : M.functions())
      PreText.emplace(F->name(), toString(*F));
    ScopedTimer T(VStats.Validation.WallSeconds);
    PreClone = cloneModule(M);
  }

  for (size_t I = 0; I != Passes.size(); ++I) {
    PassRecord &Rec = Records[I];
    Rec.Ran = true;
    ++NumPassesRun;

    // The pass's promoted-web reports, for the post-pass cross-check.
    validation::WebLedger Ledger;
    bool PassOk;
    {
      std::optional<validation::ScopedWebLedger> LG;
      if (Level >= Strictness::Semantic)
        LG.emplace(Ledger);
      TraceSpan Span;
      if (trace::enabled())
        Span.begin("pass", Rec.Name);
      ScopedTimer T(Rec.WallSeconds);
      PassOk = Passes[I].second(M, AM, Errors);
    }
    PassMicros.observeSeconds(Rec.WallSeconds);
    if (!PassOk) {
      Rec.Failed = true;
      // Make sure an aborting pass left at least one attributed message.
      if (Errors.empty())
        Errors.push_back("pass '" + Rec.Name + "' failed");
      return false;
    }

    // At Full strictness and above (the fuzz sweep's setting) a failure
    // also dumps what the pass left behind in the offending functions —
    // and, at Semantic, the IR it started from — so a seed failure is
    // diagnosable from the error list alone.
    auto DumpBroken = [&](const std::unordered_set<std::string> &BrokenFns) {
      if (Level < Strictness::Full)
        return;
      for (const auto &F : M.functions()) {
        if (!BrokenFns.count(F->name()))
          continue;
        auto It = PreText.find(F->name());
        if (It != PreText.end())
          Errors.push_back("after pass '" + Rec.Name +
                           "': IR of function '" + F->name() +
                           "' before the pass:\n" + It->second);
        Errors.push_back("after pass '" + Rec.Name + "': IR of function '" +
                         F->name() + "':\n" + toString(*F));
      }
    };
    auto Attribute = [&](const DiagnosticEngine &DE) {
      ++NumVerifyFailures;
      std::unordered_set<std::string> BrokenFns;
      for (const Diagnostic &D : DE.diagnostics())
        if (D.Severity == DiagSeverity::Error) {
          Errors.push_back("after pass '" + Rec.Name + "': " + toText(D));
          if (!D.Loc.Function.empty())
            BrokenFns.insert(D.Loc.Function);
        }
      DumpBroken(BrokenFns);
    };

    if (Level != Strictness::Off) {
      Rec.Verified = true;
      DiagnosticEngine DE;
      CheckRunStats CS;
      {
        TraceSpan Span;
        if (trace::enabled())
          Span.begin("verify", "verify:" + Rec.Name);
        ScopedTimer T(VStats.WallSeconds);
        CS = runChecks(M, DE, Level, &AM);
      }
      ++VStats.PassesVerified;
      VStats.ChecksRun += CS.ChecksRun;
      VStats.Diagnostics += CS.Diagnostics;
      Rec.VerifyErrors = DE.errors();
      if (DE.hasErrors()) {
        Attribute(DE);
        return false;
      }
    }

    // Translation validation: prove the post-pass module equivalent to the
    // pre-pass snapshot. Only well-formed IR is compared (the structural
    // checks above passed), and only functions whose text changed.
    if (Level >= Strictness::Semantic) {
      std::unordered_map<std::string, std::string> PostText;
      std::unordered_set<std::string> Changed;
      for (const auto &F : M.functions()) {
        std::string Text = toString(*F);
        auto It = PreText.find(F->name());
        if (It == PreText.end() || It->second != Text)
          Changed.insert(F->name());
        PostText.emplace(F->name(), std::move(Text));
      }
      for (const auto &[Name, Text] : PreText)
        if (!M.getFunction(Name))
          Changed.insert(Name);
      if (Changed.empty() && Ledger.size() == 0) {
        // Nothing to prove, and the snapshot still matches the module.
        VStats.Validation.FunctionsSkippedIdentical += M.functions().size();
      } else {
        DiagnosticEngine VDE;
        bool Proven;
        std::unique_ptr<Module> PostClone;
        {
          TraceSpan Span;
          if (trace::enabled())
            Span.begin("verify", "validate:" + Rec.Name);
          ScopedTimer T(VStats.Validation.WallSeconds);
          PostClone = cloneModule(M);
          // Afterwards PreAnalyses holds what this validation built on
          // PostClone, the next snapshot.
          Proven = validateTranslation(*PreClone, *PostClone,
                                       Ledger.records(), VDE,
                                       VStats.Validation, &Changed,
                                       &PreAnalyses);
        }
        ++VStats.Validation.PassesValidated;
        VStats.Diagnostics += VDE.diagnostics().size();
        if (!Proven) {
          Rec.VerifyErrors += VDE.errors();
          Attribute(VDE);
          return false;
        }
        PreClone = std::move(PostClone);
      }
      // Roll only now: a failure above still dumps the pre-pass text.
      PreText = std::move(PostText);
    }
  }
  return true;
}

std::string srp::passRecordsToJson(const std::vector<PassRecord> &Records,
                                   unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  std::string Inner(Indent * 2 + 2, ' ');
  std::ostringstream OS;
  OS << "[";
  bool First = true;
  for (const PassRecord &R : Records) {
    OS << (First ? "\n" : ",\n") << Inner << "{\"name\": \""
       << json::escape(R.Name) << "\", \"wall_seconds\": ";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.9f", R.WallSeconds);
    OS << Buf << ", \"ran\": " << (R.Ran ? "true" : "false")
       << ", \"verified\": " << (R.Verified ? "true" : "false")
       << ", \"verify_errors\": " << R.VerifyErrors << "}";
    First = false;
  }
  if (!First)
    OS << "\n" << Pad;
  OS << "]";
  return OS.str();
}

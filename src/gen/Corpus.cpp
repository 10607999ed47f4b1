//===- gen/Corpus.cpp - Differential fuzzing corpus harness ---------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "gen/Corpus.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "support/Remarks.h"
#include <algorithm>
#include <sstream>

using namespace srp;
using namespace srp::gen;

//===----------------------------------------------------------------------===
// Coverage accounting.
//===----------------------------------------------------------------------===

uint64_t CoverageCounts::promoter(const std::string &Key) const {
  auto It = Promoters.find(Key);
  return It == Promoters.end() ? 0 : It->second;
}

uint64_t CoverageCounts::rejection(const std::string &Key) const {
  auto It = Rejections.find(Key);
  return It == Rejections.end() ? 0 : It->second;
}

void CoverageCounts::merge(const CoverageCounts &O) {
  for (const auto &[K, V] : O.Promoters)
    Promoters[K] += V;
  for (const auto &[K, V] : O.Rejections)
    Rejections[K] += V;
  AnalysisRemarks += O.AnalysisRemarks;
}

std::vector<std::string> CoverageCounts::missingRequired() const {
  std::vector<std::string> Missing;
  for (const std::string &K : requiredPromoters())
    if (!promoter(K))
      Missing.push_back(K);
  for (const std::string &K : requiredRejections())
    if (!rejection(K))
      Missing.push_back(K);
  return Missing;
}

const std::vector<std::string> &srp::gen::requiredPromoters() {
  static const std::vector<std::string> Keys = {
      "promotion:PromotedWeb",
      "mem2reg:PromotedLocal",
      "loop-promotion:PromotedVariable",
      "superblock:PromotedTraceVariable",
  };
  return Keys;
}

const std::vector<std::string> &srp::gen::requiredRejections() {
  static const std::vector<std::string> Keys = {
      "promotion:NoMemoryWork",
      "promotion:UnprofitableWeb",
      "promotion:StoresOnlyNotEliminated",
      "promotion:MultipleLiveIns",
  };
  return Keys;
}

ShapeProfile srp::gen::profileForCoverageKey(const std::string &Key) {
  // Which generation shape most reliably produces each remark: the
  // steering table the feedback loop consults for under-exercised keys.
  if (Key == "promotion:MultipleLiveIns")
    return ShapeProfile::MultiLiveIn;
  if (Key == "promotion:StoresOnlyNotEliminated")
    return ShapeProfile::GuardedStores;
  if (Key == "promotion:NoMemoryWork")
    return ShapeProfile::CallHeavy;
  if (Key == "promotion:UnprofitableWeb")
    return ShapeProfile::Aliased;
  if (Key == "loop-promotion:AmbiguousRef")
    return ShapeProfile::Aliased;
  if (Key == "superblock:PromotedTraceVariable")
    return ShapeProfile::GuardedStores;
  if (Key == "promotion:PromotedWeb" ||
      Key == "loop-promotion:PromotedVariable")
    return ShapeProfile::DeepLoops;
  return ShapeProfile::Default; // mem2reg:PromotedLocal and anything else
}

//===----------------------------------------------------------------------===
// Execution-result comparison.
//===----------------------------------------------------------------------===

namespace {

std::string joinErrors(const PipelineResult &R) {
  std::string S;
  for (const std::string &E : R.Errors) {
    if (!S.empty())
      S += "; ";
    S += E;
  }
  return S.empty() ? "(no error text)" : S;
}

bool countsEqual(const DynamicCounts &A, const DynamicCounts &B) {
  return A.SingletonLoads == B.SingletonLoads &&
         A.SingletonStores == B.SingletonStores &&
         A.AliasedLoads == B.AliasedLoads &&
         A.AliasedStores == B.AliasedStores && A.Copies == B.Copies &&
         A.Instructions == B.Instructions;
}

std::string blockKey(const BasicBlock *BB) {
  return (BB->parent() ? BB->parent()->name() : std::string("?")) + "." +
         BB->name();
}

std::map<std::string, uint64_t>
blockCountsByName(const ExecutionResult &R) {
  std::map<std::string, uint64_t> M;
  for (const auto &[BB, N] : R.BlockCounts)
    M[blockKey(BB)] += N;
  return M;
}

std::map<std::string, uint64_t> edgeCountsByName(const ExecutionResult &R) {
  std::map<std::string, uint64_t> M;
  for (const auto &[From, Row] : R.EdgeCounts)
    for (const auto &[To, N] : Row)
      M[blockKey(From) + "->" + blockKey(To)] += N;
  return M;
}

/// First differing observable field between two runs of the *same* module
/// shape, "" if none. \p Profile also compares dynamic counts and the
/// block/edge profiles (engine parity); the cross-mode oracle must not —
/// promotion changes those by design.
std::string diffRuns(const ExecutionResult &A, const ExecutionResult &B,
                     bool Profile, std::string &Detail) {
  if (A.Ok != B.Ok) {
    Detail = std::string("ok ") + (A.Ok ? "true" : "false") + " vs " +
             (B.Ok ? "true" : "false") + " (" + (A.Ok ? B.Error : A.Error) +
             ")";
    return "ok";
  }
  if (!A.Ok)
    return ""; // both failed the same way observably
  if (A.ExitValue != B.ExitValue) {
    Detail = "exit " + std::to_string(A.ExitValue) + " vs " +
             std::to_string(B.ExitValue);
    return "exit";
  }
  if (A.Output != B.Output) {
    size_t I = 0;
    while (I < A.Output.size() && I < B.Output.size() &&
           A.Output[I] == B.Output[I])
      ++I;
    Detail = "output diverges at index " + std::to_string(I) + " (sizes " +
             std::to_string(A.Output.size()) + " vs " +
             std::to_string(B.Output.size()) + ")";
    return "output";
  }
  if (A.FinalMemory != B.FinalMemory) {
    Detail = "final memory differs";
    for (const auto &[Obj, Cells] : A.FinalMemory) {
      auto It = B.FinalMemory.find(Obj);
      if (It == B.FinalMemory.end() || It->second != Cells) {
        Detail = "final memory differs at object #" + std::to_string(Obj);
        break;
      }
    }
    return "memory";
  }
  if (Profile) {
    if (!countsEqual(A.Counts, B.Counts)) {
      Detail = "dynamic counts differ (instructions " +
               std::to_string(A.Counts.Instructions) + " vs " +
               std::to_string(B.Counts.Instructions) + ", memops " +
               std::to_string(A.Counts.memOps()) + " vs " +
               std::to_string(B.Counts.memOps()) + ")";
      return "counts";
    }
    if (blockCountsByName(A) != blockCountsByName(B)) {
      Detail = "block profile differs";
      return "block-counts";
    }
    if (edgeCountsByName(A) != edgeCountsByName(B)) {
      Detail = "edge profile differs";
      return "edge-counts";
    }
  }
  return "";
}

/// Job layout per program: the six modes on the bytecode engine, then
/// (with EngineParity) the control and paper modes again on the walker,
/// then (with NativeParity) the same two on the native engine.
unsigned jobsPerProgram(const CheckOptions &O) {
  return 6 + (O.EngineParity ? 2 : 0) + (O.NativeParity ? 2 : 0);
}

/// The strictness the sweep actually runs at: Semantic piggybacks on Full
/// (the translation validator needs the structural checks to have passed
/// before it compares the snapshots).
Strictness appliedStrictness(const CheckOptions &O) {
  return O.Semantic && O.Verify == Strictness::Full ? Strictness::Semantic
                                                    : O.Verify;
}

void appendJobs(std::vector<CompileJob> &Jobs, const SourceText &Source,
                const CheckOptions &O, const std::string &Label) {
  PipelineOptions Base;
  Base.VerifyEachStep = O.VerifyEachStep;
  Base.VerifyStrictness = appliedStrictness(O);
  Base.MeasurePressure = false; // coloring is dead weight for the oracle
  auto push = [&](std::string Name, const PipelineOptions &PO) {
    CompileJob Job;
    Job.Name = std::move(Name);
    Job.Source = Source;
    Job.Opts = PO;
    Jobs.push_back(std::move(Job));
  };
  for (PromotionMode M : allPromotionModes()) {
    PipelineOptions PO = Base;
    PO.Mode = M;
    PO.Interp = InterpEngine::Bytecode;
    push(Label + "/" + promotionModeName(M), PO);
  }
  if (O.EngineParity)
    for (PromotionMode M : {PromotionMode::None, PromotionMode::Paper}) {
      PipelineOptions PO = Base;
      PO.Mode = M;
      PO.Interp = InterpEngine::Walk;
      push(Label + "/" + promotionModeName(M) + "@walk", PO);
    }
  if (O.NativeParity)
    for (PromotionMode M : {PromotionMode::None, PromotionMode::Paper}) {
      PipelineOptions PO = Base;
      PO.Mode = M;
      PO.Interp = InterpEngine::Native;
      PO.JitThreshold = 1; // force the JIT path, no warm-up calls
      push(Label + "/" + promotionModeName(M) + "@native", PO);
    }
}

/// Evaluates the results slice for one program (starting at \p Base).
CheckResult evaluateProgram(const std::vector<PipelineResult> &R,
                            size_t Base, const CheckOptions &O) {
  CheckResult C;
  auto Fail = [&C](std::string Sig, std::string Detail) {
    C.Ok = false;
    C.Signature = std::move(Sig);
    C.Detail = std::move(Detail);
    return C;
  };

  // A failed pipeline whose error list carries a translation-validation
  // check ("[trans-...]") gets its own stable signature: the validator
  // refuted (or could not prove) a pass, which the reducer shrinks
  // separately from ordinary pipeline failures.
  const auto SemanticFailure = [](const PipelineResult &RM) {
    for (const std::string &E : RM.Errors)
      if (E.find("[trans-") != std::string::npos)
        return true;
    return false;
  };

  const auto &Modes = allPromotionModes();
  const PipelineResult &Control = R[Base];
  if (!Control.Ok)
    return Fail(SemanticFailure(Control) ? "semantic-validation:none"
                                         : "pipeline-error:none",
                joinErrors(Control));
  if (!Control.RunAfter.Ok)
    return Fail("run-error:none", Control.RunAfter.Error);

  for (size_t I = 0; I != Modes.size(); ++I) {
    const PipelineResult &RM = R[Base + I];
    const char *Name = promotionModeName(Modes[I]);
    if (!RM.Ok)
      return Fail(std::string(SemanticFailure(RM) ? "semantic-validation:"
                                                  : "pipeline-error:") +
                      Name,
                  joinErrors(RM));
    unsigned VerifyErrors = 0;
    for (const PassRecord &P : RM.Passes)
      VerifyErrors += P.VerifyErrors;
    if (VerifyErrors)
      return Fail(std::string("verify-errors:") + Name,
                  std::to_string(VerifyErrors) + " verifier errors");
    if (RM.Verify.Diagnostics)
      return Fail(std::string("verify-diagnostics:") + Name,
                  std::to_string(RM.Verify.Diagnostics) +
                      " static-analysis diagnostics at " +
                      strictnessName(appliedStrictness(O)) + " strictness");
    if (I == 0)
      continue;
    // The shared pre-promotion baseline must match the control exactly
    // (same module shape: mem2reg + canonicalisation only).
    std::string Detail;
    std::string Field =
        diffRuns(Control.RunBefore, RM.RunBefore, /*Profile=*/true, Detail);
    if (!Field.empty())
      return Fail(std::string("baseline-mismatch:") + Name + ":" + Field,
                  Detail);
    // The oracle proper: observable behaviour after promotion.
    Field =
        diffRuns(Control.RunAfter, RM.RunAfter, /*Profile=*/false, Detail);
    if (!Field.empty())
      return Fail(std::string("oracle-mismatch:") + Name + ":" + Field,
                  Detail);
  }

  if (O.EngineParity) {
    const std::pair<size_t, const char *> Parity[] = {{0, "none"},
                                                      {1, "paper"}};
    for (size_t P = 0; P != 2; ++P) {
      const PipelineResult &Walk = R[Base + Modes.size() + P];
      const PipelineResult &Byte = R[Base + Parity[P].first];
      const char *Name = Parity[P].second;
      if (!Walk.Ok)
        return Fail(std::string("pipeline-error:") + Name + "@walk",
                    joinErrors(Walk));
      std::string Detail;
      std::string Field = diffRuns(Byte.RunBefore, Walk.RunBefore,
                                   /*Profile=*/true, Detail);
      if (!Field.empty())
        return Fail(std::string("engine-parity:") + Name + ":before-" +
                        Field,
                    Detail);
      Field = diffRuns(Byte.RunAfter, Walk.RunAfter, /*Profile=*/true,
                       Detail);
      if (!Field.empty())
        return Fail(std::string("engine-parity:") + Name + ":" + Field,
                    Detail);
    }
  }

  if (O.NativeParity) {
    const size_t NBase = Base + Modes.size() + (O.EngineParity ? 2 : 0);
    const std::pair<size_t, const char *> Parity[] = {{0, "none"},
                                                      {1, "paper"}};
    for (size_t P = 0; P != 2; ++P) {
      const PipelineResult &Nat = R[NBase + P];
      const PipelineResult &Byte = R[Base + Parity[P].first];
      const char *Name = Parity[P].second;
      if (!Nat.Ok)
        return Fail(std::string("pipeline-error:") + Name + "@native",
                    joinErrors(Nat));
      std::string Detail;
      std::string Field = diffRuns(Byte.RunBefore, Nat.RunBefore,
                                   /*Profile=*/true, Detail);
      if (!Field.empty())
        return Fail(std::string("native-parity:") + Name + ":before-" +
                        Field,
                    Detail);
      Field = diffRuns(Byte.RunAfter, Nat.RunAfter, /*Profile=*/true,
                       Detail);
      if (!Field.empty())
        return Fail(std::string("native-parity:") + Name + ":" + Field,
                    Detail);
    }
  }
  return C;
}

void accumulateCoverage(CoverageCounts &Cov,
                        const std::vector<Remark> &Remarks) {
  for (const Remark &R : Remarks) {
    std::string Key = R.Pass + ":" + R.Name;
    switch (R.Kind) {
    case RemarkKind::Passed:
      ++Cov.Promoters[Key];
      break;
    case RemarkKind::Missed:
      ++Cov.Rejections[Key];
      break;
    case RemarkKind::Analysis:
      ++Cov.AnalysisRemarks;
      break;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===
// Public entry points.
//===----------------------------------------------------------------------===

CheckResult srp::gen::checkSource(const std::string &Source,
                                  const CheckOptions &Opts) {
  std::vector<CompileJob> Jobs;
  appendJobs(Jobs, SourceText(Source), Opts, "check");
  std::vector<PipelineResult> Results =
      runPipelineParallel(Jobs, Opts.Threads);
  return evaluateProgram(Results, 0, Opts);
}

CorpusReport srp::gen::runCorpus(const CorpusOptions &Opts,
                                 const CorpusProgressFn &Progress) {
  CorpusReport Report;
  unsigned JPP = jobsPerProgram(Opts.Check);
  unsigned BatchSize = std::max(1u, Opts.BatchSize);
  unsigned Done = 0;
  while (Done < Opts.Count && Report.Failures.size() < Opts.MaxFailures) {
    unsigned N = std::min(BatchSize, Opts.Count - Done);

    // Pick (seed, profile) pairs. With feedback on, every other slot is
    // steered toward a shape whose required coverage key has not fired
    // yet; the rest follow the deterministic rotation.
    std::vector<std::string> Missing;
    if (Opts.Feedback)
      Missing = Report.Coverage.missingRequired();
    std::vector<std::pair<uint64_t, ShapeProfile>> Picks;
    Picks.reserve(N);
    for (unsigned I = 0; I != N; ++I) {
      uint64_t Seed = Opts.FirstSeed + Done + I;
      ShapeProfile P = profileForSeed(Seed);
      if (!Missing.empty() && (I & 1))
        P = profileForCoverageKey(Missing[(I / 2) % Missing.size()]);
      Picks.emplace_back(Seed, P);
    }

    std::vector<std::string> Sources(N);
    std::vector<CompileJob> Jobs;
    Jobs.reserve(size_t(N) * JPP);
    for (unsigned I = 0; I != N; ++I) {
      auto [Seed, P] = Picks[I];
      Sources[I] = generateProgram(Seed, biasedConfig(Seed, P));
      ++Report.ProfilePrograms[shapeProfileName(P)];
      appendJobs(Jobs, SourceText(Sources[I]), Opts.Check,
                 "seed" + std::to_string(Seed));
    }

    std::vector<PipelineResult> Results;
    {
      RemarkEngine RE;
      ScopedRemarkSink Sink(RE);
      Results = runPipelineParallel(Jobs, Opts.Threads);
      accumulateCoverage(Report.Coverage, RE.remarks());
    }

    for (unsigned I = 0; I != N; ++I) {
      CheckResult C =
          evaluateProgram(Results, size_t(I) * JPP, Opts.Check);
      ++Report.NumPrograms;
      if (C.Ok) {
        ++Report.NumPassed;
        continue;
      }
      CorpusFailure F;
      F.Seed = Picks[I].first;
      F.Profile = Picks[I].second;
      F.Signature = std::move(C.Signature);
      F.Detail = std::move(C.Detail);
      if (Opts.KeepFailingSource)
        F.Source = Sources[I];
      Report.Failures.push_back(std::move(F));
      if (Report.Failures.size() >= Opts.MaxFailures)
        break;
    }

    Done += N;
    if (Progress)
      Progress(Done, Opts.Count, Report);
  }
  return Report;
}

ProgramSignature srp::gen::signatureFor(const std::string &Source) {
  ProgramSignature Sig;
  RemarkEngine RE;
  ScopedRemarkSink Sink(RE);
  // The paper mode provides the dynamic facts; the baseline and
  // superblock modes run too so the signature records every promoter's
  // decisions, not just the paper promoter's.
  PipelineResult R = PipelineBuilder()
                         .mode(PromotionMode::Paper)
                         .verifyStrictness(Strictness::Full)
                         .run(Source);
  Sig.Ok = R.Ok && R.RunAfter.Ok;
  if (!R.Ok)
    Sig.Error = joinErrors(R);
  else if (!R.RunAfter.Ok)
    Sig.Error = R.RunAfter.Error;
  Sig.ExitValue = R.RunAfter.ExitValue;
  Sig.OutputLen = R.RunAfter.Output.size();
  Sig.MemOpsBefore = R.RunBefore.Counts.memOps();
  Sig.MemOpsAfter = R.RunAfter.Counts.memOps();
  if (Sig.Ok)
    for (PromotionMode M :
         {PromotionMode::LoopBaseline, PromotionMode::Superblock})
      (void)PipelineBuilder().mode(M).run(Source);
  CoverageCounts Cov;
  accumulateCoverage(Cov, RE.remarks());
  Sig.Promoters = std::move(Cov.Promoters);
  Sig.Rejections = std::move(Cov.Rejections);
  return Sig;
}

std::string srp::gen::signatureToString(const ProgramSignature &Sig) {
  std::ostringstream OS;
  if (!Sig.Ok) {
    OS << "error " << Sig.Error;
    return OS.str();
  }
  OS << "ok exit=" << Sig.ExitValue << " out=" << Sig.OutputLen
     << " memops=" << Sig.MemOpsBefore << "->" << Sig.MemOpsAfter;
  auto Emit = [&OS](const char *Tag,
                    const std::map<std::string, uint64_t> &M) {
    if (M.empty())
      return;
    OS << " | " << Tag << " ";
    bool First = true;
    for (const auto &[K, V] : M) {
      OS << (First ? "" : ",") << K << "=" << V;
      First = false;
    }
  };
  Emit("passed", Sig.Promoters);
  Emit("missed", Sig.Rejections);
  return OS.str();
}

//===- perfbench/src/Replay.h - Layer-by-layer traced replay ---*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays one compile job through the layers' public functions, in the
/// pipeline's own order:
///
///   compileMiniC, promoteLocalsToSSA, canonicalize, Interpreter::run
///   (profile), AnalysisManager::get<MemorySSAInfo>, the mode's promoter,
///   cleanupAfterPromotion, Interpreter::run (measure),
///   measureRegisterPressure
///
/// and between stages does what PassManager does at the job's strictness:
/// prints every function before each stage (Full and up), runs each
/// registered check gated exactly as runChecks gates it, and at Semantic
/// clones the module and validates the changed functions under a web
/// ledger. Every call is wrapped in a span, so the replay splits a job's
/// wall time into the layers' self times.
///
/// The replay must reproduce the untraced job's deterministic counters
/// exactly (the parity gate in main.cpp); a mismatch means it no longer
/// measures what runCompileJob runs.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_REPLAY_H
#define SRP_PERFBENCH_REPLAY_H

#include "Bench.h"
#include "Tracer.h"
#include "analysis/AnalysisManager.h"
#include "analysis/TransValidate.h"

namespace srp::perfbench {

/// What one replayed job produced.
struct ReplayResult {
  bool Ok = false;
  std::vector<std::string> Errors;
  Counters C;
  std::vector<int64_t> Output;
  int64_t ExitValue = 0;
  uint64_t MemoryHash = 0;
  double WallSeconds = 0; ///< duration of the job's root span

  // Layer counts that are not parity counters.
  uint64_t IrInsts = 0;          ///< instructions right after the frontend
  uint64_t FunctionsPrinted = 0; ///< toString calls of the verify layer
  uint64_t WebsConsidered = 0;   ///< paper promoter only
  uint64_t PaperWebsPromoted = 0;
  uint64_t FunctionsDecoded = 0, DecodeCacheHits = 0;
  uint64_t FunctionsCompiled = 0, Deopts = 0;
  AnalysisCacheStats Analysis;
  TransValidateStats Validation;
};

/// Replays \p Job, recording spans into \p T under the job id set on it.
ReplayResult replayJob(const CompileJob &Job, Tracer &T);

} // namespace srp::perfbench

#endif // SRP_PERFBENCH_REPLAY_H

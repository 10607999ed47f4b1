//===- pipeline/Pipeline.h - End-to-end compilation driver -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement pipeline of the paper's evaluation, end to end:
///
///   Mini-C -> IR -> mem2reg -> CFG canonicalisation -> memory SSA
///          -> profile run (interpreter) -> register promotion -> counts
///
/// plus the baseline variant (Lu-Cooper-style loop promotion) and the
/// no-promotion control. Static memory-operation counting lives here too.
///
/// The primary entry point is PipelineBuilder, a fluent configuration
/// API that owns the run's AnalysisManager:
///
///   PipelineResult R = PipelineBuilder()
///                          .mode(PromotionMode::Paper)
///                          .entry("main")
///                          .run(Source);
///
/// Job-granular entry points (CompileJob / runCompileJob /
/// runPipelineParallel) live in pipeline/Job.h; the historical free
/// runPipeline wrappers are gone.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PIPELINE_PIPELINE_H
#define SRP_PIPELINE_PIPELINE_H

#include "analysis/AnalysisManager.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "pipeline/PassManager.h"
#include "pipeline/PipelineConfig.h"
#include "promotion/LoopPromotion.h"
#include "promotion/SuperblockPromotion.h"
#include "promotion/PromotionOptions.h"
#include "regalloc/Coloring.h"
#include "support/Remarks.h"
#include <memory>
#include <string>
#include <vector>

namespace srp {


/// Static (textual) counts of memory operations in a module or function.
struct StaticCounts {
  unsigned Loads = 0;   ///< singleton loads
  unsigned Stores = 0;  ///< singleton stores
  unsigned AliasedOps = 0;

  unsigned total() const { return Loads + Stores; }
};

StaticCounts countStaticMemOps(const Module &M);
StaticCounts countStaticMemOps(const Function &F);

/// Everything a pipeline run produces.
struct PipelineResult {
  bool Ok = false;
  std::vector<std::string> Errors;

  std::unique_ptr<Module> M;

  StaticCounts StaticBefore, StaticAfter;
  ExecutionResult RunBefore, RunAfter;
  PromotionStats Promo;
  LoopPromotionStats Baseline;
  SuperblockStats Superblock;

  /// Per-pass wall times and verification outcomes, in execution order
  /// (see pipeline/PassManager.h).
  std::vector<PassRecord> Passes;
  /// Module-wide register pressure after promotion: NumValues/Edges are
  /// summed over functions, ColorsNeeded/MaxLive are per-function maxima.
  PressureReport Pressure;
  /// Analysis-cache accounting for this run (hits, misses, invalidations,
  /// per-kind build counts). Feeds the `analysis` section of --stats-json.
  AnalysisCacheStats Analysis;
  /// Between-pass verification accounting (checks run, diagnostics,
  /// wall time). Feeds the `verification` section of --stats-json.
  VerifyRunStats Verify;
  /// End-to-end wall time of this run (compile + passes + measure runs).
  /// Feeds the per-job `wall_seconds` of `bench_paper matrix`.
  double WallSeconds = 0;

  /// Per-job observability capture (CompileJob::WantRemarks/WantTrace).
  /// Remarks holds the run's remarks in emission order when
  /// RemarksCaptured is set (an empty capture is distinct from "not
  /// requested"); TraceJson holds the run's single-track Chrome trace
  /// document, "" when tracing was not requested. Both are captured
  /// per-thread, so concurrent jobs never interleave (docs/SERVER.md).
  std::vector<Remark> Remarks;
  bool RemarksCaptured = false;
  std::string TraceJson;
};

/// Fluent pipeline configuration and driver. A builder owns the
/// AnalysisManager its runs execute against: each run() constructs a
/// fresh manager bound to the compiled module and leaves it accessible
/// through analysisManager() until the next run, so tests can inspect
/// cache state post-mortem. Builders are reusable but single-threaded;
/// the parallel workload driver uses one builder per worker job.
class PipelineBuilder {
  PipelineOptions Opts;
  std::unique_ptr<AnalysisManager> AM;

public:
  PipelineBuilder() = default;

  PipelineBuilder &mode(PromotionMode M) {
    Opts.Mode = M;
    return *this;
  }
  PipelineBuilder &entry(std::string Name) {
    Opts.EntryFunction = std::move(Name);
    return *this;
  }
  PipelineBuilder &promotion(const PromotionOptions &P) {
    Opts.Promo = P;
    return *this;
  }
  PipelineBuilder &verifyEachStep(bool On) {
    Opts.VerifyEachStep = On;
    return *this;
  }
  PipelineBuilder &verifyStrictness(Strictness S) {
    Opts.VerifyStrictness = S;
    return *this;
  }
  PipelineBuilder &measurePressure(bool On) {
    Opts.MeasurePressure = On;
    return *this;
  }
  PipelineBuilder &disableAnalysisCache(bool On) {
    Opts.DisableAnalysisCache = On;
    return *this;
  }
  /// Replaces the whole option set (for callers that already hold one).
  PipelineBuilder &options(const PipelineOptions &O) {
    Opts = O;
    return *this;
  }
  const PipelineOptions &options() const { return Opts; }

  /// Compiles and runs Mini-C source. SourceText converts implicitly from
  /// std::string / string literals.
  PipelineResult run(const SourceText &Source);

  /// Runs the pipeline stages on an already-built module (consumed). The
  /// "before" run/counts are taken after mem2reg + canonicalisation (the
  /// common baseline every mode shares).
  PipelineResult run(std::unique_ptr<Module> M);

  /// The manager of the most recent run (null before the first). Valid
  /// until the next run() or the builder's destruction; its references
  /// point into the module owned by that run's PipelineResult.
  AnalysisManager *analysisManager() { return AM.get(); }
};

} // namespace srp

#endif // SRP_PIPELINE_PIPELINE_H

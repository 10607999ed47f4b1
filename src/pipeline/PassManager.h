//===- pipeline/PassManager.h - Instrumented pass sequencing ---*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented pass-manager layer underneath `srp::PipelineBuilder`:
/// each
/// pipeline stage (mem2reg, canonicalise, memory-ssa, profile, promotion,
/// cleanup, measure, pressure) runs as a named pass with
///
///  - per-pass wall-clock timing (support/Timer.h),
///  - optional IR verification after every pass, with failures attributed
///    to the pass that introduced them ("after pass 'X': ..."),
///  - global named counters (support/Statistics.h) bumped by the passes
///    themselves.
///
/// A PassManager instance is single-threaded and per-run; the parallel
/// workload driver creates one per job, so only the statistics registry is
/// shared across threads. Pass records serialise to JSON for
/// `srpc --time-passes` and the benchmark harnesses.
///
/// Passes receive the run's AnalysisManager and pull dominators, interval
/// trees, memory SSA, profiles and liveness from it instead of rebuilding
/// them. No pass reports what it changed: the IR mutators move each
/// function's edit epochs, and the manager treats an entry built at an
/// older epoch as a miss.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PIPELINE_PASSMANAGER_H
#define SRP_PIPELINE_PASSMANAGER_H

#include "analysis/AnalysisManager.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/TransValidate.h"
#include <functional>
#include <string>
#include <vector>

namespace srp {

class Function;
class Module;

/// Timing and verification outcome of one executed pass.
struct PassRecord {
  std::string Name;
  double WallSeconds = 0;
  bool Ran = false;        ///< false when a prior pass aborted the run
  bool Failed = false;     ///< pass reported an error
  bool Verified = false;   ///< post-pass verification ran
  unsigned VerifyErrors = 0;
};

struct PassManagerOptions {
  /// Run the IR verifier after every pass and attribute failures. The
  /// master switch; when false, VerifyStrictness is ignored.
  bool VerifyEachPass = true;
  /// How deep the between-pass verification digs (see
  /// analysis/StaticAnalysis.h). Fast is the historical verifier; Full
  /// adds the whole-function memory-SSA walks and the L3/L4 canonical and
  /// promotion invariants, and dumps the post-pass IR of every offending
  /// function on failure (the fuzz sweep runs at Full). Semantic runs
  /// everything Full runs and additionally translation-validates each
  /// pass: the manager snapshots the module before the pass and proves the
  /// result semantically equivalent (analysis/TransValidate.h),
  /// cross-checking the promoters' web ledger so a promoted-but-unproven
  /// web fails hard; its failure dumps add the pre-pass IR.
  Strictness VerifyStrictness = Strictness::Fast;

  /// The level verification actually runs at.
  Strictness effectiveStrictness() const {
    return VerifyEachPass ? VerifyStrictness : Strictness::Off;
  }
};

/// Aggregate verification accounting for one PassManager run (surfaced as
/// the `verification` section of `srpc --stats-json`).
struct VerifyRunStats {
  uint64_t PassesVerified = 0; ///< Between-pass verifications executed.
  uint64_t ChecksRun = 0;      ///< Individual checker executions.
  uint64_t Diagnostics = 0;    ///< Diagnostics emitted (all severities).
  double WallSeconds = 0;      ///< Time spent verifying.
  /// Translation-validation accounting (populated at Strictness::Semantic;
  /// surfaced as the `validation` section of `srpc --stats-json`).
  TransValidateStats Validation;
};

/// Runs a fixed sequence of named module passes with timing, verification
/// and error attribution.
class PassManager {
public:
  /// A module pass: transforms \p M (pulling analyses from \p AM),
  /// appends problems to \p Errors and returns false to abort the
  /// remaining pipeline.
  using ModulePassFn = std::function<bool(
      Module &M, AnalysisManager &AM, std::vector<std::string> &Errors)>;

  /// A function pass: runs once per function. Report problems by
  /// appending to \p Errors — any new entry aborts the pipeline.
  using FunctionPassFn = std::function<void(
      Function &F, AnalysisManager &AM, std::vector<std::string> &Errors)>;

  explicit PassManager(PassManagerOptions Opts = {}) : Opts(Opts) {}

  /// Appends a pass. Names should be short lower-case stage names; they
  /// become the "name" fields of the timing report and the attribution
  /// prefix of verifier errors.
  void addPass(std::string Name, ModulePassFn Fn);

  /// Appends a pass that runs over every function of the module.
  void addFunctionPass(std::string Name, FunctionPassFn Fn);

  /// Runs every registered pass in order over \p M against the caller's
  /// AnalysisManager (the pipeline threads the builder-owned manager
  /// through here). Stops at the first pass that fails or breaks the
  /// verifier; errors are appended to \p Errors prefixed with the
  /// offending pass's name. Returns true when every pass ran cleanly.
  bool run(Module &M, AnalysisManager &AM, std::vector<std::string> &Errors);

  /// Per-pass records, in registration order. Populated by run(); passes
  /// skipped after an abort keep Ran = false and WallSeconds = 0.
  const std::vector<PassRecord> &records() const { return Records; }

  /// Registered pass names in execution order.
  std::vector<std::string> passNames() const;

  size_t size() const { return Passes.size(); }

  /// Verification accounting for the last run().
  const VerifyRunStats &verifyStats() const { return VStats; }

private:
  PassManagerOptions Opts;
  VerifyRunStats VStats;
  // Function passes are stored wrapped into a ModulePassFn.
  std::vector<std::pair<std::string, ModulePassFn>> Passes;
  std::vector<PassRecord> Records;
};

/// Renders pass records as a JSON array (name, wall_seconds, ran,
/// verified, verify_errors), two-space indented at \p Indent levels.
std::string passRecordsToJson(const std::vector<PassRecord> &Records,
                              unsigned Indent = 0);

} // namespace srp

#endif // SRP_PIPELINE_PASSMANAGER_H

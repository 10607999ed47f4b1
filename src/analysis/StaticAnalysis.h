//===- analysis/StaticAnalysis.h - Layered IR checkers + lints -*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layered IR invariant-checking framework and the source-level
/// Mini-C lints, both reporting through the structured DiagnosticEngine
/// (analysis/Diagnostics.h).
///
/// Checkers are grouped in layers, each assuming the previous one holds:
///
///   L0  CFG structure: blocks, terminators, edge symmetry, terminator
///       targets belong to the function.
///   L1  Scalar SSA: phi grouping/incoming lists, def-dominates-use,
///       use-list registration.
///   L2  Memory SSA: def/use links, version dominance, exactly one live
///       version per resource on every path (a renaming re-walk), memphi
///       join placement, mu/chi alias tagging on calls and pointer refs.
///   L3  Canonical form: interval preheaders exist and dominate, no
///       critical interval entry/exit edges, dedicated exit tails.
///   L4  Promotion: phi/copy webs carry register values (closure under
///       phi connectivity never pulls in memory names or void values),
///       dummy loads only in interval preheaders, and — via
///       checkPromotionDelta — static load/store deltas matching the
///       profitability model's prediction.
///
/// Strictness maps to layers: Fast runs L0/L1 plus the cheap per-
/// instruction L2 link checks (the historical verifier); Full adds the
/// whole-function L2 walks and L3/L4. The between-pass hook in the
/// PassManager runs at a configurable strictness and attributes failures
/// to the pass that introduced them.
///
/// Checks pull dominators/intervals from the AnalysisManager when one is
/// provided (between-pass verification reuses the run's cache) and build
/// a local dominator tree otherwise (standalone runChecks calls).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_STATICANALYSIS_H
#define SRP_ANALYSIS_STATICANALYSIS_H

#include "analysis/Diagnostics.h"
#include <cstdint>
#include <string>
#include <vector>

namespace srp {

class AnalysisManager;
class DominatorTree;
class Function;
class Module;

/// How much checking to do between passes (and in `srpc --verify-each`).
enum class Strictness : uint8_t {
  Off,  ///< No verification.
  Fast, ///< L0/L1 + per-instruction memory-SSA link checks.
  Full, ///< Everything: version walks, alias tagging, L3/L4.
  /// Full plus per-pass translation validation: every transforming pass
  /// must *prove* the new IR equivalent to a pre-pass snapshot via the
  /// simulation relation in analysis/TransValidate.h. An unproven pair is
  /// a hard error, exactly like a failed invariant check.
  Semantic,
};

/// Stable spelling ("off", "fast", "full", "semantic") for flags and JSON.
const char *strictnessName(Strictness S);
/// Inverse of strictnessName; returns false (leaving \p S untouched) for
/// unknown spellings.
bool parseStrictness(const std::string &Name, Strictness &S);

/// The invariant layer a check belongs to (see the file comment).
enum class CheckLayer : uint8_t { L0_CFG, L1_SSA, L2_MemorySSA,
                                  L3_Canonical, L4_Promotion };
const char *checkLayerName(CheckLayer L);

/// Everything a checker sees. The driver fills DT after L0 passes (a
/// broken CFG has no dominator tree); AM is optional and enables the
/// cached-analysis paths (intervals for L3/L4).
struct CheckContext {
  Function &F;
  DiagnosticEngine &DE;
  AnalysisManager *AM = nullptr;
  const DominatorTree *DT = nullptr;
  bool MemorySSAPresent = false;
};

/// One registered checker. Id is the stable check identifier every
/// diagnostic it emits carries (catalogue: docs/STATIC_ANALYSIS.md).
struct CheckInfo {
  const char *Id;
  CheckLayer Layer;
  Strictness MinLevel;     ///< Runs when the requested level >= this.
  bool NeedsMemorySSA;     ///< Skipped until memory SSA is built.
  bool NeedsCanonicalCFG;  ///< Skipped unless AM marks F canonical.
  const char *Description;
  void (*Run)(CheckContext &);
};

/// The full checker registry, in execution order (L0 first).
const std::vector<CheckInfo> &registeredChecks();

/// Accounting for one runChecks invocation (feeds the `verification`
/// section of `srpc --stats-json`).
struct CheckRunStats {
  uint64_t ChecksRun = 0;    ///< Checker executions (post-gating).
  uint64_t Diagnostics = 0;  ///< Diagnostics those checkers emitted.

  CheckRunStats &operator+=(const CheckRunStats &R) {
    ChecksRun += R.ChecksRun;
    Diagnostics += R.Diagnostics;
    return *this;
  }
};

/// Runs every applicable registered check on \p F at \p Level, reporting
/// into \p DE. L0 errors stop the run (later layers assume a sane CFG).
/// \p AM, when given, supplies cached dominators/intervals and the
/// canonical-shape flag.
CheckRunStats runChecks(Function &F, DiagnosticEngine &DE, Strictness Level,
                        AnalysisManager *AM = nullptr);

/// Runs the checks on every function of \p M.
CheckRunStats runChecks(Module &M, DiagnosticEngine &DE, Strictness Level,
                        AnalysisManager *AM = nullptr);

//===----------------------------------------------------------------------===
// Source-level Mini-C lints (`srpc --analyze`).
//===----------------------------------------------------------------------===

/// Runs the memory-SSA-powered source lints on \p F:
///  - lint-uninitialized-load: a load reads the entry version of a local
///    (directly, or possibly through memory phis),
///  - lint-dead-store: a stored value can never be observed (no
///    transitive read reaches it before it is overwritten or the
///    function returns),
///  - lint-unreachable-code: blocks unreachable from the entry.
/// The memory lints read the mu/chi tags, so the caller must build memory
/// SSA first (srpc --analyze does it via AM.get<MemorySSAInfo>; only the
/// unreachable-code lint runs without it). The analyzer runs these on
/// un-mem2reg'd IR (locals still in memory form) lowered without implicit
/// zero-initialisation, so load-before-store is visible as a use of the
/// entry memory version.
void runSourceLints(Function &F, AnalysisManager &AM, DiagnosticEngine &DE);
void runSourceLints(Module &M, AnalysisManager &AM, DiagnosticEngine &DE);

//===----------------------------------------------------------------------===
// L4: promotion accounting cross-check.
//===----------------------------------------------------------------------===

/// What the promoter claims it did to a module, against what the static
/// counts say. Plain integers to keep the analysis library independent
/// of the promotion layer; the pipeline fills this from PromotionStats.
struct PromotionDeltaExpectation {
  unsigned LoadsBefore = 0, LoadsAfter = 0;
  unsigned LoadsReplaced = 0, LoadsInserted = 0;
  unsigned StoresBefore = 0, StoresAfter = 0;
  unsigned StoresDeleted = 0, StoresInserted = 0;
};

/// Checks the promotion ledger: after-counts must equal before-counts
/// adjusted by the promoter's reported replacements/insertions/deletions
/// (check ID promo-count-delta). Cleanup may only remove operations, so
/// the ledger is an upper bound: exceeding it is an error, falling short
/// of it is reported as a note.
void checkPromotionDelta(const PromotionDeltaExpectation &E,
                         DiagnosticEngine &DE);

} // namespace srp

#endif // SRP_ANALYSIS_STATICANALYSIS_H

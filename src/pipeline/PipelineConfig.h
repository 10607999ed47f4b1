//===- pipeline/PipelineConfig.h - Pipeline configuration ------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for pipeline configuration: the promotion
/// mode enum with its name round-trip (promotionModeName /
/// parsePromotionMode, shared by srpc, the benches and the tests), the
/// unified PipelineOptions struct (which embeds the promoter tunables —
/// there is deliberately no second copy of entry-function or verify
/// settings anywhere else), and SourceText, the shared immutable job
/// source used by the parallel workload driver.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PIPELINE_PIPELINECONFIG_H
#define SRP_PIPELINE_PIPELINECONFIG_H

#include "analysis/StaticAnalysis.h"
#include "interp/Interpreter.h"
#include "promotion/PromotionOptions.h"
#include <array>
#include <memory>
#include <ostream>
#include <string>

namespace srp {

/// How to transform the program between the profile run and measurement.
enum class PromotionMode {
  None,          ///< control: mem2reg only
  Paper,         ///< the paper's SSA/interval/profile promoter
  PaperNoProfile,///< paper promoter driven by static frequency estimates
  LoopBaseline,  ///< Lu-Cooper-style loop promotion
  Superblock,    ///< Mahlke-style superblock (hot trace) migration
  MemOptOnly,    ///< classic memory-SSA RLE + DSE, no promotion
};

/// Spelling used by -mode= flags, test names and JSON output.
const char *promotionModeName(PromotionMode Mode);

/// Inverse of promotionModeName: accepts exactly the spellings it emits
/// ("none", "paper", "noprofile", "baseline", "superblock", "memopt").
/// Returns false (leaving \p Mode untouched) for anything else.
bool parsePromotionMode(const std::string &Name, PromotionMode &Mode);

/// Every mode, in declaration order — the matrix axis used by the
/// differential oracle and the workload benches.
const std::array<PromotionMode, 6> &allPromotionModes();

/// Options of a pipeline run. Promoter tunables live in the embedded
/// PromotionOptions; everything else (mode, entry, verification,
/// measurement, caching) is pipeline-level.
struct PipelineOptions {
  PromotionMode Mode = PromotionMode::Paper;
  PromotionOptions Promo;
  std::string EntryFunction = "main";
  /// Run the IR verifier after every pass; failures are attributed to the
  /// pass that introduced them.
  bool VerifyEachStep = true;
  /// How deep the between-pass verification digs (srpc -verify-each=).
  /// Fast is the historical verifier (L0/L1 + memory-SSA link checks);
  /// Full adds the whole-function memory-SSA walks, the canonical-shape
  /// checks, the promotion invariants, and the promotion-ledger
  /// cross-check. Ignored when VerifyEachStep is false.
  Strictness VerifyStrictness = Strictness::Fast;
  /// Measure post-promotion register pressure (Table 3's coloring) as a
  /// final pipeline pass.
  bool MeasurePressure = true;
  /// Force every analysis request to rebuild (differential testing of the
  /// analysis cache). The SRP_DISABLE_ANALYSIS_CACHE=1 environment
  /// variable has the same effect without a rebuild.
  bool DisableAnalysisCache = false;
  /// Execution engine for the profile and measurement runs (srpc
  /// -interp=walk|bytecode|native; all produce identical
  /// ExecutionResults).
  InterpEngine Interp = defaultInterpEngine();
  /// Native engine only: hotness-ledger ticks (calls plus retreating
  /// edges taken in bytecode) at which a function is JIT-compiled. 0
  /// keeps the process default (SRP_JIT_THRESHOLD, else
  /// jit::DefaultJitThreshold); 1 compiles on first call, which the parity
  /// suites use to force the JIT path.
  uint64_t JitThreshold = 0;
};

/// Immutable, cheaply copyable Mini-C source text. Copies share one
/// heap-allocated string, so fanning a workload out to a 54-job matrix
/// duplicates a pointer, not the program text.
class SourceText {
  std::shared_ptr<const std::string> Text;

public:
  SourceText() = default;
  SourceText(std::string S)
      : Text(std::make_shared<const std::string>(std::move(S))) {}
  SourceText(const char *S) : Text(std::make_shared<const std::string>(S)) {}

  const std::string &str() const {
    static const std::string Empty;
    return Text ? *Text : Empty;
  }
  operator const std::string &() const { return str(); }

  bool empty() const { return !Text || Text->empty(); }
  /// Identity of the shared storage (for tests asserting no duplication).
  const std::string *storage() const { return Text.get(); }
  bool sharesStorageWith(const SourceText &O) const {
    return Text && Text == O.Text;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const SourceText &S) {
  return OS << S.str();
}

} // namespace srp

#endif // SRP_PIPELINE_PIPELINECONFIG_H

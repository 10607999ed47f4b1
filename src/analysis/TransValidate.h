//===- analysis/TransValidate.h - Per-pass translation validation -*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation validator behind `-verify-each=semantic`: proves that
/// the module a transforming pass produced is semantically equivalent to
/// a snapshot taken before the pass, instead of merely well-formed.
///
/// The proof is a simulation relation over the *effect skeleton* of each
/// function. Effects — calls, prints, pointer/array accesses, and the
/// final return with its escaping memory — are the only operations the
/// interpreter's observable behaviour depends on, and no pass in this
/// pipeline creates or removes one. The validator walks old and new CFG
/// in lockstep (a product-graph traversal that absorbs unconditional-
/// branch chains on either side, so edge splits and straightening do not
/// break alignment), pairs effects one-to-one in execution order, and for
/// every paired effect emits proof obligations: operand values must be
/// congruent, and the memory version each side observes for the same
/// object must carry the same contents.
///
/// Obligations are discharged by a coinductive congruence engine that
/// canonicalises each side first — through ValueNumberTable leaders
/// (ssa/ValueNumbering.h), copy chains, load→memory-version and store→
/// stored-value links, and entry versions of non-address-taken locals
/// (fresh per activation, hence their initial value) — and then compares
/// structurally: constants by value, arguments by index, binops
/// recursively (commutative operands either way), effect results by
/// being a matched pair, memory entry versions and aliased-store
/// definitions by object name plus matched definition sites, and phis by
/// resolving both sides backwards along every paired in-edge of the
/// product graph (assuming the pair under proof on cycles — the
/// standard bisimulation rule, which is what lets loop-carried promoted
/// registers match loop-carried store chains).
///
/// Anything unproven is a structured Diagnostic carrying both IR
/// snippets, under stable check IDs:
///   trans-cfg     control flow cannot be aligned,
///   trans-effect  effect kinds/callees/mu-sets diverge,
///   trans-value   a scalar operand pair is unproven,
///   trans-memory  a memory-version pair is unproven,
///   trans-web     a promoted web's replacement values are unproven.
///
/// The promoters feed the validator through a thread-local *web ledger*
/// (validation::recordPromotedWeb at every Passed-remark site); the
/// validator cross-checks it so a promoted-but-unproven web is a hard
/// error even when no generic obligation happens to fail. See
/// docs/TRANSLATION_VALIDATION.md for the full relation and its limits.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_TRANSVALIDATE_H
#define SRP_ANALYSIS_TRANSVALIDATE_H

#include "analysis/Diagnostics.h"
#include "ssa/ValueNumbering.h"
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace srp {

class Function;
class Instruction;
class Module;

/// Accounting for validateTranslation runs (feeds the `validation`
/// section of `srpc --stats-json`).
struct TransValidateStats {
  uint64_t PassesValidated = 0;   ///< Pass executions validated.
  uint64_t FunctionsValidated = 0;
  uint64_t FunctionsSkippedIdentical = 0; ///< Textually unchanged, skipped.
  uint64_t EffectPairsMatched = 0;
  uint64_t ObligationsProven = 0;
  uint64_t ObligationsFailed = 0;
  uint64_t WebsChecked = 0;       ///< Ledger entries cross-checked.
  uint64_t WebsProven = 0;
  double WallSeconds = 0.0;       ///< Snapshot + validation time.

  TransValidateStats &operator+=(const TransValidateStats &R) {
    PassesValidated += R.PassesValidated;
    FunctionsValidated += R.FunctionsValidated;
    FunctionsSkippedIdentical += R.FunctionsSkippedIdentical;
    EffectPairsMatched += R.EffectPairsMatched;
    ObligationsProven += R.ObligationsProven;
    ObligationsFailed += R.ObligationsFailed;
    WebsChecked += R.WebsChecked;
    WebsProven += R.WebsProven;
    WallSeconds += R.WallSeconds;
    return *this;
  }
};

namespace validation {

/// One promoted web as reported by a promoter: which object's loads and
/// stores were replaced, in which function, by which pass. Keyed by names
/// (not pointers) because the ledger outlives in-pass cleanup and is
/// checked against a cloned snapshot.
struct PromotedWebRecord {
  std::string Function;
  std::string Object;  ///< MemoryObject name the web promotes.
  std::string Web;     ///< Display label ("x#3", local name, ...).
  std::string Pass;    ///< Reporting pass ("promotion", "mem2reg", ...).
};

/// Collects PromotedWebRecords for one pass execution.
class WebLedger {
  std::vector<PromotedWebRecord> Records;

public:
  void record(PromotedWebRecord R) { Records.push_back(std::move(R)); }
  const std::vector<PromotedWebRecord> &records() const { return Records; }
  size_t size() const { return Records.size(); }
  void clear() { Records.clear(); }
};

/// The active ledger of the calling thread (null when validation is off —
/// the common fast path). Thread-local because runPipelineParallel workers
/// validate independent jobs concurrently.
WebLedger *sink();
void setSink(WebLedger *L);

/// Promoter hook: records a promoted web into the active ledger, if any.
/// Call it exactly where the Passed remark for the web is emitted.
void recordPromotedWeb(const std::string &Function, const std::string &Object,
                       const std::string &Web, const char *Pass);

/// RAII installer (mirrors ScopedRemarkSink).
class ScopedWebLedger {
  WebLedger *Prev;

public:
  explicit ScopedWebLedger(WebLedger &L) : Prev(sink()) { setSink(&L); }
  ~ScopedWebLedger() { setSink(Prev); }
  ScopedWebLedger(const ScopedWebLedger &) = delete;
  ScopedWebLedger &operator=(const ScopedWebLedger &) = delete;
};

} // namespace validation

/// Deep-copies \p M: functions, blocks, instructions, module and local
/// memory objects. Memory SSA (MemoryNames, memory phis, mu/chi operands)
/// is deliberately *not* cloned — the validator rebuilds it on the clone —
/// so the source may be snapshotted at any pipeline point. The clone is
/// never executed; object ids are freshly numbered.
std::unique_ptr<Module> cloneModule(const Module &M);

/// What validation builds on one side of one function besides its memory
/// SSA (which lives in the IR): value-number leaders, and the instructions
/// whose results transitively feed an observable effect.
struct ValidatedFunction {
  ValueNumberTable VN;
  std::unordered_set<const Instruction *> Live;
};

/// The analyses a validation built on its post-pass module. The pass
/// manager keeps them with that module while it serves as the next pass's
/// snapshot, so the next validation reuses them on its pre-pass side
/// instead of rebuilding. Valid only while the module is not edited.
struct SnapshotAnalyses {
  /// The module the analyses were built on.
  const Module *Of = nullptr;
  std::unordered_map<const Function *, ValidatedFunction> Functions;
};

/// Proves \p NewM semantically equivalent to \p OldM (the pre-pass
/// snapshot), reporting every unproven pair into \p DE and accounting
/// into \p Stats. \p Webs is the promotion ledger for the validated pass
/// (empty for non-promoting passes). When \p OnlyFunctions is non-null,
/// functions not in the set are assumed textually identical and skipped.
/// Both modules are mutated (memory SSA is rebuilt on each side), so
/// callers pass clones. Returns true when everything is proven.
///
/// When \p Kept is non-null, the analyses it holds for \p OldM stand in
/// for rebuilding them there, and on return it holds the analyses this
/// call built on \p NewM, for a next call that validates against NewM.
/// Memory versions are numbered per function on each side, so a reused
/// side names them exactly as a fresh clone does.
bool validateTranslation(Module &OldM, Module &NewM,
                         const std::vector<validation::PromotedWebRecord> &Webs,
                         DiagnosticEngine &DE, TransValidateStats &Stats,
                         const std::unordered_set<std::string> *OnlyFunctions
                         = nullptr,
                         SnapshotAnalyses *Kept = nullptr);

} // namespace srp

#endif // SRP_ANALYSIS_TRANSVALIDATE_H

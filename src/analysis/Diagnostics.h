//===- analysis/Diagnostics.h - Structured diagnostics ---------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured diagnostic engine behind the IR checkers and the
/// source-level lints. A Diagnostic carries a stable check ID (the
/// catalogue lives in docs/STATIC_ANALYSIS.md), a severity, an IR
/// location (function / block / instruction index + printed snippet), the
/// message, and an optional fix-it hint. DiagnosticEngine collects them
/// with per-severity counts; renderers produce the one-line text form
/// (`error[ssa-use-dominance] f:bb3:#2: ...`) and a byte-stable JSON
/// array for `srpc --analyze --diag-json`.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_DIAGNOSTICS_H
#define SRP_ANALYSIS_DIAGNOSTICS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace srp {

class BasicBlock;
class Instruction;

enum class DiagSeverity : uint8_t { Note, Warning, Error };
inline constexpr unsigned NumDiagSeverities = 3;

/// Stable spelling used by the text and JSON renderers
/// ("note" / "warning" / "error").
const char *diagSeverityName(DiagSeverity S);

/// Where in the IR a diagnostic points. Granularity degrades gracefully:
/// a module-level problem leaves everything empty, a function-level one
/// fills only Function, and an instruction-level one has all four fields.
struct DiagLocation {
  std::string Function;  ///< Enclosing function ("" = module scope).
  std::string Block;     ///< Basic block name ("" = function scope).
  int InstIndex = -1;    ///< Index within the block; -1 = no instruction.
  std::string Snippet;   ///< Printed instruction (context for humans).

  bool hasInstruction() const { return InstIndex >= 0; }

  /// Builds an instruction-granular location (function/block/index and
  /// the printed instruction). \p I must be parented.
  static DiagLocation of(const Instruction &I);
  /// Block-granular location.
  static DiagLocation of(const BasicBlock &BB);
  /// Function-granular location.
  static DiagLocation inFunction(const std::string &FunctionName);
};

/// One finding. CheckID is the stable identifier of the rule that fired
/// ("cfg-terminator", "lint-dead-store", ...); the catalogue with layer
/// assignments is in docs/STATIC_ANALYSIS.md.
struct Diagnostic {
  std::string CheckID;
  DiagSeverity Severity = DiagSeverity::Error;
  DiagLocation Loc;
  std::string Message;
  std::string FixIt;  ///< Optional remediation hint ("" = none).
};

/// Collects diagnostics and keeps per-severity counts. Checkers append
/// through report(); drivers inspect hasErrors() to decide whether a
/// pipeline run (or an `srpc --analyze` invocation) failed.
class DiagnosticEngine {
  std::vector<Diagnostic> Diags;
  std::array<unsigned, NumDiagSeverities> Counts{};

public:
  void report(Diagnostic D);

  /// Convenience for the common instruction-level error.
  void error(std::string CheckID, DiagLocation Loc, std::string Message,
             std::string FixIt = "");
  void warning(std::string CheckID, DiagLocation Loc, std::string Message,
               std::string FixIt = "");

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  size_t size() const { return Diags.size(); }
  bool empty() const { return Diags.empty(); }

  unsigned count(DiagSeverity S) const {
    return Counts[static_cast<unsigned>(S)];
  }
  unsigned errors() const { return count(DiagSeverity::Error); }
  unsigned warnings() const { return count(DiagSeverity::Warning); }
  bool hasErrors() const { return errors() != 0; }

  /// True if any collected diagnostic carries \p CheckID.
  bool has(const std::string &CheckID) const;

  void clear();
};

/// One-line text rendering:
///   `error[cfg-terminator] f:bb2: block has 0 terminators`
/// with the snippet appended as `| <instr>` and the fix-it as
/// `(fix: ...)` when present.
std::string toText(const Diagnostic &D);

/// Renders every diagnostic, one per line (trailing newline included;
/// empty string for no diagnostics).
std::string diagnosticsToText(const std::vector<Diagnostic> &Diags);

/// Byte-stable JSON array of diagnostic objects, two-space indented at
/// \p Indent levels. Schema (docs/STATIC_ANALYSIS.md):
///   [{"check": ..., "severity": ..., "function": ..., "block": ...,
///     "instruction_index": ..., "snippet": ..., "message": ...,
///     "fixit": ...}, ...]
std::string diagnosticsToJson(const std::vector<Diagnostic> &Diags,
                              unsigned Indent = 0);

} // namespace srp

#endif // SRP_ANALYSIS_DIAGNOSTICS_H

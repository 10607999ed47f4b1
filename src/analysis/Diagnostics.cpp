//===- analysis/Diagnostics.cpp - Structured diagnostics ------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostics.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Printer.h"
#include "support/JSON.h"
#include <sstream>

using namespace srp;

const char *srp::diagSeverityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "unknown";
}

DiagLocation DiagLocation::of(const Instruction &I) {
  DiagLocation Loc;
  BasicBlock *BB = I.parent();
  if (BB) {
    Loc.Block = BB->name();
    Loc.InstIndex = static_cast<int>(BB->indexOf(&I));
    if (BB->parent())
      Loc.Function = BB->parent()->name();
  }
  Loc.Snippet = toString(I);
  return Loc;
}

DiagLocation DiagLocation::of(const BasicBlock &BB) {
  DiagLocation Loc;
  Loc.Block = BB.name();
  if (BB.parent())
    Loc.Function = BB.parent()->name();
  return Loc;
}

DiagLocation DiagLocation::inFunction(const std::string &FunctionName) {
  DiagLocation Loc;
  Loc.Function = FunctionName;
  return Loc;
}

void DiagnosticEngine::report(Diagnostic D) {
  ++Counts[static_cast<unsigned>(D.Severity)];
  Diags.push_back(std::move(D));
}

void DiagnosticEngine::error(std::string CheckID, DiagLocation Loc,
                             std::string Message, std::string FixIt) {
  report(Diagnostic{std::move(CheckID), DiagSeverity::Error, std::move(Loc),
                    std::move(Message), std::move(FixIt)});
}

void DiagnosticEngine::warning(std::string CheckID, DiagLocation Loc,
                               std::string Message, std::string FixIt) {
  report(Diagnostic{std::move(CheckID), DiagSeverity::Warning, std::move(Loc),
                    std::move(Message), std::move(FixIt)});
}

bool DiagnosticEngine::has(const std::string &CheckID) const {
  for (const Diagnostic &D : Diags)
    if (D.CheckID == CheckID)
      return true;
  return false;
}

void DiagnosticEngine::clear() {
  Diags.clear();
  Counts.fill(0);
}

std::string srp::toText(const Diagnostic &D) {
  std::ostringstream OS;
  OS << diagSeverityName(D.Severity) << "[" << D.CheckID << "] ";
  if (!D.Loc.Function.empty()) {
    OS << D.Loc.Function;
    if (!D.Loc.Block.empty()) {
      OS << ":" << D.Loc.Block;
      if (D.Loc.hasInstruction())
        OS << ":#" << D.Loc.InstIndex;
    }
    OS << ": ";
  }
  OS << D.Message;
  if (!D.Loc.Snippet.empty())
    OS << " | " << D.Loc.Snippet;
  if (!D.FixIt.empty())
    OS << " (fix: " << D.FixIt << ")";
  return OS.str();
}

std::string srp::diagnosticsToText(const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += toText(D);
    Out += '\n';
  }
  return Out;
}

std::string srp::diagnosticsToJson(const std::vector<Diagnostic> &Diags,
                                   unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  std::string Inner(Indent * 2 + 2, ' ');
  std::ostringstream OS;
  OS << "[";
  bool First = true;
  for (const Diagnostic &D : Diags) {
    OS << (First ? "\n" : ",\n") << Inner << "{\"check\": \""
       << json::escape(D.CheckID) << "\", \"severity\": \""
       << diagSeverityName(D.Severity) << "\", \"function\": \""
       << json::escape(D.Loc.Function) << "\", \"block\": \""
       << json::escape(D.Loc.Block) << "\", \"instruction_index\": "
       << D.Loc.InstIndex << ", \"snippet\": \"" << json::escape(D.Loc.Snippet)
       << "\", \"message\": \"" << json::escape(D.Message)
       << "\", \"fixit\": \"" << json::escape(D.FixIt) << "\"}";
    First = false;
  }
  if (!First)
    OS << "\n" << Pad;
  OS << "]";
  return OS.str();
}

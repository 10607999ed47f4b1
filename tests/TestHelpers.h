//===- tests/TestHelpers.h - Shared test utilities -------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#ifndef SRP_TESTS_TESTHELPERS_H
#define SRP_TESTS_TESTHELPERS_H

#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include <gtest/gtest.h>
#include <memory>
#include <string>

namespace srp::test {

/// Compiles Mini-C source, failing the test on any diagnostic.
inline std::unique_ptr<Module> compileOrDie(const std::string &Source) {
  std::vector<std::string> Errors;
  auto M = compileMiniC(Source, Errors);
  for (const auto &E : Errors)
    ADD_FAILURE() << "compile error: " << E;
  if (!M)
    ADD_FAILURE() << "compilation produced no module";
  return M;
}

/// Asserts \p IR (a Module or a Function) passes the Fast checks, dumping
/// the IR on failure.
template <class IRUnit> void expectValid(IRUnit &IR, const char *When = "") {
  DiagnosticEngine DE;
  runChecks(IR, DE, Strictness::Fast);
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      ADD_FAILURE() << When << ": " << D.Loc.Function << ": " << D.Message;
  if (DE.hasErrors())
    ADD_FAILURE() << "IR:\n" << toString(IR);
}

/// Shapes of deep Mini-C nesting, for the front end's nesting limit
/// (MaxNestingDepth, frontend/Parser.h).
enum class Nesting { Parentheses, UnaryChain, BinaryChain, Statements };

/// A program that nests \p K constructs of shape \p S. The expression
/// shapes sit in `return E;`, whose statement and outermost operand take
/// two levels: K parentheses, prefix minuses or `+` operators are K + 2
/// levels deep. K nested `if (x) { ... }` are 2K levels deep (each if and
/// each block takes one).
inline std::string nestedProgram(Nesting S, unsigned K) {
  auto Repeat = [K](const char *Piece) {
    std::string Out;
    for (unsigned I = 0; I != K; ++I)
      Out += Piece;
    return Out;
  };
  switch (S) {
  case Nesting::Parentheses:
    return "int main() { return " + Repeat("(") + "7" + Repeat(")") + "; }";
  case Nesting::UnaryChain:
    return "int main() { return " + Repeat("- ") + "7; }";
  case Nesting::BinaryChain:
    return "int main() { return 7" + Repeat(" + 1") + "; }";
  case Nesting::Statements:
    return "int main() { int x; x = 1; " + Repeat("if (x) { ") +
           Repeat("} ") + "return x + 1; }";
  }
  return "";
}

/// The largest K for which nestedProgram(S, K) is accepted: exactly
/// MaxNestingDepth levels deep.
inline unsigned deepestAccepted(Nesting S) {
  static_assert(MaxNestingDepth % 2 == 0, "Statements nest two at a time");
  return S == Nesting::Statements ? MaxNestingDepth / 2 : MaxNestingDepth - 2;
}

} // namespace srp::test

#endif // SRP_TESTS_TESTHELPERS_H

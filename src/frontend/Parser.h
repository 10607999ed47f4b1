//===- frontend/Parser.h - Mini-C recursive descent parser -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing the Mini-C AST. Errors are collected
/// as "line N: message" strings; parsing recovers at statement boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_FRONTEND_PARSER_H
#define SRP_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include <string>
#include <vector>

namespace srp {

/// How deep Mini-C may nest. Every statement, every operand (so every
/// parenthesis and every prefix operator) and every operator of a binary
/// chain opens one level: `int main() { return ((1)); }` is four levels
/// deep (the return, its operand, and one operand inside each
/// parenthesis). The parser, Sema, lowering and the AST's destructors
/// recurse per level, so deeper input is a parse error ("line N: nesting
/// deeper than 256 levels") instead of a stack overflow. The workloads and
/// generated programs stay under 30 levels. On x86-64 Linux the deepest
/// accepted input of any shape compiles and runs in 1.3 MB of stack under
/// AddressSanitizer (nested `if` blocks; nested parentheses 1.2 MB),
/// about a sixth of the 8 MB a compile-server worker thread gets.
constexpr unsigned MaxNestingDepth = 256;

/// Parses Mini-C \p Source. On any error, the error list is non-empty and
/// the returned program must not be lowered.
ast::Program parseProgram(const std::string &Source,
                          std::vector<std::string> &Errors);

} // namespace srp

#endif // SRP_FRONTEND_PARSER_H

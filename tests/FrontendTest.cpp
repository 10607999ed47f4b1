//===- tests/FrontendTest.cpp - Mini-C frontend tests ---------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

TEST(LexerTest, TokenizesOperatorsAndKeywords) {
  std::vector<std::string> Errors;
  auto Toks = lex("int x = 1 + 2; while (x <= 10) x++;", Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_GE(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "x");
  EXPECT_EQ(Toks[2].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[3].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[3].IntValue, 1);
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
}

TEST(LexerTest, CommentsAndLineNumbers) {
  std::vector<std::string> Errors;
  auto Toks = lex("// line one\n/* block\ncomment */ int x;", Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[0].Line, 3u);
}

TEST(LexerTest, ReportsBadCharacter) {
  std::vector<std::string> Errors;
  lex("int x = $;", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("unexpected character"), std::string::npos);
}

TEST(LexerTest, ReportsOutOfRangeLiteral) {
  std::vector<std::string> Errors;
  auto M = compileMiniC("int main() { return 99999999999999999999; }", Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "line 1: integer literal '99999999999999999999' is "
                       "out of range");
  // The largest int64 still lexes.
  Errors.clear();
  auto Toks = lex("9223372036854775807", Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
}

TEST(ParserTest, ParsesGlobalsStructsFunctions) {
  std::vector<std::string> Errors;
  ast::Program P = parseProgram(R"(
    int g = 5;
    int a[10];
    struct S { int f1; int f2 = 3; } s;
    int add(int x, int y) { return x + y; }
    void main() { print(add(g, s.f2)); }
  )",
                                Errors);
  ASSERT_TRUE(Errors.empty()) << Errors.front();
  ASSERT_EQ(P.Globals.size(), 2u);
  EXPECT_EQ(P.Globals[0].Init, 5);
  EXPECT_EQ(P.Globals[1].ArraySize, 10u);
  ASSERT_EQ(P.Structs.size(), 1u);
  EXPECT_EQ(P.Structs[0].Fields.size(), 2u);
  ASSERT_EQ(P.Functions.size(), 2u);
  EXPECT_EQ(P.Functions[0]->Params.size(), 2u);
  EXPECT_TRUE(P.Functions[0]->ReturnsValue);
  EXPECT_FALSE(P.Functions[1]->ReturnsValue);
}

TEST(ParserTest, DesugarsCompoundAssignment) {
  std::vector<std::string> Errors;
  ast::Program P =
      parseProgram("void main() { int x = 1; x += 2; x++; }", Errors);
  ASSERT_TRUE(Errors.empty()) << Errors.front();
  auto &Body = P.Functions[0]->Body->Body;
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_EQ(Body[1]->K, ast::Stmt::Kind::Assign);
  EXPECT_EQ(Body[1]->Value->K, ast::Expr::Kind::Binary);
  EXPECT_EQ(Body[2]->Value->BinOp, BinOpKind::Add); // x++ -> x = x + 1
}

TEST(ParserTest, ReportsSyntaxError) {
  std::vector<std::string> Errors;
  parseProgram("void main() { if x) {} }", Errors);
  EXPECT_FALSE(Errors.empty());
}

TEST(SemaTest, RejectsUnknownNames) {
  std::vector<std::string> Errors;
  auto M = compileMiniC("void main() { x = 1; }", Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("unknown"), std::string::npos);
}

TEST(SemaTest, RejectsArityMismatch) {
  std::vector<std::string> Errors;
  compileMiniC(R"(
    int f(int a) { return a; }
    void main() { f(1, 2); }
  )",
               Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("arguments"), std::string::npos);
}

TEST(SemaTest, RejectsBreakOutsideLoop) {
  std::vector<std::string> Errors;
  compileMiniC("void main() { break; }", Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("break"), std::string::npos);
}

TEST(SemaTest, MarksAddressTaken) {
  auto M = compileOrDie(R"(
    int g = 1;
    int h = 2;
    void main() { int p = &g; *p = 3; }
  )");
  EXPECT_TRUE(M->getGlobal("g")->isAddressTaken());
  EXPECT_FALSE(M->getGlobal("h")->isAddressTaken());
}

TEST(SemaTest, StructFieldsBecomeObjects) {
  auto M = compileOrDie(R"(
    struct P { int x = 1; int y = 2; } p;
    void main() { p.x = p.y; }
  )");
  MemoryObject *X = M->getGlobal("p.x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->kind(), MemoryObject::Kind::Field);
  EXPECT_EQ(X->initialValue(), 1);
  EXPECT_TRUE(X->isPromotable());
}

TEST(LoweringTest, ProducesValidIR) {
  auto M = compileOrDie(R"(
    int g = 0;
    int fib(int n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    void main() {
      int i;
      for (i = 0; i < 5; i++) g = g + fib(i);
      print(g);
    }
  )");
  expectValid(*M, "after lowering");
}

TEST(LoweringTest, GlobalAccessesAreLoadsAndStores) {
  auto M = compileOrDie(R"(
    int g = 0;
    void main() { g = g + 1; }
  )");
  std::string S = toString(*M);
  EXPECT_NE(S.find("ld [g]"), std::string::npos);
  EXPECT_NE(S.find("st [g]"), std::string::npos);
}

TEST(LoweringTest, ShortCircuitBranches) {
  auto M = compileOrDie(R"(
    int count = 0;
    int bump() { count = count + 1; return 1; }
    void main() {
      if (0 && bump()) { print(1); }
      if (1 || bump()) { print(2); }
    }
  )");
  expectValid(*M, "short-circuit lowering");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  // Neither arm may call bump(): count stays 0.
  EXPECT_EQ(R.FinalMemory.at(M->getGlobal("count")->id())[0], 0);
  ASSERT_EQ(R.Output.size(), 1u);
  EXPECT_EQ(R.Output[0], 2);
}

TEST(SemaTest, RejectsGotoToUndefinedLabel) {
  std::vector<std::string> Errors;
  compileMiniC("void main() { goto nowhere; }", Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("undefined label"), std::string::npos);
}

TEST(SemaTest, RejectsDuplicateLabel) {
  std::vector<std::string> Errors;
  compileMiniC(R"(
    void main() {
      L: print(1);
      L: print(2);
    }
  )",
               Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("redefinition of label"), std::string::npos);
}

TEST(SemaTest, LabelsAreFunctionScoped) {
  // A goto may target a label defined lexically later and in another
  // block; labels in *other* functions stay invisible.
  std::vector<std::string> Errors;
  compileMiniC(R"(
    void f() { Lf: print(0); }
    void main() { goto Lf; }
  )",
               Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("undefined label"), std::string::npos);
}

TEST(LoweringTest, GotoIntoLoopBodyIsIrreducibleButRuns) {
  // The generator's irreducible-region template: a forward goto into a
  // while body gives the loop a second entry. The CFG must lower, verify,
  // and execute: 1 early entry (skipping the load of g into use) plus the
  // regular iterations.
  auto M = compileOrDie(R"(
    int g = 3;
    void main() {
      int i = 0;
      if (g > 2) goto L;
      while (i < 4) {
        print(g);
      L:
        g = g + 1;
        i = i + 1;
      }
      print(g);
    }
  )");
  expectValid(*M, "goto lowering");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  // Entry jumps straight to L (g=3 -> 4, i=1), then three full
  // iterations print 4, 5, 6 before bumping; final print is 7.
  ASSERT_EQ(R.Output.size(), 4u);
  EXPECT_EQ(R.Output[0], 4);
  EXPECT_EQ(R.Output[1], 5);
  EXPECT_EQ(R.Output[2], 6);
  EXPECT_EQ(R.Output[3], 7);
}

TEST(LoweringTest, BackwardGotoFormsLoop) {
  auto M = compileOrDie(R"(
    void main() {
      int n = 0;
    Top:
      n = n + 1;
      print(n);
      if (n < 3) goto Top;
    }
  )");
  expectValid(*M, "backward goto lowering");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Output.size(), 3u);
  EXPECT_EQ(R.Output[2], 3);
}

TEST(LoweringTest, BreakContinueControlFlow) {
  auto M = compileOrDie(R"(
    void main() {
      int i;
      int sum = 0;
      for (i = 0; i < 10; i++) {
        if (i == 3) continue;
        if (i == 6) break;
        sum = sum + i;
      }
      print(sum);
    }
  )");
  expectValid(*M, "break/continue lowering");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Output.size(), 1u);
  EXPECT_EQ(R.Output[0], 0 + 1 + 2 + 4 + 5);
}

//===----------------------------------------------------------------------===
// The nesting limit: the deepest input of each shape parses and runs, one
// level more is a single structured parse error, and input far deeper
// (which once overflowed the stack) is the same one error.
//===----------------------------------------------------------------------===

void expectNestingLimit(Nesting S, int64_t ExitAtLimit) {
  const unsigned AtLimit = deepestAccepted(S);
  std::vector<std::string> Errors;
  auto M = compileMiniC(nestedProgram(S, AtLimit), Errors);
  ASSERT_NE(M, nullptr) << Errors.front();
  expectValid(*M, "deepest accepted input");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, ExitAtLimit);

  const std::string TooDeep = "line 1: nesting deeper than " +
                              std::to_string(MaxNestingDepth) + " levels";
  for (unsigned K : {AtLimit + 1, 20 * AtLimit}) {
    Errors.clear();
    EXPECT_EQ(compileMiniC(nestedProgram(S, K), Errors), nullptr);
    ASSERT_EQ(Errors.size(), 1u) << K << " repetitions";
    EXPECT_EQ(Errors[0], TooDeep);
  }
}

TEST(ParserTest, NestingLimitParentheses) {
  expectNestingLimit(Nesting::Parentheses, 7);
}

TEST(ParserTest, NestingLimitUnaryChain) {
  expectNestingLimit(Nesting::UnaryChain,
                     deepestAccepted(Nesting::UnaryChain) % 2 ? -7 : 7);
}

TEST(ParserTest, NestingLimitBinaryChain) {
  expectNestingLimit(Nesting::BinaryChain,
                     7 + deepestAccepted(Nesting::BinaryChain));
}

TEST(ParserTest, NestingLimitStatements) {
  expectNestingLimit(Nesting::Statements, 2);
}

} // namespace

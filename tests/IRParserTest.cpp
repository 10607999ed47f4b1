//===- tests/IRParserTest.cpp - textual IR parser tests -------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "interp/Interpreter.h"
#include "frontend/Lowering.h"
#include "analysis/CFGCanonicalize.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

std::unique_ptr<Module> parseOrDie(const std::string &Source) {
  std::vector<std::string> Errors;
  auto M = parseIR(Source, Errors);
  for (const auto &E : Errors)
    ADD_FAILURE() << "parse error: " << E;
  if (!M)
    ADD_FAILURE() << "no module";
  return M;
}

TEST(IRParserTest, ParsesGlobalsAndKinds) {
  auto M = parseOrDie(R"(
global x = 5
global buf[8]
global s.f = 2
func void @main() {
entry:
  ret
}
)");
  ASSERT_NE(M->getGlobal("x"), nullptr);
  EXPECT_EQ(M->getGlobal("x")->initialValue(), 5);
  EXPECT_EQ(M->getGlobal("buf")->kind(), MemoryObject::Kind::Array);
  EXPECT_EQ(M->getGlobal("buf")->size(), 8u);
  EXPECT_EQ(M->getGlobal("s.f")->kind(), MemoryObject::Kind::Field);
}

TEST(IRParserTest, ParsesAndExecutesCoreInstructions) {
  auto M = parseOrDie(R"(
global x = 10
global buf[4]
func int @double(%v) {
entry:
  %t = mul %v, 2
  ret %t
}
func void @main() {
entry:
  %a = ld [x]
  %b = call @double(%a)
  st [x], %b
  buf[1] = %b
  %c = buf[1]
  print %c
  %p = &x
  %d = ptrload %p
  print %d
  ptrstore %p, 7
  %e = ld [x]
  print %e
  ret
}
)");
  expectValid(*M, "parsed module");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{20, 20, 7}));
}

TEST(IRParserTest, ParsesControlFlowAndPhis) {
  auto M = parseOrDie(R"(
func int @main() {
entry:
  br loop
loop:
  %i = phi(0:entry, %next:loop)
  %next = add %i, 1
  %c = cmplt %next, 5
  condbr %c, loop, exit
exit:
  ret %next
}
)");
  expectValid(*M, "phi module");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 5);
}

TEST(IRParserTest, ForwardValueReferencesResolved) {
  auto M = parseOrDie(R"(
func int @main() {
entry:
  br body
body:
  %x = phi(1:entry, %y:body)
  %y = add %x, 1
  %c = cmplt %y, 3
  condbr %c, body, done
done:
  ret %y
}
)");
  expectValid(*M, "forward refs");
}

TEST(IRParserTest, RoundTripPrintedModule) {
  // Frontend -> print -> parse -> behaviour identical.
  std::vector<std::string> Errors;
  auto M1 = compileMiniC(R"(
    int g = 3;
    int a[4];
    int helper(int v) { return v * g; }
    void main() {
      int i;
      for (i = 0; i < 4; i++) a[i] = helper(i);
      print(a[3]);
      print(g);
    }
  )",
                         Errors);
  ASSERT_TRUE(M1 != nullptr);
  // Lower locals to SSA so the dump includes phis (a harder round trip).
  for (const auto &F : M1->functions()) {
    DominatorTree DT(*F);
    promoteLocalsToSSA(*F, DT);
    canonicalize(*F);
  }
  Interpreter I1(*M1);
  auto R1 = I1.run();
  ASSERT_TRUE(R1.Ok);

  std::string Text = toString(*M1);
  auto M2 = parseOrDie(Text);
  expectValid(*M2, "round-tripped module");
  Interpreter I2(*M2);
  auto R2 = I2.run();
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R1.Output, R2.Output);
  EXPECT_EQ(R1.ExitValue, R2.ExitValue);
}

TEST(IRParserTest, IgnoresMemorySSAAnnotations) {
  // A dump taken after memory SSA construction still parses: version
  // prefixes, mu/chi lists, and memphi lines are skipped.
  std::vector<std::string> Errors;
  auto M1 = compileMiniC(R"(
    int g = 0;
    void main() {
      int i;
      for (i = 0; i < 3; i++) g = g + 1;
      print(g);
    }
  )",
                         Errors);
  ASSERT_TRUE(M1 != nullptr);
  Function *Main = M1->getFunction("main");
  DominatorTree DT0(*Main);
  promoteLocalsToSSA(*Main, DT0);
  CanonicalCFG CFG = canonicalize(*Main);
  buildMemorySSA(*Main, CFG.DT);

  std::string Text = toString(*M1);
  ASSERT_NE(Text.find("memphi"), std::string::npos);
  auto M2 = parseOrDie(Text);
  expectValid(*M2, "memory-SSA dump reparsed");
  Interpreter I(*M2);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{3}));
}

TEST(IRParserTest, ReportsUnknownInstruction) {
  std::vector<std::string> Errors;
  auto M = parseIR(R"(
func void @main() {
entry:
  frobnicate %x
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("unknown instruction"), std::string::npos);
}

TEST(IRParserTest, ReportsUndefinedValue) {
  std::vector<std::string> Errors;
  auto M = parseIR(R"(
func void @main() {
entry:
  print %nope
  ret
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("undefined value"), std::string::npos);
}

TEST(IRParserTest, ReportsMissingTerminator) {
  std::vector<std::string> Errors;
  auto M = parseIR(R"(
func void @main() {
entry:
  %a = add 1, 2
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(IRParserTest, ReportsUnknownBlock) {
  std::vector<std::string> Errors;
  auto M = parseIR(R"(
func void @main() {
entry:
  br nowhere
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("unknown block"), std::string::npos);
}

TEST(IRParserTest, ReportsOutOfRangeLiteral) {
  std::vector<std::string> Errors;
  auto M = parseIR(R"(
func int @main() {
entry:
  ret 99999999999999999999
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_EQ(Errors[0],
            "line 4: integer literal '99999999999999999999' is out of range");
  // Both ends of the int64 range still parse.
  auto Ok = parseOrDie(R"(
func int @main() {
entry:
  %a = add -9223372036854775808, 9223372036854775807
  ret %a
}
)");
  ASSERT_NE(Ok, nullptr);
  auto R = Interpreter(*Ok).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, -1);
}

// A function with no entry block once reached mem2reg and crashed srpc
// (and a compile server's worker with it). The parser refuses both
// shapes, an empty body and a bare header, at the function's header line.
TEST(IRParserTest, RejectsFunctionWithoutBlocks) {
  for (const char *Src : {"func void @main() {\n}\n", "func void @main\n"}) {
    std::vector<std::string> Errors;
    EXPECT_EQ(parseIR(Src, Errors), nullptr) << Src;
    ASSERT_EQ(Errors.size(), 1u) << Src;
    EXPECT_EQ(Errors[0], "line 1: function 'main' has no blocks");
  }
  std::vector<std::string> Errors;
  auto M = parseIR(R"(func int @main() {
entry:
  ret 0
}
func void @f() {
}
)",
                   Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "line 5: function 'f' has no blocks");
}

// A body that fails used to leave the parser's cursor inside it, so the
// top level went on to report its next line as "expected 'global' or
// 'func'". Each bad body now reports its own error and nothing else.
std::vector<std::string> parseErrors(const std::string &Source) {
  std::vector<std::string> Errors;
  EXPECT_EQ(parseIR(Source, Errors), nullptr);
  return Errors;
}

TEST(IRParserTest, DuplicateLabelReportsOnlyItself) {
  EXPECT_EQ(parseErrors(R"(func void @main() {
entry:
  br next
next:
  br next
next:
  ret
}
)"),
            std::vector<std::string>{"line 6: duplicate block label 'next'"});
}

TEST(IRParserTest, InstructionBeforeLabelReportsOnlyItself) {
  EXPECT_EQ(parseErrors(R"(func void @main() {
  %x = 1
entry:
  ret
}
)"),
            std::vector<std::string>{
                "line 2: instruction before first block label"});
}

TEST(IRParserTest, UnknownInstructionReportsOnlyItself) {
  EXPECT_EQ(parseErrors(R"(func void @main() {
entry:
  frob 1
  ret
}
)"),
            std::vector<std::string>{"line 3: unknown instruction 'frob'"});
}

TEST(IRParserTest, MissingBraceReportsOnlyItself) {
  EXPECT_EQ(parseErrors(R"(func void @main() {
entry:
  ret
)"),
            std::vector<std::string>{
                "line 1: missing '}' at end of function"});
}

TEST(IRParserTest, EachBadBodyReportsItsOwnError) {
  EXPECT_EQ(parseErrors(R"(func void @f() {
entry:
  frob 1
  ret
}
global g = 1
func void @main() {
a:
  ret
a:
  ret
}
)"),
            (std::vector<std::string>{"line 3: unknown instruction 'frob'",
                                      "line 10: duplicate block label 'a'"}));
}

TEST(IRParserTest, CopiesAndNegativeConstants) {
  auto M = parseOrDie(R"(
func int @main() {
entry:
  %a = -7
  %b = %a
  ret %b
}
)");
  Interpreter I(*M);
  auto R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, -7);
}

} // namespace

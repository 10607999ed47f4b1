//===- examples/hotloop_globals.cpp - the paper's Figure 1 scenario -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the paper's motivating example (Fig. 1): a global variable
/// incremented in a hot loop, followed by a loop of function calls. The
/// example prints the IR before and after promotion so you can see the
/// loop body's load/store of x replaced by register traffic with a single
/// load before the loop and a store after it, while the call loop is left
/// to read/write memory.
///
/// Build & run:  ./build/examples/hotloop_globals
///
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "profile/ProfileInfo.h"
#include "promotion/RegisterPromotion.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include <cstdio>

using namespace srp;

int main() {
  // The paper's Fig. 1(a), in Mini-C.
  const char *Source = R"(
    int x = 0;
    void foo() { x = x + 1; }
    void main() {
      int i;
      for (i = 0; i < 100; i++) x++;
      for (i = 0; i < 10; i++) foo();
      print(x);
    }
  )";

  std::vector<std::string> Errors;
  auto M = compileMiniC(Source, Errors);
  if (!M) {
    for (const auto &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }

  // Front half: locals to SSA, canonical CFG, memory SSA.
  struct FnState {
    Function *F;
    CanonicalCFG CFG;
  };
  std::vector<FnState> Fns;
  for (const auto &F : M->functions()) {
    DominatorTree DT(*F);
    promoteLocalsToSSA(*F, DT);
    Fns.push_back({F.get(), canonicalize(*F)});
  }
  for (auto &S : Fns)
    buildMemorySSA(*S.F, S.CFG.DT);

  std::printf("== main() before promotion (memory SSA form) ==\n%s\n",
              toString(*M->getFunction("main")).c_str());

  // Profile feedback from a real run.
  Interpreter Profiler(*M);
  ExecutionResult ProfileRun = Profiler.run();
  ProfileInfo PI = ProfileInfo::fromExecution(ProfileRun);

  for (auto &S : Fns)
    promoteRegisters(*S.F, S.CFG.DT, S.CFG.IT, PI, {});

  DiagnosticEngine DE;
  runChecks(*M, DE, Strictness::Fast);
  std::fputs(diagnosticsToText(DE.diagnostics()).c_str(), stderr);

  std::printf("== main() after promotion ==\n%s\n",
              toString(*M->getFunction("main")).c_str());

  Interpreter Check(*M);
  ExecutionResult After = Check.run();
  std::printf("x at exit: %lld (expect 110)\n",
              static_cast<long long>(After.Output.at(0)));
  std::printf("dynamic loads+stores of scalars: %llu -> %llu\n",
              static_cast<unsigned long long>(ProfileRun.Counts.memOps()),
              static_cast<unsigned long long>(After.Counts.memOps()));
  std::printf("(the paper reduces this example from 200 memory operations "
              "to 2)\n");
  return !DE.hasErrors() && After.Ok ? 0 : 1;
}

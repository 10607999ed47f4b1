//===- tests/NativeJitTest.cpp - native-tier JIT behaviour ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural tests for the x86-64 baseline-JIT tier (jit/NativeJIT.h):
/// hotness tiering (a ledger of calls and retreating edges; bytecode until
/// the threshold, compiled and cached after), on-stack-replacement entry
/// into compiled code at a loop's back edge, the deopt edges (fuel
/// exhaustion mid-JIT, traps raised from compiled code, deopt-and-continue
/// for conditions the templates refuse to encode), direct calls between
/// compiled functions (deopts inside a directly called activation,
/// declines, the depth trap), analysis-manager invalidation when a
/// promoter edits a compiled function, and the W^X lifecycle of the code
/// pages.
///
/// The NativeParityHeavyTest matrix at the bottom is the
/// `srp_native_parity` ctest gate: every workload x promotion mode,
/// executed by all three engines (walk / bytecode / native with a
/// first-call compile threshold), full-ExecutionResult exact match.
///
/// Every JIT-dependent test skips gracefully on hosts the emitter does
/// not support; the fallback test runs everywhere and proves the native
/// engine degrades to bytecode rather than failing.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "interp/Interpreter.h"
#include "ir/CFGEdit.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "jit/NativeJIT.h"
#include "pipeline/Pipeline.h"
#include "support/Statistics.h"
#include "TestHelpers.h"
#include <cinttypes>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace srp;
using namespace srp::test;

namespace {

constexpr uint64_t DefaultFuel = 200'000'000;

/// Full observable-result comparison (the Interp accounting field is
/// engine-specific by design and excluded).
void expectSameResult(const ExecutionResult &A, const ExecutionResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.Ok, B.Ok) << What;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.ExitValue, B.ExitValue) << What;
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.Counts.SingletonLoads, B.Counts.SingletonLoads) << What;
  EXPECT_EQ(A.Counts.SingletonStores, B.Counts.SingletonStores) << What;
  EXPECT_EQ(A.Counts.AliasedLoads, B.Counts.AliasedLoads) << What;
  EXPECT_EQ(A.Counts.AliasedStores, B.Counts.AliasedStores) << What;
  EXPECT_EQ(A.Counts.Copies, B.Counts.Copies) << What;
  EXPECT_EQ(A.Counts.Instructions, B.Counts.Instructions) << What;
  EXPECT_EQ(A.FinalMemory, B.FinalMemory) << What;
  EXPECT_EQ(A.BlockCounts, B.BlockCounts) << What;
  EXPECT_EQ(A.EdgeCounts, B.EdgeCounts) << What;
}

/// A native-engine run with a given compile threshold.
ExecutionResult runNative(Module &M, uint64_t Threshold,
                          AnalysisManager *AM = nullptr,
                          uint64_t Fuel = DefaultFuel) {
  Interpreter I(M, Fuel, InterpEngine::Native, AM);
  I.setJitThreshold(Threshold);
  return I.run();
}

/// Process-wide count of activations that entered compiled code at a
/// retreating edge; tests compare it before and after a run.
uint64_t osrEntries() {
  return stats::snapshot().at("interp.native-osr-entries");
}

/// Process-wide count of calls compiled code made into a compiled
/// callee's direct entry; tests compare it before and after a run.
uint64_t directCalls() {
  return stats::snapshot().at("interp.native-direct-calls");
}

/// A native run at \p Threshold checked against the walker and the
/// bytecode engine field by field; returns the native result and the
/// run's OSR entries through \p Osr.
ExecutionResult expectNativeParity(Module &M, uint64_t Threshold,
                                   const std::string &What, uint64_t &Osr,
                                   uint64_t Fuel = DefaultFuel) {
  ExecutionResult W = Interpreter(M, Fuel, InterpEngine::Walk).run();
  ExecutionResult B = Interpreter(M, Fuel, InterpEngine::Bytecode).run();
  expectSameResult(W, B, What + " [bytecode]");
  const uint64_t Before = osrEntries();
  ExecutionResult N = runNative(M, Threshold, nullptr, Fuel);
  Osr = osrEntries() - Before;
  expectSameResult(B, N, What + " [native]");
  return N;
}

//===--------------------------------------------------------------------===//
// Graceful degradation — runs on every host.
//===--------------------------------------------------------------------===//

TEST(NativeJitTest, NativeEngineFallsBackGracefully) {
  // On unsupported hosts every compile is refused and the native engine
  // is the bytecode engine; on supported hosts the JIT runs. Either way
  // the observable result must match bytecode exactly.
  auto M = compileOrDie(R"(
    int g = 0;
    int f(int x) { g = g + x; return g; }
    int main() {
      int i = 0;
      while (i < 10) { i = i + 1; f(i); }
      print(g);
      return g;
    }
  )");
  ExecutionResult B = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  ExecutionResult N = runNative(*M, 1);
  expectSameResult(B, N, "fallback-or-jit");
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 55);
  if (jit::nativeJitSupported()) {
    EXPECT_GE(N.Interp.FunctionsCompiled, 2u);
    EXPECT_GE(N.Interp.NativeCalls, 1u);
  } else {
    EXPECT_EQ(N.Interp.FunctionsCompiled, 0u);
    EXPECT_EQ(N.Interp.NativeCalls, 0u);
  }
}

//===--------------------------------------------------------------------===//
// Hotness tiering through the analysis-manager cache.
//===--------------------------------------------------------------------===//

TEST(NativeJitTest, TieringCompilesAtThresholdAndCachesAcrossRuns) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  auto M = compileOrDie(R"(
    int g = 0;
    void bump() { g = g + 1; }
    void main() { bump(); }
  )");
  AnalysisManager AM(M.get());

  // Threshold 2 and no loops: each run ticks each function's ledger once
  // (its one call), so the first run stays on bytecode and only warms it.
  ExecutionResult R1 = runNative(*M, 2, &AM);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(R1.Interp.FunctionsCompiled, 0u);
  EXPECT_EQ(R1.Interp.NativeCalls, 0u);

  // Second run crosses the threshold: both functions compile and run
  // natively.
  ExecutionResult R2 = runNative(*M, 2, &AM);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Interp.FunctionsCompiled, 2u);
  EXPECT_EQ(R2.Interp.NativeCalls, 2u);

  // Third run reuses the cached code: native calls, zero compiles.
  ExecutionResult R3 = runNative(*M, 2, &AM);
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(R3.Interp.FunctionsCompiled, 0u);
  EXPECT_EQ(R3.Interp.NativeCalls, 2u);

  // All three runs are observably identical.
  expectSameResult(R1, R2, "run1-vs-run2");
  expectSameResult(R1, R3, "run1-vs-run3");
}

TEST(NativeJitTest, LedgerTicksOnCallsAndRetreatingEdges) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  auto M = compileOrDie(R"(
    int g = 0;
    void bump() { g = g + 1; }
    void main() {
      int i = 0;
      while (i < 3) { bump(); i = i + 1; }
    }
  )");
  AnalysisManager AM(M.get());
  Function *Main = M->getFunction("main");
  Function *Bump = M->getFunction("bump");
  ASSERT_TRUE(Main && Bump);

  // Far below the threshold: main ticks once for its call and once per
  // back edge (3), bump once per call (3); nothing compiles.
  ExecutionResult R1 = runNative(*M, 100, &AM);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(AM.get<jit::NativeCode>(*Main).HotCount, 4u);
  EXPECT_EQ(AM.get<jit::NativeCode>(*Bump).HotCount, 3u);
  EXPECT_EQ(R1.Interp.FunctionsCompiled, 0u);

  // Threshold 7: main's ledger reaches 7 on the second back edge of the
  // next run (5 at the call, 6, 7), so that activation continues in
  // compiled code mid-loop. Compiled back edges tick nothing, and bump's
  // three calls leave its ledger at 6: still bytecode.
  uint64_t Before = osrEntries();
  ExecutionResult R2 = runNative(*M, 7, &AM);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(osrEntries() - Before, 1u);
  EXPECT_EQ(R2.Interp.FunctionsCompiled, 1u);
  EXPECT_EQ(R2.Interp.NativeCalls, 0u);
  EXPECT_EQ(AM.get<jit::NativeCode>(*Main).HotCount, 7u);
  EXPECT_EQ(AM.get<jit::NativeCode>(*Bump).HotCount, 6u);

  // Third run: main is entered natively on its call; bump compiles on
  // its first call (its 7th tick) and every call runs natively, the last
  // two as direct calls from main's code, which tick the ledger too.
  Before = osrEntries();
  const uint64_t DirectBefore = directCalls();
  ExecutionResult R3 = runNative(*M, 7, &AM);
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(osrEntries() - Before, 0u);
  EXPECT_EQ(directCalls() - DirectBefore, 2u);
  EXPECT_EQ(R3.Interp.FunctionsCompiled, 1u);
  EXPECT_EQ(R3.Interp.NativeCalls, 4u);
  EXPECT_EQ(AM.get<jit::NativeCode>(*Main).HotCount, 8u);
  EXPECT_EQ(AM.get<jit::NativeCode>(*Bump).HotCount, 9u);
  expectSameResult(R1, R2, "run1-vs-run2");
  expectSameResult(R1, R3, "run1-vs-run3");
}

TEST(NativeJitTest, PromoterEditInvalidatesCompiledCode) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  auto M = compileOrDie(R"(
    int g = 0;
    void bump() { if (g < 100) g = g + 1; }
    void main() { bump(); bump(); }
  )");
  AnalysisManager AM(M.get());
  ExecutionResult R1 = runNative(*M, 1, &AM);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(R1.Interp.FunctionsCompiled, 2u); // main + bump

  // Unchanged IR: nothing recompiles.
  ExecutionResult R2 = runNative(*M, 1, &AM);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Interp.FunctionsCompiled, 0u);
  EXPECT_GE(R2.Interp.NativeCalls, 3u);

  // An instruction-level edit (here a dead add) retires exactly the edited
  // function's code alongside its decode; the next run recompiles it.
  Function *Bump = M->getFunction("bump");
  ASSERT_NE(Bump, nullptr);
  Bump->entry()->insertBeforeTerminator(std::make_unique<BinOpInst>(
      BinOpKind::Add, M->constant(1), M->constant(2), "dead"));
  ExecutionResult R3 = runNative(*M, 1, &AM);
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(R3.Interp.FunctionsCompiled, 1u);

  // A CFG edit does the same: split bump's critical edge.
  BasicBlock *Branch = Bump->entry();
  ASSERT_EQ(Branch->succs().size(), 2u) << toString(*Bump);
  splitEdge(Branch, Branch->succs()[1]);
  ExecutionResult R4 = runNative(*M, 1, &AM);
  ASSERT_TRUE(R4.Ok) << R4.Error;
  EXPECT_EQ(R4.Interp.FunctionsCompiled, 1u);
  expectSameResult(Interpreter(*M, DefaultFuel, InterpEngine::Walk).run(), R4,
                   "after the edits");
}

//===--------------------------------------------------------------------===//
// Deopt edges.
//===--------------------------------------------------------------------===//

TEST(NativeJitTest, FuelExhaustionDeoptsAtExactInstruction) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Calls inside a loop stress both the bytecode segment accounting and
  // the JIT's per-instruction fuel ledger: for every budget, the native
  // run must trap (or finish) exactly where the bytecode run does.
  auto M = compileOrDie(R"(
    int g = 0;
    int addone(int x) { return x + 1; }
    void main() {
      int i = 0;
      while (i < 4) { i = addone(i); g = g + i; }
      print(g);
    }
  )");
  ExecutionResult Full = Interpreter(*M).run();
  ASSERT_TRUE(Full.Ok) << Full.Error;
  const uint64_t Total = Full.Counts.Instructions;
  ASSERT_LT(Total, 500u) << "sweep program grew too large";

  bool SawDeopt = false;
  for (uint64_t Fuel = 0; Fuel <= Total + 2; ++Fuel) {
    ExecutionResult B =
        Interpreter(*M, Fuel, InterpEngine::Bytecode).run();
    ExecutionResult N = runNative(*M, 1, nullptr, Fuel);
    expectSameResult(B, N, "fuel=" + std::to_string(Fuel));
    if (Fuel < Total)
      EXPECT_EQ(N.Error, "out of fuel (infinite loop?)") << Fuel;
    else
      EXPECT_TRUE(N.Ok) << Fuel;
    SawDeopt |= N.Interp.Deopts != 0;
  }
  // At least the mid-run budgets must have exhausted fuel inside
  // compiled code and resumed in the bytecode loop.
  EXPECT_TRUE(SawDeopt);
}

TEST(NativeJitTest, TrapInsideCompiledCodeMatchesBytecode) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // The divisor reaches zero only after several iterations, so the trap
  // is raised from inside hot compiled code; the deopt must re-execute
  // the faulting instruction in the bytecode loop and produce the exact
  // trap message, counters, and partial output.
  auto M = compileOrDie(R"(
    int g = 0;
    int f(int d) { return 100 / d; }
    void main() {
      int i = 3;
      while (i > 0 - 1) { print(i); g = g + f(i); i = i - 1; }
    }
  )");
  ExecutionResult B = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  EXPECT_FALSE(B.Ok);
  EXPECT_EQ(B.Error, "division by zero");
  ExecutionResult N = runNative(*M, 1);
  expectSameResult(B, N, "trap-in-jit");
  EXPECT_GE(N.Interp.NativeCalls, 1u);
  EXPECT_GE(N.Interp.Deopts, 1u);
}

TEST(NativeJitTest, DeoptResumesAndCompletesTheFrame) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Division by -1 is a condition the templates refuse to encode (the
  // INT64_MIN/-1 hardware fault), so every f() call deopts mid-frame —
  // but it is NOT a trap: the bytecode loop computes the quotient and
  // the frame runs to its Ret. This exercises resume-and-continue, not
  // just resume-and-trap.
  auto M = compileOrDie(R"(
    int d;
    int f(int x) { return x / d; }
    int main() {
      d = 0 - 1;
      int s = 0;
      int i = 1;
      while (i < 6) { s = s + f(i); i = i + 1; }
      print(s);
      return 0 - s;
    }
  )");
  ExecutionResult B = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  ASSERT_TRUE(B.Ok) << B.Error;
  ASSERT_EQ(B.ExitValue, 15); // -(-1-2-3-4-5)
  ExecutionResult N = runNative(*M, 1);
  expectSameResult(B, N, "deopt-continue");
  EXPECT_GE(N.Interp.NativeCalls, 5u);
  EXPECT_GE(N.Interp.Deopts, 5u);
}

TEST(NativeJitTest, OutOfBoundsTrapFromCompiledCode) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  auto M = compileOrDie(R"(
    int a[4];
    int main() {
      int i = 0;
      int s = 0;
      while (i <= 4) { s = s + a[i]; i = i + 1; }
      return s;
    }
  )");
  ExecutionResult B = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  EXPECT_FALSE(B.Ok);
  EXPECT_EQ(B.Error, "out-of-bounds read of a");
  ExecutionResult N = runNative(*M, 1);
  expectSameResult(B, N, "oob-in-jit");
  EXPECT_GE(N.Interp.Deopts, 1u);
}

TEST(NativeJitTest, StackOverflowThroughNativeFramesMatches) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Recursion through the native call helper: the depth ledger must
  // travel with the context and trap with the same message and counts.
  auto M = compileOrDie(R"(
    int f(int n) { return f(n + 1); }
    int main() { return f(0); }
  )");
  ExecutionResult B = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  EXPECT_FALSE(B.Ok);
  EXPECT_EQ(B.Error, "call stack overflow in f");
  ExecutionResult N = runNative(*M, 1);
  expectSameResult(B, N, "stack-overflow-native");
  EXPECT_GE(N.Interp.NativeCalls, 1u);
}

//===--------------------------------------------------------------------===//
// On-stack replacement: entering compiled code at a retreating edge.
//===--------------------------------------------------------------------===//

TEST(NativeJitTest, OnceCalledLoopEntersNativeCodeDuringItsFirstCall) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // main is called once, so a call count would never make it hot; its
  // back edges do, and the same activation finishes the loop natively.
  auto M = compileOrDie(R"(
    int g = 0;
    int main() {
      int i = 0;
      while (i < 1000) { g = g + i; i = i + 1; }
      print(g);
      return g;
    }
  )");
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(*M, 16, "once-called-loop", Osr);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 499500);
  EXPECT_EQ(Osr, 1u);
  EXPECT_EQ(N.Interp.FunctionsCompiled, 1u);
  EXPECT_EQ(N.Interp.NativeCalls, 0u); // never *called* natively
  EXPECT_EQ(N.Interp.Deopts, 0u);
}

TEST(NativeJitTest, FuelSweepAcrossOsrEdge) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Threshold 4 hands the activation over on its third back edge; every
  // budget from zero to completion must trap (or finish) at the same
  // instruction with the same counts as bytecode, on both sides of the
  // handover and across the deopts that fuel exhaustion causes after it.
  auto M = compileOrDie(R"(
    int g = 0;
    int addone(int x) { return x + 1; }
    void main() {
      int i = 0;
      while (i < 8) { i = addone(i); g = g + i; }
      print(g);
    }
  )");
  ExecutionResult Full = Interpreter(*M, DefaultFuel,
                                     InterpEngine::Bytecode).run();
  ASSERT_TRUE(Full.Ok) << Full.Error;
  const uint64_t Total = Full.Counts.Instructions;
  ASSERT_LT(Total, 500u) << "sweep program grew too large";

  bool SawOsrThenDeopt = false;
  uint64_t FuelAtFirstOsr = 0;
  for (uint64_t Fuel = 0; Fuel <= Total + 2; ++Fuel) {
    uint64_t Osr = 0;
    ExecutionResult N = expectNativeParity(
        *M, 4, "fuel=" + std::to_string(Fuel), Osr, Fuel);
    if (Fuel < Total)
      EXPECT_EQ(N.Error, "out of fuel (infinite loop?)") << Fuel;
    else
      EXPECT_TRUE(N.Ok) << Fuel;
    if (Osr && !FuelAtFirstOsr)
      FuelAtFirstOsr = Fuel;
    SawOsrThenDeopt |= Osr != 0 && N.Interp.Deopts != 0;
  }
  // Budgets that run out before the third back edge never get there.
  EXPECT_GT(FuelAtFirstOsr, 0u);
  EXPECT_TRUE(SawOsrThenDeopt);
}

TEST(NativeJitTest, TrapsAfterOsrMatchBytecode) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Both traps fire dozens of iterations after the handover, so compiled
  // code deopts and the bytecode loop raises them.
  auto OutOfBounds = compileOrDie(R"(
    int a[4];
    int main() {
      int i = 0;
      int s = 0;
      while (i < 100) { s = s + a[i / 20]; a[i % 4] = i; i = i + 1; }
      return s;
    }
  )");
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(*OutOfBounds, 8, "oob-after-osr", Osr);
  EXPECT_EQ(N.Error, "out-of-bounds read of a");
  EXPECT_EQ(Osr, 1u);
  EXPECT_EQ(N.Interp.Deopts, 1u);

  auto DivZero = compileOrDie(R"(
    int main() {
      int i = 0;
      int s = 0;
      while (i < 100) { print(i); s = s + 1000 / (50 - i); i = i + 1; }
      return s;
    }
  )");
  N = expectNativeParity(*DivZero, 8, "div-zero-after-osr", Osr);
  EXPECT_EQ(N.Error, "division by zero");
  EXPECT_EQ(N.Output.size(), 51u);
  EXPECT_EQ(Osr, 1u);
  EXPECT_EQ(N.Interp.Deopts, 1u);
}

TEST(NativeJitTest, MinOverMinusOneDeoptReentersCompiledLoop) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Division by -1 deopts (idiv faults on INT64_MIN / -1) but is no trap:
  // the bytecode loop computes the wrapped quotient, runs on to the back
  // edge, and re-enters the compiled loop there. Every iteration after
  // the handover makes that round trip, INT64_MIN / -1 included.
  auto M = compileOrDie(R"(
    int d;
    int m;
    int main() {
      d = 0 - 1;
      m = 0 - 9223372036854775807 - 1;
      int s = 0;
      int i = 0;
      while (i < 20) {
        print(m / d);
        print(m % d);
        s = s + i / d;
        i = i + 1;
      }
      print(s);
      return s;
    }
  )");
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(*M, 4, "min-over-minus-one", Osr);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.Output.front(), INT64_MIN);
  EXPECT_EQ(N.Output[1], 0);
  EXPECT_EQ(N.ExitValue, -190);
  // The handover happens on the third back edge; each of the remaining
  // 17 iterations deopts once and re-enters at the next back edge.
  EXPECT_EQ(Osr, 18u);
  EXPECT_EQ(N.Interp.Deopts, 17u);
}

TEST(NativeJitTest, OsrFrameSurvivesArenaGrowthInCallee) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Without mem2reg every scalar local lives in the frame-local arena.
  // After main's loop is handed over, each iteration recurses deeper
  // than any before, so callees reallocate both shared arenas under the
  // compiled frame; the frame must follow them, both in compiled code
  // and in the bytecode loop after the division by -1 deopts it.
  auto M = compileOrDie(R"(
    int d;
    int deep(int n) {
      int k = n;
      if (k == 0) return 0;
      return 1 + deep(k - 1);
    }
    int main() {
      d = 0 - 1;
      int s = 0;
      int i = 0;
      while (i < 40) {
        int r = deep(i * 9);
        s = s + r / d;
        i = i + 1;
      }
      print(s);
      return s;
    }
  )");
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(*M, 3, "arena-growth", Osr);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, -7020); // -(9 * (0 + 1 + ... + 39))
  EXPECT_GE(Osr, 2u);
  EXPECT_GE(N.Interp.Deopts, 1u);
}

TEST(NativeJitTest, OsrUnderRecursion) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Threshold 25 is crossed inside walk(10)'s first loop. The activations
  // below it are entered natively on their calls; the ones above it are
  // suspended in bytecode and take over their second loops at its first
  // back edge, one OSR entry per activation.
  auto M = compileOrDie(R"(
    int g = 0;
    int walk(int n) {
      int i = 0;
      while (i < 10) { g = g + n * i; i = i + 1; }
      if (n > 0) walk(n - 1);
      int j = 0;
      while (j < 10) { g = g + j; j = j + 1; }
      return g;
    }
    int main() { print(walk(12)); return g; }
  )");
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(*M, 25, "recursion", Osr);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(Osr, 3u); // walk(10) loop 1; walk(11) and walk(12) loop 2
  EXPECT_EQ(N.Interp.FunctionsCompiled, 1u);
  EXPECT_EQ(N.Interp.NativeCalls, 10u); // walk(9) ... walk(0)
}

//===--------------------------------------------------------------------===//
// Direct calls: compiled code calling a compiled callee's direct entry.
// At threshold 1 every function compiles on its first call; a call site's
// first execution resolves the callee through the engine's helper, every
// later one calls the direct entry, which accepts or declines.
//===--------------------------------------------------------------------===//

/// A native run at threshold 1 checked like expectNativeParity; returns
/// the native result and the run's direct calls through \p Direct, also
/// checking the statistic against the run's own count.
ExecutionResult expectDirectParity(Module &M, const std::string &What,
                                   uint64_t &Direct,
                                   uint64_t Fuel = DefaultFuel) {
  const uint64_t Before = directCalls();
  uint64_t Osr = 0;
  ExecutionResult N = expectNativeParity(M, 1, What, Osr, Fuel);
  Direct = directCalls() - Before;
  EXPECT_EQ(Direct, N.Interp.DirectCalls) << What;
  EXPECT_LE(Direct, N.Interp.NativeCalls) << What;
  return N;
}

TEST(NativeJitTest, DirectlyCalledCalleeDeoptsAfterWarmUp) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // The divisor reaches zero on the 21st call of f; calls 2-21 are direct,
  // so the trap fires in a directly called activation, which deopts and
  // is finished (here: trapped) by the resume helper.
  auto DivZero = compileOrDie(R"(
    int g = 0;
    int f(int d) { return 100 / d; }
    void main() {
      int i = 20;
      while (i > 0 - 1) { print(i); g = g + f(i); i = i - 1; }
    }
  )");
  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*DivZero, "direct-div-zero", Direct);
  EXPECT_EQ(N.Error, "division by zero");
  EXPECT_EQ(Direct, 20u);
  EXPECT_EQ(N.Interp.Deopts, 1u);

  // Division by -1 deopts on every call without trapping: the resume
  // helper runs the rest of f in the bytecode loop, including its call
  // to g, and f returns its value to the compiled caller.
  auto DivMinusOne = compileOrDie(R"(
    int d;
    int g(int x) { return x * 2; }
    int f(int x) { int q = x / d; return q + g(x); }
    int main() {
      d = 0 - 1;
      int s = 0;
      int i = 0;
      while (i < 10) { s = s + f(i); i = i + 1; }
      print(s);
      return s;
    }
  )");
  N = expectDirectParity(*DivMinusOne, "direct-div-minus-one", Direct);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 45);
  EXPECT_EQ(Direct, 9u);                  // f's calls 2-10
  EXPECT_EQ(N.Interp.Deopts, 10u);        // every call of f
  EXPECT_EQ(N.Interp.NativeCalls, 21u);   // main, f x10, g x10
  EXPECT_EQ(N.Interp.FunctionsCompiled, 3u);

  // An out-of-bounds read on the fifth call, the fourth direct one.
  auto OutOfBounds = compileOrDie(R"(
    int a[4];
    int f(int i) { return a[i]; }
    int main() {
      int s = 0;
      int i = 0;
      while (i < 8) { s = s + f(i); i = i + 1; }
      return s;
    }
  )");
  N = expectDirectParity(*OutOfBounds, "direct-oob", Direct);
  EXPECT_EQ(N.Error, "out-of-bounds read of a");
  EXPECT_EQ(Direct, 4u);
  EXPECT_EQ(N.Interp.Deopts, 1u);
}

TEST(NativeJitTest, DirectCallDeclinesWhenTheArenaMustGrow) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Without mem2reg every local lives in the frame-local arena. Each
  // iteration recurses deeper than any before, so at the frontier the
  // callee's frame needs more arena than is reserved: the direct entry
  // declines, the call helper grows both arenas, and the compiled caller
  // re-anchors its frame — its argument and its frame-local scalars are
  // read again after the call returns.
  auto M = compileOrDie(R"(
    int deep(int n) {
      int k = n;
      int twice = n + n;
      if (k == 0) return 0;
      int r = deep(k - 1);
      return r + twice - k + n - n;
    }
    int main() {
      int s = 0;
      int i = 0;
      while (i < 40) { s = s + deep(i * 9); i = i + 1; }
      print(s);
      return s;
    }
  )");
  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*M, "direct-decline", Direct);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 835380); // sum over i < 40 of 9i(9i+1)/2
  EXPECT_GT(Direct, 0u);
  // Without declines only three native calls would avoid the direct
  // entry: main's (from the engine) and each call site's first execution.
  EXPECT_GT(N.Interp.NativeCalls - Direct, 3u);
}

TEST(NativeJitTest, RecursionThroughDirectCallsReachesTheDepthTrap) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // main and f's first activation call through the helper (their call
  // sites are not resolved yet); f's activations at depths 2-399 call
  // directly, except where the arenas must grow; at depth 400 the direct
  // entry declines and the helper raises the trap. Every call counts as
  // a native call, as it did through the helper alone.
  auto M = compileOrDie(R"(
    int f(int n) { return f(n + 1); }
    int main() { return f(0); }
  )");
  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*M, "direct-depth-trap", Direct);
  EXPECT_EQ(N.Error, "call stack overflow in f");
  EXPECT_EQ(N.Interp.NativeCalls, 401u); // main and f at depths 1-400
  EXPECT_LE(Direct, 398u);
  EXPECT_GE(Direct, 390u); // a few declines at the arenas' growth points
}

TEST(NativeJitTest, FuelSweepAcrossDirectCalls) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Every budget from zero to completion: each one runs out at a
  // different instruction, so the sweep exhausts fuel inside directly
  // called activations of f and g, in f's post-call segment, and at
  // every segment's first instruction (where compiled code cannot prepay
  // and deopts). Each must trap exactly as bytecode does, after exactly
  // as many instructions as the budget allows.
  auto M = compileOrDie(R"(
    int g(int x) { return x + 1; }
    int f(int x) {
      int y = g(x);
      print(y);
      if (y > 3) return y + x;
      return y - x;
    }
    void main() {
      int i = 0;
      int s = 0;
      while (i < 6) { s = s + f(i); i = i + 1; }
      print(s);
    }
  )");
  ExecutionResult Full = Interpreter(*M, DefaultFuel,
                                     InterpEngine::Bytecode).run();
  ASSERT_TRUE(Full.Ok) << Full.Error;
  const uint64_t Total = Full.Counts.Instructions;
  ASSERT_LT(Total, 1000u) << "sweep program grew too large";

  uint64_t ExhaustedAfterDirectCalls = 0;
  for (uint64_t Fuel = 0; Fuel <= Total + 2; ++Fuel) {
    uint64_t Direct = 0;
    ExecutionResult N = expectDirectParity(
        *M, "fuel=" + std::to_string(Fuel), Direct, Fuel);
    if (Fuel < Total) {
      EXPECT_EQ(N.Error, "out of fuel (infinite loop?)") << Fuel;
      EXPECT_EQ(N.Counts.Instructions, Fuel);
      if (Direct && N.Interp.Deopts)
        ++ExhaustedAfterDirectCalls;
    } else {
      EXPECT_TRUE(N.Ok) << Fuel;
      EXPECT_EQ(Direct, 10u); // calls 2-6 of f and of g
    }
  }
  EXPECT_GT(ExhaustedAfterDirectCalls, 0u);
}

TEST(NativeJitTest, ArityMismatchFromCompiledCaller) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Mini-C cannot spell a wrong-arity call, so one is added through the
  // API after main's loop, which has called f directly by then.
  auto M = compileOrDie(R"(
    int f(int x) { return x + 1; }
    int main() {
      int s = 0;
      int i = 0;
      while (i < 5) { s = s + f(i); i = i + 1; }
      print(s);
      return s;
    }
  )");
  Function *Main = M->getFunction("main");
  Function *F = M->getFunction("f");
  ASSERT_TRUE(Main && F);
  BasicBlock *Exit = nullptr;
  for (BasicBlock *BB : Main->blocks())
    if (isa<RetInst>(BB->terminator()))
      Exit = BB;
  ASSERT_NE(Exit, nullptr);
  Exit->insertBeforeTerminator(std::make_unique<CallInst>(
      F, std::vector<Value *>{M->constant(1), M->constant(2)}, Type::Int));

  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*M, "direct-arity", Direct);
  EXPECT_EQ(N.Error, "arity mismatch calling f");
  EXPECT_EQ(N.Output, std::vector<int64_t>{15});
  EXPECT_EQ(Direct, 4u);
  EXPECT_EQ(N.Interp.FunctionsCompiled, 2u);
}

TEST(NativeJitTest, DirectEntrySeedsFrameLocalMemory) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Mini-C has no local arrays; build them through the API. Every
  // activation of f must start with all eight cells of arr at 7 and big at
  // a constant wider than 32 bits, whether the engine or the direct entry
  // pushes its frame: f updates the first and last cell and big, so a
  // frame that inherits its predecessor's cells returns more.
  auto M = std::make_unique<Module>("frame-locals");
  Function *F = M->createFunction("f", Type::Int);
  Value *X = F->addArgument("x");
  MemoryObject *Arr = F->createLocal("arr", MemoryObject::Kind::Array, 8, 7);
  MemoryObject *Big =
      F->createLocal("big", MemoryObject::Kind::Local, 1, int64_t(1) << 40);
  IRBuilder FB(F->createBlock("entry"));
  Value *First = FB.constant(0), *Last = FB.constant(7);
  FB.arrayStore(Arr, First, FB.add(FB.arrayLoad(Arr, First), X));
  FB.arrayStore(Arr, Last, FB.add(FB.arrayLoad(Arr, Last), FB.constant(7)));
  FB.store(Big, FB.add(FB.load(Big), X));
  FB.ret(FB.add(FB.add(FB.arrayLoad(Arr, First), FB.arrayLoad(Arr, Last)),
                FB.load(Big)));

  Function *Main = M->createFunction("main", Type::Int);
  BasicBlock *Entry = Main->createBlock("entry");
  BasicBlock *Head = Main->createBlock("head");
  BasicBlock *Body = Main->createBlock("body");
  BasicBlock *Exit = Main->createBlock("exit");
  IRBuilder B(Entry);
  B.br(Head);
  B.setInsertPoint(Head);
  PhiInst *I = B.phi(Type::Int, "i");
  PhiInst *S = B.phi(Type::Int, "s");
  B.condBr(B.cmpLT(I, B.constant(7)), Body, Exit);
  B.setInsertPoint(Body);
  Value *S2 = B.add(S, B.call(F, {I}));
  Value *I2 = B.add(I, B.constant(1));
  B.br(Head);
  I->addIncoming(B.constant(0), Entry);
  I->addIncoming(I2, Body);
  S->addIncoming(B.constant(0), Entry);
  S->addIncoming(S2, Body);
  B.setInsertPoint(Exit);
  B.print(S);
  B.ret(S);

  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*M, "direct-frame-locals", Direct);
  ASSERT_TRUE(N.Ok) << N.Error;
  // f(x) = (7 + x) + 14 + (2^40 + x), summed over x = 0..6.
  EXPECT_EQ(N.ExitValue, 7 * (21 + (int64_t(1) << 40)) + 2 * 21);
  EXPECT_EQ(Direct, 6u);
}

TEST(NativeJitTest, WideCallSitesGoDirect) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  // Every frame keeps room past its slots for its widest call, so a call
  // site of any arity goes direct: main's call of mid from an engine-pushed
  // frame, and mid's call of leaf from a directly entered one.
  constexpr unsigned Wide = 20;
  auto List = [](const std::string &First, const std::string &Rest) {
    std::string L = First;
    for (unsigned K = 1; K != Wide; ++K)
      L += ", " + Rest + std::to_string(K);
    return L;
  };
  const std::string Params = List("int a0", "int a");
  auto M = compileOrDie(
      "int leaf(" + Params + ") { return a0 + a19; }\n" + "int mid(" +
      Params + ") { return leaf(" + List("a0", "a") + ") + a1; }\n" +
      "int main() {\n  int s = 0;\n  int i = 0;\n"
      "  while (i < 5) { s = s + mid(" + List("i", "") +
      "); i = i + 1; }\n  print(s);\n  return s;\n}\n");
  uint64_t Direct = 0;
  ExecutionResult N = expectDirectParity(*M, "wide-calls", Direct);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 10 + 5 * 20);
  EXPECT_EQ(Direct, 8u);                 // mid's and leaf's calls 2-5
  EXPECT_EQ(N.Interp.NativeCalls, 11u); // main, mid x5, leaf x5

  // A wide recursion that outgrows the register arena: at each growth
  // point the last frame a direct entry accepts still has room to stage
  // its own call's arguments, and the next frame declines.
  auto Deep = compileOrDie(
      "int wide(" + Params + ") {\n  if (a0 == 0) return a19;\n" +
      "  return wide(" + List("a0 - 1", "a") + ") + a1;\n}\n" +
      "int main() {\n  int s = 0;\n  int i = 0;\n"
      "  while (i < 5) { s = s + wide(" + List("i * 40", "") +
      "); i = i + 1; }\n  print(s);\n  return s;\n}\n");
  N = expectDirectParity(*Deep, "wide-recursion", Direct);
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.ExitValue, 5 * 19 + 40 * 10);
  EXPECT_EQ(N.Interp.NativeCalls, 406u); // main, wide at 40i + 1 per i
  EXPECT_GT(Direct, 0u);
  // Beyond main's call and each call site's first execution: declines.
  EXPECT_GT(N.Interp.NativeCalls - Direct, 3u);
}

//===--------------------------------------------------------------------===//
// W^X lifecycle.
//===--------------------------------------------------------------------===//

#if defined(__linux__)
TEST(NativeJitTest, CompiledCodePagesAreNeverWritableAndExecutable) {
  if (!jit::nativeJitSupported())
    GTEST_SKIP() << "no baseline JIT on this host";
  auto M = compileOrDie(R"(
    int main() { return 41 + 1; }
  )");
  AnalysisManager AM(M.get());
  ExecutionResult R = runNative(*M, 1, &AM);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.ExitValue, 42);

  Function *Main = M->getFunction("main");
  ASSERT_NE(Main, nullptr);
  jit::NativeCode &NC = AM.get<jit::NativeCode>(*Main);
  ASSERT_NE(NC.Entry, nullptr);
  ASSERT_TRUE(NC.Buf.executable());
  const uintptr_t Addr = reinterpret_cast<uintptr_t>(NC.Buf.data());

  // The finalized code page must be r-x: executable, not writable.
  std::ifstream Maps("/proc/self/maps");
  ASSERT_TRUE(Maps.good());
  std::string Line;
  bool Found = false;
  while (std::getline(Maps, Line)) {
    uintptr_t Lo = 0, Hi = 0;
    char Perms[5] = {0};
    if (std::sscanf(Line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &Lo,
                    &Hi, Perms) != 3)
      continue;
    if (Addr < Lo || Addr >= Hi)
      continue;
    Found = true;
    EXPECT_EQ(Perms[0], 'r') << Line;
    EXPECT_EQ(Perms[1], '-') << "code page is writable: " << Line;
    EXPECT_EQ(Perms[2], 'x') << "code page is not executable: " << Line;
    break;
  }
  EXPECT_TRUE(Found) << "code buffer not found in /proc/self/maps";
}
#endif // __linux__

//===--------------------------------------------------------------------===//
// The srp_native_parity gate: workloads x modes x all three engines.
//===--------------------------------------------------------------------===//

const char *GateWorkloads[] = {"compress.mc", "db.mc",      "eqntott.mc",
                               "gcc.mc",      "go.mc",      "ijpeg.mc",
                               "li.mc",       "m88ksim.mc", "mpeg.mc",
                               "perl.mc",     "spice.mc",   "vortex.mc"};

std::string loadWorkload(const std::string &File) {
  std::string Path = std::string(SRP_WORKLOAD_DIR) + "/" + File;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct GateCase {
  const char *File;
  PromotionMode Mode;
};

std::string gateCaseName(const ::testing::TestParamInfo<GateCase> &Info) {
  std::string Name = Info.param.File;
  Name = Name.substr(0, Name.find('.'));
  return Name + "_" + promotionModeName(Info.param.Mode);
}

class NativeParityHeavyTest : public ::testing::TestWithParam<GateCase> {};

/// Full pipeline on the workload, then the *transformed* module under all
/// three engines — promoted IR shapes (copies, register phis, dummy
/// loads, superblock tails) are exactly what the JIT templates must get
/// right. Exact-match ExecutionResult across the engine triangle.
TEST_P(NativeParityHeavyTest, ThreeEnginesAgreeOnTransformedModule) {
  const GateCase &C = GetParam();
  PipelineOptions Opts;
  Opts.Mode = C.Mode;
  PipelineResult R =
      PipelineBuilder().options(Opts).run(loadWorkload(C.File));
  ASSERT_TRUE(R.Ok) << C.File;
  ASSERT_NE(R.M, nullptr);
  const std::string What =
      std::string(C.File) + "/" + promotionModeName(C.Mode);

  ExecutionResult W =
      Interpreter(*R.M, DefaultFuel, InterpEngine::Walk).run();
  ExecutionResult B =
      Interpreter(*R.M, DefaultFuel, InterpEngine::Bytecode).run();
  ExecutionResult N = runNative(*R.M, 1);
  expectSameResult(W, B, What + " [bytecode]");
  expectSameResult(W, N, What + " [native]");
  ASSERT_TRUE(W.Ok) << W.Error;
  if (jit::nativeJitSupported()) {
    EXPECT_GE(N.Interp.NativeCalls, 1u) << What;
  }
}

std::vector<GateCase> allGateCases() {
  std::vector<GateCase> Cases;
  for (const char *F : GateWorkloads)
    for (PromotionMode M : allPromotionModes())
      Cases.push_back({F, M});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(WorkloadsByMode, NativeParityHeavyTest,
                         ::testing::ValuesIn(allGateCases()), gateCaseName);

} // namespace

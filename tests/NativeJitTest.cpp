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
/// for conditions the templates refuse to encode), analysis-manager
/// invalidation when a promoter edits a compiled function, and the W^X
/// lifecycle of the code pages.
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
  // its first call (its 7th tick) and every call runs natively.
  Before = osrEntries();
  ExecutionResult R3 = runNative(*M, 7, &AM);
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(osrEntries() - Before, 0u);
  EXPECT_EQ(R3.Interp.FunctionsCompiled, 1u);
  EXPECT_EQ(R3.Interp.NativeCalls, 4u);
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

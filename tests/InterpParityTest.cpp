//===- tests/InterpParityTest.cpp - three-engine differential parity ------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential parity between the three interpreter engines: the
/// reference tree-walker, the bytecode tier, and the native (JIT) tier
/// (forced to compile on first call) must produce byte-identical
/// ExecutionResults — exit value, printed output, dynamic counts, block
/// and edge frequencies, final memory, and on failing runs the exact trap
/// message — on every workload x promotion-mode combination and on every
/// trap path (bounds, wild pointers, stack overflow, arity, calls to
/// functions the decoder refuses, the memory-cell budget, and fuel
/// exhaustion at exact instruction boundaries). Trap and fuel
/// cases are where the native tier's deopt machinery must land on the
/// same instruction the other engines trap at.
///
/// The InterpParityHeavyTest matrix is scheduled under the `heavy` ctest
/// label; the whole file also runs as the tier-1 `srp_interp_parity` gate
/// (see tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "interp/Bytecode.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "jit/NativeJIT.h"
#include "pipeline/Pipeline.h"
#include "TestHelpers.h"
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace srp;
using namespace srp::test;

namespace {

constexpr uint64_t DefaultFuel = 200'000'000;

/// Full-result comparison. Both engines ran the same Module instance, so
/// the pointer-keyed frequency maps are directly comparable. The Interp
/// accounting field is engine-specific by design and excluded.
void expectSameResult(const ExecutionResult &Walk, const ExecutionResult &BC,
                      const std::string &What) {
  EXPECT_EQ(Walk.Ok, BC.Ok) << What;
  EXPECT_EQ(Walk.Error, BC.Error) << What;
  EXPECT_EQ(Walk.ExitValue, BC.ExitValue) << What;
  EXPECT_EQ(Walk.Output, BC.Output) << What;
  EXPECT_EQ(Walk.Counts.SingletonLoads, BC.Counts.SingletonLoads) << What;
  EXPECT_EQ(Walk.Counts.SingletonStores, BC.Counts.SingletonStores) << What;
  EXPECT_EQ(Walk.Counts.AliasedLoads, BC.Counts.AliasedLoads) << What;
  EXPECT_EQ(Walk.Counts.AliasedStores, BC.Counts.AliasedStores) << What;
  EXPECT_EQ(Walk.Counts.Copies, BC.Counts.Copies) << What;
  EXPECT_EQ(Walk.Counts.Instructions, BC.Counts.Instructions) << What;
  EXPECT_EQ(Walk.FinalMemory, BC.FinalMemory) << What;
  EXPECT_EQ(Walk.BlockCounts, BC.BlockCounts) << What;
  EXPECT_EQ(Walk.EdgeCounts, BC.EdgeCounts) << What;
}

/// Runs \p M under all three engines with identical fuel and compares.
/// The native run compiles on first call (threshold 1) so the JIT path is
/// actually exercised, not just warmed. Returns the walk result for
/// further assertions.
ExecutionResult expectParity(Module &M, const std::string &What,
                             uint64_t Fuel = DefaultFuel,
                             const std::string &Entry = "main") {
  ExecutionResult W =
      Interpreter(M, Fuel, InterpEngine::Walk).run(Entry);
  ExecutionResult B =
      Interpreter(M, Fuel, InterpEngine::Bytecode).run(Entry);
  expectSameResult(W, B, What + " [bytecode]");
  Interpreter NI(M, Fuel, InterpEngine::Native);
  NI.setJitThreshold(1);
  ExecutionResult N = NI.run(Entry);
  expectSameResult(W, N, What + " [native]");
  return W;
}

//===--------------------------------------------------------------------===//
// Workload x promotion-mode matrix.
//===--------------------------------------------------------------------===//

const char *WorkloadFiles[] = {"go.mc",       "li.mc",      "ijpeg.mc",
                               "perl.mc",     "m88ksim.mc", "gcc.mc",
                               "compress.mc", "vortex.mc",  "eqntott.mc"};

std::string loadWorkload(const std::string &File) {
  std::string Path = std::string(SRP_WORKLOAD_DIR) + "/" + File;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct Case {
  const char *File;
  PromotionMode Mode;
};

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  std::string Name = Info.param.File;
  Name = Name.substr(0, Name.find('.'));
  return Name + "_" + promotionModeName(Info.param.Mode);
}

class InterpParityHeavyTest : public ::testing::TestWithParam<Case> {};

/// For each workload and mode, run the full pipeline and then execute the
/// *transformed* module under both engines: parity must hold on promoted
/// IR shapes (copies, register phis, dummy loads, superblock tails), not
/// just on freshly lowered code.
TEST_P(InterpParityHeavyTest, TransformedModuleRunsIdentically) {
  const Case &C = GetParam();
  PipelineOptions Opts;
  Opts.Mode = C.Mode;
  PipelineResult R = PipelineBuilder().options(Opts).run(loadWorkload(C.File));
  ASSERT_TRUE(R.Ok) << C.File;
  ASSERT_NE(R.M, nullptr);

  ExecutionResult W = expectParity(
      *R.M, std::string(C.File) + "/" + promotionModeName(C.Mode));
  ASSERT_TRUE(W.Ok) << W.Error;
  // And both engines reproduce the pipeline's own measurement run.
  EXPECT_EQ(W.ExitValue, R.RunAfter.ExitValue);
  EXPECT_EQ(W.Output, R.RunAfter.Output);
  EXPECT_EQ(W.Counts.SingletonLoads, R.RunAfter.Counts.SingletonLoads);
  EXPECT_EQ(W.Counts.SingletonStores, R.RunAfter.Counts.SingletonStores);
  EXPECT_EQ(W.FinalMemory, R.RunAfter.FinalMemory);
}

std::vector<Case> allCases() {
  std::vector<Case> Cases;
  for (const char *F : WorkloadFiles)
    for (PromotionMode M : allPromotionModes())
      Cases.push_back({F, M});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(WorkloadsByMode, InterpParityHeavyTest,
                         ::testing::ValuesIn(allCases()), caseName);

//===--------------------------------------------------------------------===//
// Trap parity.
//===--------------------------------------------------------------------===//

TEST(InterpParityTest, OutOfBoundsReadTrapsIdentically) {
  auto M = compileOrDie(R"(
    int a[4];
    int main() {
      int i = 0;
      int s = 0;
      while (i <= 4) { s = s + a[i]; i = i + 1; }
      return s;
    }
  )");
  ExecutionResult W = expectParity(*M, "oob-read");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "out-of-bounds read of a");
}

TEST(InterpParityTest, OutOfBoundsWriteTrapsIdentically) {
  auto M = compileOrDie(R"(
    int a[3];
    void main() {
      int i = 0;
      while (i < 10) { a[i] = i; i = i + 1; }
    }
  )");
  ExecutionResult W = expectParity(*M, "oob-write");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "out-of-bounds write of a");
}

TEST(InterpParityTest, WildPointerTrapsIdentically) {
  auto M = compileOrDie(R"(
    int g;
    int main() {
      int p = &g;
      return *(p + 1000000);
    }
  )");
  ExecutionResult W = expectParity(*M, "wild-pointer");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "wild pointer read");
}

TEST(InterpParityTest, DivisionByZeroTrapsIdentically) {
  auto M = compileOrDie(R"(
    int zero = 0;
    int main() { return 7 / zero; }
  )");
  ExecutionResult W = expectParity(*M, "div-zero");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "division by zero");
}

TEST(InterpParityTest, StackOverflowTrapsIdentically) {
  auto M = compileOrDie(R"(
    int f(int n) { return f(n + 1); }
    int main() { return f(0); }
  )");
  ExecutionResult W = expectParity(*M, "stack-overflow");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "call stack overflow in f");
}

TEST(InterpParityTest, EmptyFunctionCallTrapsIdentically) {
  auto M = std::make_unique<Module>("empty");
  Function *Callee = M->createFunction("ghost", Type::Int);
  (void)Callee;
  Function *Main = M->createFunction("main", Type::Int);
  IRBuilder B(Main->createBlock("entry"));
  B.ret(B.call(M->getFunction("ghost"), {}));

  ExecutionResult W = expectParity(*M, "empty-callee");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "call to empty function ghost");
}

TEST(InterpParityTest, ArityMismatchTrapsIdentically) {
  auto M = std::make_unique<Module>("arity");
  Function *Callee = M->createFunction("takes_one", Type::Int);
  Callee->addArgument("x");
  IRBuilder CB(Callee->createBlock("entry"));
  CB.ret(CB.constant(1));

  Function *Main = M->createFunction("main", Type::Int);
  IRBuilder B(Main->createBlock("entry"));
  B.ret(B.call(Callee, {})); // zero args to a one-arg function

  ExecutionResult W = expectParity(*M, "arity-mismatch");
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, "arity mismatch calling takes_one");
}

//===--------------------------------------------------------------------===//
// Memory-cell budget: memory beyond jit::CellLimit cells is a run error in
// every engine, raised before anything is allocated.
//===--------------------------------------------------------------------===//

const InterpEngine AllEngines[] = {InterpEngine::Walk, InterpEngine::Bytecode,
                                   InterpEngine::Native};

TEST(InterpParityTest, StaticMemoryOverBudgetIsARunError) {
  auto M = compileOrDie(R"(
    int a[2000000000];
    int main() { a[1] = 3; print(a[1]); return 0; }
  )");
  for (InterpEngine E : AllEngines) {
    ExecutionResult R = Interpreter(*M, DefaultFuel, E).run();
    EXPECT_FALSE(R.Ok) << interpEngineName(E);
    EXPECT_EQ(R.Error, "static memory of 2000000000 cells exceeds the budget "
                       "of 134217728 cells")
        << interpEngineName(E);
    EXPECT_EQ(R.Counts.Instructions, 0u) << interpEngineName(E);
  }
  expectParity(*M, "image-over-budget");
}

TEST(InterpParityTest, FrameLocalMemoryOverBudgetIsARunError) {
  // Mini-C has no local arrays; build a frame-local one through the API.
  auto M = std::make_unique<Module>("frame");
  Function *F = M->createFunction("f", Type::Void);
  F->createLocal("big", MemoryObject::Kind::Array,
                 static_cast<unsigned>(jit::CellLimit) + 1);
  IRBuilder FB(F->createBlock("entry"));
  FB.ret();
  Function *Main = M->createFunction("main", Type::Int);
  IRBuilder B(Main->createBlock("entry"));
  B.print(B.constant(1));
  B.call(F, {});
  B.ret(B.constant(0));

  for (InterpEngine E : AllEngines) {
    ExecutionResult R = Interpreter(*M, DefaultFuel, E).run();
    EXPECT_FALSE(R.Ok) << interpEngineName(E);
    EXPECT_EQ(R.Error,
              "frame-local memory overflow in f (budget 134217728 cells)")
        << interpEngineName(E);
    EXPECT_EQ(R.Output, std::vector<int64_t>{1}) << interpEngineName(E);
  }
  expectParity(*M, "frame-over-budget");
}

//===--------------------------------------------------------------------===//
// Refused functions: IR that breaks a rule the decoder checks (only
// hand-built IR does) traps when called, identically in every engine.
//===--------------------------------------------------------------------===//

/// Builds: entry --cond--> (def | skip) --> join, where join reads the
/// value defined only on the `def` arm, a use its definition does not
/// dominate.
std::unique_ptr<Module> makeUseBeforeDef(int64_t Cond) {
  auto M = std::make_unique<Module>("ubd");
  Function *F = M->createFunction("main", Type::Int);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Def = F->createBlock("def");
  BasicBlock *Skip = F->createBlock("skip");
  BasicBlock *Join = F->createBlock("join");

  IRBuilder B(Entry);
  B.condBr(B.constant(Cond), Def, Skip);

  B.setInsertPoint(Def);
  Value *V = B.add(B.constant(20), B.constant(22));
  B.br(Join);

  B.setInsertPoint(Skip);
  B.br(Join);

  B.setInsertPoint(Join);
  B.ret(B.add(V, B.constant(0)));
  return M;
}

TEST(InterpParityTest, UndominatedUseIsRefusedOnEitherArm) {
  // Nothing of the function runs, whichever arm the branch would take.
  for (int64_t Cond : {0, 1}) {
    auto M = makeUseBeforeDef(Cond);
    ExecutionResult W =
        expectParity(*M, "undominated-use cond=" + std::to_string(Cond));
    EXPECT_FALSE(W.Ok);
    EXPECT_EQ(W.Error, "cannot execute main: use of %t0 in block 'join' is "
                       "not dominated by its definition");
    EXPECT_EQ(W.Counts.Instructions, 0u);
    EXPECT_TRUE(W.BlockCounts.empty());
  }
}

/// Adds `main`, which prints 1 and then calls \p Bad, so every engine runs
/// code (and the native one compiles main) before the refused call.
void addMainCalling(Module &M, Function *Bad) {
  Function *Main = M.createFunction("main", Type::Int);
  IRBuilder B(Main->createBlock("entry"));
  B.print(B.constant(1));
  B.call(Bad, {});
  B.ret(B.constant(0));
}

void expectRefusedCall(Module &M, const std::string &Error) {
  ExecutionResult W = expectParity(M, Error);
  EXPECT_FALSE(W.Ok);
  EXPECT_EQ(W.Error, Error);
  EXPECT_EQ(W.Output, std::vector<int64_t>{1});
}

TEST(InterpParityTest, PhiWithoutIncomingValueForAPredIsRefused) {
  auto M = std::make_unique<Module>("phi");
  Function *F = M->createFunction("bad", Type::Int);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Bb = F->createBlock("b");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Entry);
  B.condBr(B.constant(1), A, Bb);
  B.setInsertPoint(A);
  B.br(Join);
  B.setInsertPoint(Bb);
  B.br(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.phi(Type::Int, "p");
  P->addIncoming(B.constant(5), A); // nothing for b
  B.ret(P);
  addMainCalling(*M, F);
  expectRefusedCall(*M, "cannot execute bad: phi %p in block 'join' has no "
                        "incoming value for block 'b'");
}

TEST(InterpParityTest, PhiAfterANonPhiIsRefused) {
  // No edge sets such a phi, so a read of it would see a never-written
  // register.
  auto M = std::make_unique<Module>("latephi");
  Function *F = M->createFunction("bad", Type::Int);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Body = F->createBlock("body");
  IRBuilder B(Entry);
  B.br(Body);
  B.setInsertPoint(Body);
  B.add(B.constant(1), B.constant(2));
  PhiInst *P = B.phi(Type::Int, "p");
  P->addIncoming(B.constant(5), Entry);
  B.ret(P);
  addMainCalling(*M, F);
  expectRefusedCall(*M, "cannot execute bad: phi %p in block 'body' follows "
                        "a non-phi instruction");
}

TEST(InterpParityTest, ReachableBlockWithoutTerminatorIsRefused) {
  auto M = std::make_unique<Module>("noterm");
  Function *F = M->createFunction("bad", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Open = F->createBlock("open");
  IRBuilder B(Entry);
  B.br(Open);
  B.setInsertPoint(Open);
  B.print(B.constant(2));
  addMainCalling(*M, F);
  expectRefusedCall(*M, "cannot execute bad: block 'open' has no terminator");
}

TEST(InterpParityTest, LoadOfAnotherFunctionsLocalIsRefused) {
  auto M = std::make_unique<Module>("foreign");
  Function *Owner = M->createFunction("owner", Type::Void);
  MemoryObject *X = Owner->createLocal("x", MemoryObject::Kind::Local);
  IRBuilder OB(Owner->createBlock("entry"));
  OB.ret();
  Function *F = M->createFunction("bad", Type::Int);
  IRBuilder B(F->createBlock("entry"));
  B.ret(B.load(X));
  addMainCalling(*M, F);
  expectRefusedCall(*M, "cannot execute bad: access to local 'x' of "
                        "function 'owner'");
}

TEST(InterpParityTest, RefusedFunctionNeverCalledDoesNotStopTheRun) {
  // The verdict is checked at the call: decoding stays lazy, and a module
  // that never calls its refused function runs normally everywhere.
  auto M = makeUseBeforeDef(1); // its `main` is refused
  Function *Entry = M->createFunction("entry", Type::Int);
  IRBuilder B(Entry->createBlock("entry"));
  B.print(B.constant(3));
  B.ret(B.constant(7));
  ExecutionResult W =
      expectParity(*M, "refused-but-unused", DefaultFuel, "entry");
  ASSERT_TRUE(W.Ok) << W.Error;
  EXPECT_EQ(W.ExitValue, 7);
  EXPECT_EQ(W.Output, std::vector<int64_t>{3});
}

TEST(InterpParityTest, UndefValueStaysDeterministicZero) {
  // The deterministic-undef exemption: reading UndefValue is NOT a use
  // before a definition; the decoder accepts the function and it reads 0
  // in every engine.
  auto M = std::make_unique<Module>("undef");
  Function *F = M->createFunction("main", Type::Int);
  IRBuilder B(F->createBlock("entry"));
  B.ret(B.add(B.copy(M->undef()), B.constant(5)));

  ExecutionResult W = expectParity(*M, "undef-reads-zero");
  ASSERT_TRUE(W.Ok) << W.Error;
  EXPECT_EQ(W.ExitValue, 5);
}

//===--------------------------------------------------------------------===//
// Fuel exhaustion at exact boundaries.
//===--------------------------------------------------------------------===//

TEST(InterpParityTest, FuelExhaustionBoundarySweep) {
  // Calls inside a loop stress the segment accounting: fuel must run out
  // at exactly the same instruction in both engines, whatever the budget.
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

  for (uint64_t Fuel = 0; Fuel <= Total + 2; ++Fuel) {
    ExecutionResult W = expectParity(*M, "fuel=" + std::to_string(Fuel), Fuel);
    if (Fuel < Total)
      EXPECT_EQ(W.Error, "out of fuel (infinite loop?)") << Fuel;
    else
      EXPECT_TRUE(W.Ok) << Fuel;
  }
}

TEST(InterpParityTest, InfiniteLoopFuelParity) {
  auto M = compileOrDie(R"(
    void main() { while (1) { } }
  )");
  for (uint64_t Fuel : {0ull, 1ull, 2ull, 3ull, 17ull, 1000ull}) {
    ExecutionResult W = expectParity(*M, "infloop fuel=" +
                                     std::to_string(Fuel), Fuel);
    EXPECT_FALSE(W.Ok);
    EXPECT_EQ(W.Error, "out of fuel (infinite loop?)");
  }
}

//===--------------------------------------------------------------------===//
// Decode caching through the AnalysisManager.
//===--------------------------------------------------------------------===//

TEST(InterpParityTest, ManagerCachesDecodesAcrossRuns) {
  auto M = compileOrDie(R"(
    int g = 0;
    void bump() { g = g + 1; }
    void main() { bump(); bump(); }
  )");
  AnalysisManager AM(M.get());

  ExecutionResult R1 =
      Interpreter(*M, DefaultFuel, InterpEngine::Bytecode, &AM).run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(R1.Interp.FunctionsDecoded, 2u); // main + bump
  EXPECT_EQ(R1.Interp.DecodeCacheHits, 0u);

  // Unchanged IR: the second run decodes nothing.
  ExecutionResult R2 =
      Interpreter(*M, DefaultFuel, InterpEngine::Bytecode, &AM).run();
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Interp.FunctionsDecoded, 0u);
  EXPECT_EQ(R2.Interp.DecodeCacheHits, 2u);

  // An IR edit (a dead add inserted into bump) retires exactly the edited
  // function's decode.
  Function *Bump = M->getFunction("bump");
  ASSERT_NE(Bump, nullptr);
  Bump->entry()->insertBeforeTerminator(std::make_unique<BinOpInst>(
      BinOpKind::Add, M->constant(1), M->constant(2), "dead"));
  ExecutionResult R3 =
      Interpreter(*M, DefaultFuel, InterpEngine::Bytecode, &AM).run();
  ASSERT_TRUE(R3.Ok) << R3.Error;
  EXPECT_EQ(R3.Interp.FunctionsDecoded, 1u);
  EXPECT_EQ(R3.Interp.DecodeCacheHits, 1u);
}

// Erasing an instruction through the IR API is the whole contract: with
// no other call, the next run re-decodes (a cleanup sweep deleting dead
// instructions makes exactly this edit).
TEST(InterpParityTest, EraseFromParentAloneRetiresTheDecode) {
  auto M = compileOrDie(R"(
    int g = 0;
    void bump() { g = g + 1; }
    void main() { bump(); bump(); print(g); }
  )");
  Function *Bump = M->getFunction("bump");
  ASSERT_NE(Bump, nullptr);
  Instruction *Dead = Bump->entry()->insertBeforeTerminator(
      std::make_unique<BinOpInst>(BinOpKind::Add, M->constant(1),
                                  M->constant(2), "dead"));
  AnalysisManager AM(M.get());
  ExecutionResult R1 =
      Interpreter(*M, DefaultFuel, InterpEngine::Bytecode, &AM).run();
  ASSERT_TRUE(R1.Ok) << R1.Error;

  Dead->eraseFromParent();

  ExecutionResult R2 =
      Interpreter(*M, DefaultFuel, InterpEngine::Bytecode, &AM).run();
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Interp.FunctionsDecoded, 1u);
  EXPECT_EQ(R2.Interp.DecodeCacheHits, 1u);
  EXPECT_EQ(R2.Counts.Instructions + 2, R1.Counts.Instructions);
  expectSameResult(Interpreter(*M, DefaultFuel, InterpEngine::Walk).run(), R2,
                   "after erase");
}

TEST(InterpParityTest, PrivateDecodesWithoutManager) {
  auto M = compileOrDie(R"(
    int f(int n) { return n * 2; }
    int main() { return f(f(f(1))); }
  )");
  // No manager: each run decodes through a manager of its own, and a
  // function is decoded only once however often it is called.
  ExecutionResult R = Interpreter(*M, DefaultFuel,
                                  InterpEngine::Bytecode).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 8);
  EXPECT_EQ(R.Interp.FunctionsDecoded, 2u); // main + f, not 1 + 3
}

} // namespace

//===- interp/Interpreter.h - IR interpreter -------------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Module directly. Serves three roles in the reproduction:
///  1. collects block/edge execution frequencies (the paper's profile
///     feedback),
///  2. measures dynamic counts of singleton loads/stores before and after
///     promotion (Table 2),
///  3. provides the observable-behaviour oracle for the equivalence
///     property tests (printed output + final memory state).
///
/// Memory is a flat cell array indexed by object id / array offset, so
/// pointer values are plain cell addresses and pointer arithmetic works.
/// Address-taken locals get static storage (one activation at a time), a
/// documented simplification; the Mini-C workloads comply.
///
/// Three engines share these semantics (docs/INTERPRETER.md):
///  - the *tree-walker*, the reference engine: interprets the IR in place,
///    one hash lookup per operand;
///  - the *bytecode* engine (the default where the JIT is unsupported):
///    functions are decoded once into dense slot-numbered instruction
///    streams (interp/Bytecode.h) and run by a flat register-file dispatch
///    loop with per-block fuel accounting and dense block/edge counters;
///  - the *native* engine (the default on x86-64): bytecode plus a
///    hotness-tiered x86-64 template JIT (jit/NativeJIT.h) that compiles
///    functions from their decoded BInst arrays once their ledger of
///    calls and loop back edges crosses a threshold, entering compiled
///    code on calls and, mid-activation, at back edges (OSR), and deopting
///    back into the bytecode loop at the exact instruction for traps and
///    fuel exhaustion. On other hosts it degrades to the bytecode engine.
/// Results are required to be identical field by field; the parity suite
/// (tests/InterpParityTest.cpp) and the srp_oracle_walk / srp_native_parity
/// ctest gates enforce it. Every engine decodes a function before its first
/// call, and a call to a function the decoder refuses (a use its definition
/// does not dominate, a malformed phi or block: only hand-built IR has one)
/// traps with the same message in all three.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_INTERPRETER_H
#define SRP_INTERP_INTERPRETER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace srp {

class AnalysisManager;
class BasicBlock;
class Function;
class Module;

/// Which execution engine an Interpreter uses.
enum class InterpEngine : uint8_t {
  Walk,     ///< Reference tree-walker (slow, obviously correct).
  Bytecode, ///< Decoded dispatch loop (default without the JIT).
  Native,   ///< Bytecode + hotness-tiered x86-64 baseline JIT (default
            ///< where jit::nativeJitSupported()).
};

/// Stable spelling for flags/JSON: "walk" / "bytecode" / "native".
const char *interpEngineName(InterpEngine E);

/// Inverse of interpEngineName; returns false for unknown spellings.
bool parseInterpEngine(const std::string &Name, InterpEngine &Out);

/// The default engine — Native where the host supports the JIT, Bytecode
/// elsewhere — overridable per process with
/// SRP_INTERP=walk|bytecode|native, the hook the srp_oracle_walk and
/// srp_oracle_bytecode ctest gates use to re-run suites on another engine.
InterpEngine defaultInterpEngine();

/// Dynamic operation counters. "Singleton" loads/stores are the paper's
/// promotion targets; aliased operations are calls/pointer/array accesses.
struct DynamicCounts {
  uint64_t SingletonLoads = 0;
  uint64_t SingletonStores = 0;
  uint64_t AliasedLoads = 0;
  uint64_t AliasedStores = 0;
  uint64_t Copies = 0;
  uint64_t Instructions = 0;

  uint64_t memOps() const { return SingletonLoads + SingletonStores; }
};

/// Per-run engine accounting (not part of the observable behaviour the
/// parity suite compares; feeds the `interp` section of --stats-json).
struct InterpRunStats {
  InterpEngine Engine = InterpEngine::Bytecode;
  uint64_t FunctionsDecoded = 0;  ///< Decodes performed during this run.
  uint64_t DecodeCacheHits = 0;   ///< Decodes served from the manager cache.
  uint64_t FunctionsCompiled = 0; ///< Native-tier compiles this run.
  uint64_t NativeCalls = 0;       ///< Calls executed by JIT-compiled code.
  uint64_t DirectCalls = 0; ///< Of those, calls compiled code made straight
                            ///< into a compiled callee's direct entry.
  uint64_t OsrEntries = 0; ///< Activations entered into compiled code at a
                           ///< retreating edge (on-stack replacement).
  uint64_t Deopts = 0;            ///< Native frames resumed in bytecode.
  double DecodeSeconds = 0;
  double CompileSeconds = 0; ///< Native-tier compile time this run.
  double ExecSeconds = 0;    ///< Whole run, decode included.
};

/// Result of one execution.
struct ExecutionResult {
  bool Ok = false;
  std::string Error;        ///< Set when Ok is false (trap, fuel, ...).
  int64_t ExitValue = 0;    ///< Return value of main().
  std::vector<int64_t> Output; ///< Values printed, in order.
  DynamicCounts Counts;
  /// Final contents of module-scope memory (object id -> cells).
  std::unordered_map<unsigned, std::vector<int64_t>> FinalMemory;
  /// Execution count per basic block.
  std::unordered_map<const BasicBlock *, uint64_t> BlockCounts;
  /// Execution count per CFG edge (from, to).
  std::unordered_map<const BasicBlock *,
                     std::unordered_map<const BasicBlock *, uint64_t>>
      EdgeCounts;
  /// Engine accounting for this run (excluded from parity comparisons).
  InterpRunStats Interp;
};

class Interpreter {
  Module &M;
  uint64_t Fuel;
  InterpEngine Engine;
  AnalysisManager *AM;
  uint64_t JitThreshold = 0; ///< 0 = jit::defaultJitThreshold().

public:
  /// \p Fuel bounds the number of executed instructions (default generous;
  /// protects tests against accidental infinite loops). \p AM, when given,
  /// caches decoded functions and native code across runs
  /// (AnalysisKind::Bytecode / NativeCode) so an unchanged function is
  /// decoded once — and its JIT hotness accumulates — across profile +
  /// measurement; without one, each run decodes through a manager of its
  /// own.
  explicit Interpreter(Module &M, uint64_t Fuel = 200'000'000,
                       InterpEngine Engine = defaultInterpEngine(),
                       AnalysisManager *AM = nullptr)
      : M(M), Fuel(Fuel), Engine(Engine), AM(AM) {}

  InterpEngine engine() const { return Engine; }

  /// Native engine only: hotness-ledger ticks (calls plus retreating
  /// edges taken in bytecode) at which a function is JIT-compiled. 0 keeps
  /// the process default (SRP_JIT_THRESHOLD, else
  /// jit::DefaultJitThreshold); 1 compiles on first call — what the parity
  /// suites use to force the JIT path.
  void setJitThreshold(uint64_t T) { JitThreshold = T; }

  /// Runs \p EntryName (default "main") with the given arguments.
  ExecutionResult run(const std::string &EntryName = "main",
                      const std::vector<int64_t> &Args = {});
};

} // namespace srp

#endif // SRP_INTERP_INTERPRETER_H

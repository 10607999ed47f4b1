//===- interp/Interpreter.cpp - IR interpreter -----------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
// Three engines, one observable behaviour (docs/INTERPRETER.md):
//  - callWalk: the reference tree-walker. Interprets the IR in place with a
//    hash-map frame; every register read is checked, so use-before-def is a
//    trap (UndefValue stays a deterministic 0).
//  - dispatchDecoded/execLoop: the bytecode engine. Runs the decoded stream
//    from interp/Bytecode.h over a flat register stack; fuel is charged per
//    segment (block prefix / post-call run) in one subtraction, with a
//    per-instruction slow path once fuel runs low so exhaustion traps at
//    exactly the same instruction as the walker.
//  - runNative: the native tier (jit/NativeJIT.h). Hot functions run as
//    JIT-compiled x86-64 on the same frame arenas, entered on a call or,
//    mid-activation, on a retreating edge (OSR), and call each other
//    directly; traps and fuel exhaustion deopt into execLoop mid-frame at
//    the faulting instruction.
// All engines share the memory image, the trap plumbing, the result object
// and one call path, call(), which decodes every function before it first
// runs and traps on a call to a function the decoder refused (a use its
// definition does not dominate, a malformed phi or block). Native frames
// hand unencodable events to the bytecode loop.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "interp/Bytecode.h"
#include "jit/NativeJIT.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>

using namespace srp;

namespace {
SRP_STATISTIC(NumExecutions, "interp", "runs",
              "Interpreter executions (profile + measurement)");
SRP_STATISTIC(NumInstsExecuted, "interp", "instructions-executed",
              "Dynamic instructions interpreted across all runs");
SRP_STATISTIC(NumBytecodeRuns, "interp", "bytecode-runs",
              "Runs executed by the bytecode engine");
SRP_STATISTIC(NumWalkRuns, "interp", "walk-runs",
              "Runs executed by the reference tree-walker");
SRP_STATISTIC(NumDecodeCacheHits, "interp", "decode-cache-hits",
              "Function decodes served from the analysis-manager cache");
SRP_STATISTIC(ExecMicros, "interp", "exec-micros",
              "Wall time spent in interpreter runs, in microseconds");
SRP_STATISTIC(NumNativeRuns, "interp", "native-runs",
              "Runs executed by the native (JIT) engine");
SRP_STATISTIC(NumNativeCompiles, "interp", "native-compiles",
              "Functions compiled by the baseline JIT");
SRP_STATISTIC(NumNativeCalls, "interp", "native-calls",
              "Calls executed by JIT-compiled code");
SRP_STATISTIC(NumNativeDeopts, "interp", "native-deopts",
              "Native frames that deopted into the bytecode loop");
SRP_STATISTIC(NumNativeOsrEntries, "interp", "native-osr-entries",
              "Bytecode activations continued in compiled code at a "
              "retreating edge (on-stack replacement)");
SRP_STATISTIC(NumNativeDirectCalls, "interp", "native-direct-calls",
              "Native calls compiled code made straight into a compiled "
              "callee's direct entry (a subset of native-calls)");
SRP_HISTOGRAM(JitCompileMicros, "interp", "jit-compile-micros",
              "Wall time of one baseline-JIT function compile (us)");
} // namespace

const char *srp::interpEngineName(InterpEngine E) {
  switch (E) {
  case InterpEngine::Walk:
    return "walk";
  case InterpEngine::Native:
    return "native";
  case InterpEngine::Bytecode:
    break;
  }
  return "bytecode";
}

bool srp::parseInterpEngine(const std::string &Name, InterpEngine &Out) {
  if (Name == "walk") {
    Out = InterpEngine::Walk;
    return true;
  }
  if (Name == "bytecode") {
    Out = InterpEngine::Bytecode;
    return true;
  }
  if (Name == "native") {
    Out = InterpEngine::Native;
    return true;
  }
  return false;
}

InterpEngine srp::defaultInterpEngine() {
  if (const char *V = std::getenv("SRP_INTERP")) {
    InterpEngine E;
    if (parseInterpEngine(V, E))
      return E;
  }
  return jit::nativeJitSupported() ? InterpEngine::Native
                                   : InterpEngine::Bytecode;
}

namespace {

/// Flat memory image: every object gets a contiguous range of cells;
/// pointers are absolute cell indices. Bases are a dense per-object-id
/// vector so the bytecode engine resolves them without hashing.
class MemoryImage {
  std::vector<int64_t> BaseById; ///< object id -> base, -1 = not static
  std::vector<int64_t> Cells;
  std::vector<const MemoryObject *> Objects;

public:
  explicit MemoryImage(const Module &M) : BaseById(M.numObjectIds(), -1) {}

  void add(const MemoryObject &Obj) {
    BaseById[Obj.id()] = static_cast<int64_t>(Cells.size());
    Objects.push_back(&Obj);
    for (unsigned I = 0; I != Obj.size(); ++I)
      Cells.push_back(I == 0 ? Obj.initialValue() : 0);
  }

  bool knows(const MemoryObject &Obj) const {
    return BaseById[Obj.id()] >= 0;
  }

  uint64_t base(const MemoryObject &Obj) const {
    return static_cast<uint64_t>(BaseById[Obj.id()]);
  }
  uint64_t baseOfId(unsigned Id) const {
    return static_cast<uint64_t>(BaseById[Id]);
  }

  bool validAddress(uint64_t Addr) const { return Addr < Cells.size(); }

  int64_t read(uint64_t Addr) const { return Cells[Addr]; }
  void write(uint64_t Addr, int64_t V) { Cells[Addr] = V; }

  const std::vector<const MemoryObject *> &objects() const { return Objects; }

  /// Raw geometry for the native tier: compiled code addresses cells
  /// directly and bakes bases as immediates. Stable once construction
  /// (the add() sequence) is done.
  int64_t *cellsData() { return Cells.data(); }
  size_t cellsSize() const { return Cells.size(); }
  const std::vector<int64_t> &baseTable() const { return BaseById; }

  /// Layout identity: compiled code is only valid against the exact image
  /// geometry it was baked for (FNV-1a over bases + size).
  uint64_t signature() const {
    uint64_t H = 1469598103934665603ull;
    auto Mix = [&H](uint64_t V) {
      for (int I = 0; I != 8; ++I) {
        H ^= (V >> (8 * I)) & 0xff;
        H *= 1099511628211ull;
      }
    };
    Mix(Cells.size());
    for (int64_t B : BaseById)
      Mix(static_cast<uint64_t>(B));
    return H;
  }
};

/// Tree-walker register frame. get() distinguishes "never written" from
/// zero so the engine can trap use-before-def instead of minting silent
/// zeros; constants and the deterministic undef read without a frame entry.
class Frame {
public:
  std::unordered_map<const Value *, int64_t> Regs;

  bool get(const Value *V, int64_t &Out) const {
    if (auto *C = dyn_cast<ConstantInt>(V)) {
      Out = C->value();
      return true;
    }
    if (isa<UndefValue>(V)) {
      Out = 0; // deterministic "undefined"
      return true;
    }
    auto It = Regs.find(V);
    if (It == Regs.end())
      return false;
    Out = It->second;
    return true;
  }
  void set(const Value *V, int64_t X) { Regs[V] = X; }
};

class ExecEngine {
  Module &M;
  uint64_t FuelLeft;
  ExecutionResult &R;
  MemoryImage Mem;
  const bool UseBytecode; ///< Bytecode or Native engine selected.
  const bool UseNative;   ///< Native engine selected (implies UseBytecode).
  AnalysisManager &AM;

  /// Per-function run state: the decode every engine checks a call
  /// against, and dense execution counters, converted to the pointer-keyed
  /// result maps by finish() (the walker writes the maps directly).
  /// The NativeLink base is what compiled code sees of it: Counts and
  /// Callees point into the vectors below, Direct is set while the
  /// function has code for this run's image.
  struct FnState : jit::NativeLink {
    const DecodedFunction *DF = nullptr;
    /// Merged block+edge counters: blocks at [0, NumBlocks), edges at
    /// [NumBlocks, NumBlocks+NumEdges). One flat array so compiled code
    /// addresses both through a single pinned register.
    std::vector<uint64_t> Cnt;
    jit::NativeCode *NC = nullptr; ///< Native tier entry (native mode only).
    /// Per-callee-index resolved states (parallel to DF->Callees), filled
    /// lazily so hot call sites skip the States hash lookup entirely.
    /// FnState references are stable across States rehashes, so the raw
    /// pointers stay valid for the whole run.
    std::vector<jit::NativeLink *> CalleeStates;
  };
  std::unordered_map<const Function *, FnState> States;

  /// The engine<->code context: one per engine, shared by nested native
  /// frames (which save and restore Depth around calls). It also holds
  /// the arena watermarks, which every engine moves.
  jit::NativeCtx Ctx;
  /// The memory-image identity compiled code must match, and the
  /// hotness-ledger tier threshold.
  uint64_t ImageSig = 0;
  uint64_t JitThreshold = jit::DefaultJitThreshold;
  /// Fuel when compiled code last got control: what it consumed since is
  /// its dynamic instruction count, taken whenever control leaves it.
  uint64_t NativeMark = 0;

  /// Register / frame-local-memory stacks shared by all bytecode and
  /// native frames (one contiguous arena each instead of a malloc per
  /// call). Grown manually through the Ctx.RegTop / Ctx.LocalTop
  /// watermarks: frames are NOT zeroed on entry — the decoder proves every
  /// plain slot is written before read, and constant/undef slots come from
  /// DecodedFunction::ConstInits. Every frame keeps
  /// DecodedFunction::MaxCallArgs cells past it for the arguments compiled
  /// code stages at the top for a direct call.
  std::vector<int64_t> RegStack;
  std::vector<int64_t> LocalStack;
  std::vector<int64_t> PhiScratch; ///< Parallel-copy staging buffer.
  std::vector<int64_t> ArgStack;   ///< Call-argument staging stack.
  /// Frame-local cells held by live walker frames, checked against the
  /// cell budget (bytecode and native frames hold those below the local
  /// watermark).
  uint64_t WalkLocalCells = 0;

public:
  ExecEngine(Module &M, uint64_t Fuel, ExecutionResult &R, InterpEngine E,
             AnalysisManager &AM, uint64_t Threshold)
      : M(M), FuelLeft(Fuel), R(R), Mem(M),
        UseBytecode(E != InterpEngine::Walk),
        UseNative(E == InterpEngine::Native), AM(AM) {
    if (UseNative)
      JitThreshold = Threshold ? Threshold : jit::defaultJitThreshold();
  }

  bool trap(const std::string &Msg) {
    R.Ok = false;
    R.Error = Msg;
    return false;
  }

  /// Lays out the static memory image: globals, and address-taken locals
  /// (static storage, single activation). Traps instead when the image
  /// would exceed the cell budget (jit::CellLimit, the JIT's encodable
  /// geometry). Must succeed before the first call.
  bool start() {
    std::vector<const MemoryObject *> Static;
    for (const auto &G : M.globals())
      Static.push_back(G.get());
    for (const auto &F : M.functions())
      for (const auto &L : F->locals())
        if (L->isAddressTaken())
          Static.push_back(L.get());
    uint64_t Cells = 0;
    for (const MemoryObject *Obj : Static)
      Cells += Obj->size();
    if (Cells > jit::CellLimit)
      return trap("static memory of " + std::to_string(Cells) +
                  " cells exceeds the budget of " +
                  std::to_string(jit::CellLimit) + " cells");
    for (const MemoryObject *Obj : Static)
      Mem.add(*Obj);
    if (UseNative) {
      ImageSig = Mem.signature();
      Ctx.MemCells = Mem.cellsData(); // stable: no add() after this point
      Ctx.CallHelper = &callThunk;
      Ctx.ResumeHelper = &resumeThunk;
      Ctx.PrintHelper = &printThunk;
      Ctx.Engine = this;
    }
    return true;
  }

  /// One decode resolution (and one cache-hit/miss count) per function
  /// per run; later calls reuse the state through CalleeStates pointers.
  FnState &stateFor(Function &F) {
    auto [It, Inserted] = States.try_emplace(&F);
    FnState &FS = It->second;
    if (Inserted) {
      FS.DF = &getDecoded(F);
      FS.Cnt.assign(FS.DF->Blocks.size() + FS.DF->numEdges(), 0);
      FS.CalleeStates.assign(FS.DF->Callees.size(), nullptr);
      FS.Counts = FS.Cnt.data();
      FS.Callees = FS.CalleeStates.data();
      if (UseNative) {
        FS.NC = &AM.get<jit::NativeCode>(F);
        if (FS.NC->Entry && FS.NC->ImageSig == ImageSig)
          FS.Direct = FS.NC->Direct;
      }
    }
    return FS;
  }

  /// The call path of every engine: checks the call depth, the callee's
  /// decode verdict, emptiness and arity, in this order, then runs the
  /// callee on the selected engine. (Compiled code calls compiled callees
  /// directly; their entry checks depth and arity itself, and a refused or
  /// empty function is never compiled.) Arguments are passed as a raw span
  /// so callers can stage them in ArgStack without a per-call allocation.
  bool call(FnState &FS, const int64_t *Args, size_t NArgs, int64_t &RetVal,
            unsigned Depth) {
    const DecodedFunction &DF = *FS.DF;
    const std::string &Name = DF.F->name();
    if (Depth > jit::MaxCallDepth)
      return trap("call stack overflow in " + Name);
    if (!DF.Refusal.empty())
      return trap("cannot execute " + Name + ": " + DF.Refusal);
    if (DF.Empty)
      return trap("call to empty function " + Name);
    if (NArgs != DF.NumArgs)
      return trap("arity mismatch calling " + Name);
    if (!UseBytecode)
      return callWalk(*DF.F, Args, RetVal, Depth);
    return dispatchDecoded(DF, FS, Args, RetVal, Depth);
  }

  /// Converts dense counters into the result maps and snapshots final
  /// memory. Must run exactly once, after the outermost call returns
  /// (including on traps: partial counts are part of the observable
  /// behaviour the parity suite compares).
  void finish() {
    // Compiled code accumulates its dynamic counts in the context. They
    // only add to the run's totals, so one flush here is exact.
    DynamicCounts &C = R.Counts;
    C.SingletonLoads += Ctx.SingletonLoads;
    C.SingletonStores += Ctx.SingletonStores;
    C.AliasedLoads += Ctx.AliasedLoads;
    C.AliasedStores += Ctx.AliasedStores;
    C.Copies += Ctx.Copies;
    R.Interp.DirectCalls = Ctx.DirectCalls;
    R.Interp.NativeCalls += Ctx.DirectCalls;
    for (auto &[F, FS] : States) {
      (void)F;
      const DecodedFunction &DF = *FS.DF;
      const size_t NB = DF.Blocks.size();
      for (size_t I = 0; I != NB; ++I)
        if (FS.Cnt[I])
          R.BlockCounts[DF.BlockPtrs[I]] += FS.Cnt[I];
      for (size_t E = 0; E != DF.numEdges(); ++E)
        if (FS.Cnt[NB + E])
          R.EdgeCounts[DF.BlockPtrs[DF.EdgeFrom[E]]]
                      [DF.BlockPtrs[DF.EdgeTo[E]]] += FS.Cnt[NB + E];
    }
    for (const MemoryObject *Obj : Mem.objects()) {
      // Only module-scope memory is observable after exit; locals (even
      // address-taken ones with static storage) are dead, and dead-store
      // elimination may legitimately leave different garbage in them.
      if (Obj->owner())
        continue;
      std::vector<int64_t> Cells(Obj->size());
      for (unsigned I = 0; I != Obj->size(); ++I)
        Cells[I] = Mem.read(Mem.base(*Obj) + I);
      R.FinalMemory[Obj->id()] = std::move(Cells);
    }
  }

private:
  const DecodedFunction &getDecoded(Function &F) {
    if (AM.cachingEnabled() && AM.isCached(F, AnalysisKind::Bytecode)) {
      ++R.Interp.DecodeCacheHits;
      return AM.get<DecodedFunction>(F);
    }
    double T0 = monotonicSeconds();
    TraceSpan Span;
    if (trace::enabled())
      Span.begin("interp", "decode:" + F.name());
    const DecodedFunction &DF = AM.get<DecodedFunction>(F);
    Span.end();
    R.Interp.DecodeSeconds += monotonicSeconds() - T0;
    ++R.Interp.FunctionsDecoded;
    return DF;
  }

  //===-- Native tier ------------------------------------------------------===

  /// The arena watermarks as cell indices.
  size_t regTop() const {
    return static_cast<size_t>(Ctx.RegTop - RegStack.data());
  }
  size_t localTop() const {
    return static_cast<size_t>(Ctx.LocalTop - LocalStack.data());
  }
  void setTops(size_t Reg, size_t Local) {
    Ctx.RegTop = RegStack.data() + Reg;
    Ctx.LocalTop = LocalStack.data() + Local;
  }

  /// Pushes an activation of \p DF onto the shared arenas: bump the
  /// watermarks, seed constants and arguments, initialise frame-local
  /// memory. Beyond the watermarks the arenas hold stale garbage, which is
  /// fine — the decoder's dominance proof guarantees no plain slot is read
  /// before it is written. Traps when the live frame-local cells would
  /// exceed the budget. The one place the arenas grow.
  bool pushFrame(const DecodedFunction &DF, const int64_t *Args,
                 size_t &Base, size_t &LocalBase) {
    Base = regTop();
    LocalBase = localTop();
    if (LocalBase + DF.LocalArenaSize > jit::CellLimit)
      return trap("frame-local memory overflow in " + DF.F->name() +
                  " (budget " + std::to_string(jit::CellLimit) + " cells)");
    const size_t RegNeed = Base + DF.NumSlots + DF.MaxCallArgs;
    if (RegNeed > RegStack.size())
      RegStack.resize(std::max(RegNeed, RegStack.size() * 2));
    const size_t LocalNeed = LocalBase + DF.LocalArenaSize;
    if (LocalNeed > LocalStack.size())
      LocalStack.resize(std::max(LocalNeed, LocalStack.size() * 2));
    setTops(Base + DF.NumSlots, LocalNeed);
    int64_t *Rg = RegStack.data() + Base;
    int64_t *Lc = LocalStack.data() + LocalBase;
    for (const auto &CI : DF.ConstInits)
      Rg[CI.Slot] = CI.Val;
    for (uint32_t I = 0; I != DF.NumArgs; ++I)
      Rg[I] = Args[I];
    for (const auto &L : DF.Locals)
      std::fill_n(Lc + L.Off, L.Size, L.Init);
    return true;
  }

  /// Decoded-function dispatch below call(): push the frame, then run it
  /// natively when the call makes the function hot enough (compiling it
  /// on the crossing tick), in the bytecode loop otherwise. call() has
  /// already checked the callee.
  bool dispatchDecoded(const DecodedFunction &DF, FnState &FS,
                       const int64_t *Args, int64_t &RetVal, unsigned Depth) {
    size_t Base = 0, LocalBase = 0;
    if (!pushFrame(DF, Args, Base, LocalBase))
      return false;
    if (!UseNative)
      return execLoop<false>(DF, FS, Base, LocalBase, RetVal, Depth, nullptr);
    if (jit::NativeCode *NC = tierUp(DF, FS)) {
      ++R.Interp.NativeCalls;
      uint32_t ResumeIdx = 0;
      switch (runNative(*NC, FS, RetVal, Depth, 0, ResumeIdx)) {
      case NativeExit::Returned:
        return true;
      case NativeExit::Trapped:
        return false;
      case NativeExit::Deopted:
        return execLoop<true>(DF, FS, Base, LocalBase, RetVal, Depth,
                              DF.Code.data() + ResumeIdx);
      }
    }
    return execLoop<true>(DF, FS, Base, LocalBase, RetVal, Depth, nullptr);
  }

  /// One tick of the hotness ledger — a call, or a retreating edge taken
  /// by a bytecode activation. Compiles at the threshold and returns the
  /// entry when the activation should continue in compiled code.
  jit::NativeCode *tierUp(const DecodedFunction &DF, FnState &FS) {
    jit::NativeCode *NC = FS.NC;
    if (!NC)
      return nullptr;
    ++NC->HotCount;
    if (NC->Entry && NC->ImageSig == ImageSig)
      return NC;
    // A cached compile against a different memory-image layout (an object
    // was added or removed module-wide since) is stale even though this
    // function's IR is unchanged; recompile against the current image.
    if (NC->Attempted && NC->ImageSig == ImageSig)
      return nullptr; // compile already failed for this shape
    if (NC->HotCount < JitThreshold)
      return nullptr;
    double T0 = monotonicSeconds();
    TraceSpan Span;
    if (trace::enabled())
      Span.begin("jit", "compile:" + DF.F->name());
    NC->Attempted = true;
    NC->ImageSig = ImageSig;
    NC->Entry = nullptr; // never leave a stale entry if the compile fails
    jit::MemoryLayout L;
    L.BaseById = Mem.baseTable().data();
    L.NumIds = Mem.baseTable().size();
    L.NumCells = Mem.cellsSize();
    L.Sig = ImageSig;
    const bool Ok = jit::compileFunction(*NC, DF, L);
    Span.end();
    const double Elapsed = monotonicSeconds() - T0;
    R.Interp.CompileSeconds += Elapsed;
    JitCompileMicros.observeSeconds(Elapsed);
    if (!Ok)
      return nullptr;
    ++R.Interp.FunctionsCompiled;
    FS.Direct = NC->Direct;
    return NC;
  }

  enum class NativeExit { Returned, Trapped, Deopted };

  /// Control passes to compiled code: it takes the fuel, the arenas'
  /// usable ends (the frame-local one capped by the cell budget), and
  /// starts a new instruction span.
  void enterNative() {
    Ctx.FuelLeft = FuelLeft;
    NativeMark = FuelLeft;
    Ctx.RegEnd = RegStack.data() + RegStack.size();
    Ctx.LocalEnd = LocalStack.data() +
                   std::min<uint64_t>(LocalStack.size(), jit::CellLimit);
  }
  /// Control returns from compiled code: every fuel unit it consumed
  /// since enterNative was one instruction it executed (a deopt stub has
  /// refunded what it did not run).
  void leaveNative() {
    FuelLeft = Ctx.FuelLeft;
    R.Counts.Instructions += NativeMark - FuelLeft;
  }

  /// Runs compiled code on the activation whose frame the watermarks end
  /// at, starting at block \p StartBlock: 0 for a call, a retreating
  /// edge's target for an OSR entry. Returned has popped the frame;
  /// Trapped has the trap recorded by a helper; Deopted leaves the frame
  /// for the bytecode loop to resume at instruction \p ResumeIdx with
  /// per-instruction fuel (the stub refunded the rest of the segment).
  NativeExit runNative(jit::NativeCode &NC, FnState &FS, int64_t &RetVal,
                       unsigned Depth, uint32_t StartBlock,
                       uint32_t &ResumeIdx) {
    enterNative();
    const uint32_t SavedDepth = Ctx.Depth;
    Ctx.Depth = Depth;
    Ctx.Status = jit::StatusOk;
    int64_t Ret = NC.Entry(&Ctx, &FS, StartBlock);
    Ctx.Depth = SavedDepth;
    leaveNative();
    if (Ctx.Status == jit::StatusOk) {
      RetVal = Ret;
      return NativeExit::Returned;
    }
    if (Ctx.Status != jit::StatusDeopt)
      return NativeExit::Trapped;
    ++R.Interp.Deopts;
    Ctx.Status = jit::StatusOk;
    ResumeIdx = static_cast<uint32_t>(Ctx.DeoptIndex);
    return NativeExit::Deopted;
  }

  /// The BOp::Call helper compiled code calls out to when it cannot call
  /// directly: the bytecode loop's call site. The caller's frame is the
  /// top one; compiled code re-anchors it from the watermarks afterwards,
  /// since the callee may have grown the shared arenas.
  int64_t nativeCall(FnState &CallerFS, uint64_t CodeIdx) {
    leaveNative();
    const DecodedFunction &DF = *CallerFS.DF;
    int64_t Out = 0;
    const bool Ok = callSite(CallerFS, DF.Code[CodeIdx],
                             Ctx.RegTop - DF.NumSlots, Out, Ctx.Depth);
    Ctx.Status = Ok ? jit::StatusOk : jit::StatusTrap;
    enterNative();
    return Out;
  }

  /// Finishes, in the bytecode loop, a directly called activation of
  /// \p FS that deopted at \p CodeIdx. Its frame is the top one and its
  /// depth is the context's; the loop pops the frame when it returns.
  int64_t nativeResume(FnState &FS, uint64_t CodeIdx) {
    leaveNative();
    ++R.Interp.Deopts;
    const DecodedFunction &DF = *FS.DF;
    int64_t Out = 0;
    const bool Ok = execLoop<true>(DF, FS, regTop() - DF.NumSlots,
                                   localTop() - DF.LocalArenaSize, Out,
                                   Ctx.Depth, DF.Code.data() + CodeIdx);
    Ctx.Status = Ok ? jit::StatusOk : jit::StatusTrap;
    enterNative();
    return Out;
  }

  static int64_t callThunk(jit::NativeCtx *C, jit::NativeLink *Caller,
                           uint64_t Idx) {
    return static_cast<ExecEngine *>(C->Engine)
        ->nativeCall(*static_cast<FnState *>(Caller), Idx);
  }

  static int64_t resumeThunk(jit::NativeCtx *C, jit::NativeLink *Self,
                             uint64_t Idx) {
    return static_cast<ExecEngine *>(C->Engine)
        ->nativeResume(*static_cast<FnState *>(Self), Idx);
  }

  static void printThunk(jit::NativeCtx *C, int64_t V) {
    static_cast<ExecEngine *>(C->Engine)->R.Output.push_back(V);
  }

  //===-- Bytecode engine --------------------------------------------------===

  /// The call \p X in \p FS's code, made from the frame whose slots start
  /// at \p Rg at depth \p Depth. Resolves the callee's state once per call
  /// site per run (later executions skip the States lookup) and stages the
  /// arguments on the shared stack, which the callee copies into its frame
  /// before pushing any of its own, so the span lives exactly long enough.
  bool callSite(FnState &FS, const BInst &X, const int64_t *Rg, int64_t &Out,
                unsigned Depth) {
    const DecodedFunction &DF = *FS.DF;
    auto *CS = static_cast<FnState *>(FS.CalleeStates[X.T0]);
    if (!CS)
      FS.CalleeStates[X.T0] = CS = &stateFor(*DF.Callees[X.T0]);
    const uint32_t NA = X.ArgsEnd - X.ArgsBegin;
    const size_t AB = ArgStack.size();
    ArgStack.resize(AB + NA);
    for (uint32_t I = 0; I != NA; ++I)
      ArgStack[AB + I] = Rg[DF.CallArgSlots[X.ArgsBegin + I]];
    const bool Ok = call(*CS, ArgStack.data() + AB, NA, Out, Depth + 1);
    ArgStack.resize(AB);
    return Ok;
  }

  /// The dispatch loop over an already-pushed frame. A fresh call enters
  /// at block 0; a native deopt re-enters mid-block at \p ResumeAt — the
  /// block counter and every instruction before it were already accounted
  /// by the compiled code, so the resume path skips the block preamble and
  /// starts with per-instruction fuel. With \p Tiering (the native engine)
  /// a retreating edge ticks the hotness ledger and may hand the frame to
  /// compiled code (OSR); a deopt from there resumes in this same loop.
  /// A directly called activation that deopts gets a loop of its own from
  /// the resume helper. The bytecode engine's instance carries no tiering
  /// check at all.
  template <bool Tiering>
  bool execLoop(const DecodedFunction &DF, FnState &FS, size_t Base,
                size_t LocalBase, int64_t &RetVal, unsigned Depth,
                const BInst *ResumeAt) {
    if (PhiScratch.size() < DF.MaxPhiCopies)
      PhiScratch.resize(DF.MaxPhiCopies);
    int64_t *Rg = RegStack.data() + Base;
    int64_t *Lc = LocalStack.data() + LocalBase;
    DynamicCounts &Cnt = R.Counts;
    auto Wrap = [](uint64_t X) { return static_cast<int64_t>(X); };
    auto U = [](int64_t X) { return static_cast<uint64_t>(X); };

    uint64_t Prepaid = 0;
    uint32_t BI = 0;
    const BInst *IP = ResumeAt;
    const size_t NB = DF.Blocks.size();

    // Taking edge E: bump its counter, run its pre-resolved phi moves with
    // parallel-copy semantics (gather, then scatter), move to the target.
    // Returns whether the activation should tick the hotness ledger.
    auto TakeEdge = [&](int32_t EI) {
      const BEdge &E = DF.Edges[EI];
      ++FS.Cnt[NB + E.Id];
      const uint32_t N = E.CopyEnd - E.CopyBegin;
      if (N) {
        const PhiCopy *C = DF.PhiCopies.data() + E.CopyBegin;
        for (uint32_t I = 0; I != N; ++I)
          PhiScratch[I] = Rg[C[I].Src];
        for (uint32_t I = 0; I != N; ++I)
          Rg[C[I].Dst] = PhiScratch[I];
      }
      BI = E.To;
      return Tiering && E.Retreating;
    };

    if (ResumeAt) {
      // Deopt re-entry: the compiled code already counted this block and
      // every instruction before ResumeAt, and refunded the rest of its
      // prepaid segment; pay fuel per instruction from here (Prepaid == 0)
      // until the next segment, as a per-instruction engine would.
      goto Dispatch;
    }

  NextBlock: {
    const BBlock &Blk = DF.Blocks[BI];
    ++FS.Cnt[BI];
    // Bulk fuel charge for the block's leading segment. When fuel is too
    // low for the whole segment, fall back to paying per instruction so
    // the exhaustion trap fires at exactly the walker's instruction.
    if (FuelLeft >= Blk.SegCost) {
      FuelLeft -= Blk.SegCost;
      Prepaid = Blk.SegCost;
    }
    IP = DF.Code.data() + Blk.First;
  }
  Dispatch:
    for (;;) {
      const BInst &X = *IP++;
      if (Prepaid)
        --Prepaid;
      else if (FuelLeft == 0)
        return trap("out of fuel (infinite loop?)");
      else
        --FuelLeft;
      ++Cnt.Instructions;

      switch (X.Op) {
      case BOp::Add:
        Rg[X.Dst] = Wrap(U(Rg[X.A]) + U(Rg[X.B]));
        break;
      case BOp::Sub:
        Rg[X.Dst] = Wrap(U(Rg[X.A]) - U(Rg[X.B]));
        break;
      case BOp::Mul:
        Rg[X.Dst] = Wrap(U(Rg[X.A]) * U(Rg[X.B]));
        break;
      case BOp::Div:
        if (Rg[X.B] == 0)
          return trap("division by zero");
        // Division by -1 is wrapping negation: INT64_MIN / -1 overflows.
        Rg[X.Dst] = Rg[X.B] == -1 ? Wrap(0 - U(Rg[X.A])) : Rg[X.A] / Rg[X.B];
        break;
      case BOp::Rem:
        if (Rg[X.B] == 0)
          return trap("remainder by zero");
        Rg[X.Dst] = Rg[X.B] == -1 ? 0 : Rg[X.A] % Rg[X.B];
        break;
      case BOp::And:
        Rg[X.Dst] = Rg[X.A] & Rg[X.B];
        break;
      case BOp::Or:
        Rg[X.Dst] = Rg[X.A] | Rg[X.B];
        break;
      case BOp::Xor:
        Rg[X.Dst] = Rg[X.A] ^ Rg[X.B];
        break;
      case BOp::Shl:
        Rg[X.Dst] = Wrap(U(Rg[X.A]) << (Rg[X.B] & 63));
        break;
      case BOp::Shr:
        Rg[X.Dst] = Rg[X.A] >> (Rg[X.B] & 63);
        break;
      case BOp::CmpEQ:
        Rg[X.Dst] = Rg[X.A] == Rg[X.B];
        break;
      case BOp::CmpNE:
        Rg[X.Dst] = Rg[X.A] != Rg[X.B];
        break;
      case BOp::CmpLT:
        Rg[X.Dst] = Rg[X.A] < Rg[X.B];
        break;
      case BOp::CmpLE:
        Rg[X.Dst] = Rg[X.A] <= Rg[X.B];
        break;
      case BOp::CmpGT:
        Rg[X.Dst] = Rg[X.A] > Rg[X.B];
        break;
      case BOp::CmpGE:
        Rg[X.Dst] = Rg[X.A] >= Rg[X.B];
        break;
      case BOp::Copy:
        ++Cnt.Copies;
        Rg[X.Dst] = Rg[X.A];
        break;
      case BOp::Load:
        ++Cnt.SingletonLoads;
        Rg[X.Dst] = Mem.read(Mem.baseOfId(X.Obj));
        break;
      case BOp::Store:
        ++Cnt.SingletonStores;
        Mem.write(Mem.baseOfId(X.Obj), Rg[X.A]);
        break;
      case BOp::LoadLocal:
        ++Cnt.SingletonLoads;
        Rg[X.Dst] = Lc[X.Obj];
        break;
      case BOp::StoreLocal:
        ++Cnt.SingletonStores;
        Lc[X.Obj] = Rg[X.A];
        break;
      case BOp::AddrOf:
        Rg[X.Dst] = static_cast<int64_t>(Mem.baseOfId(X.Obj));
        break;
      case BOp::PtrLoad: {
        ++Cnt.AliasedLoads;
        uint64_t Addr = U(Rg[X.A]);
        if (!Mem.validAddress(Addr))
          return trap("wild pointer read");
        Rg[X.Dst] = Mem.read(Addr);
        break;
      }
      case BOp::PtrStore: {
        ++Cnt.AliasedStores;
        uint64_t Addr = U(Rg[X.A]);
        if (!Mem.validAddress(Addr))
          return trap("wild pointer write");
        Mem.write(Addr, Rg[X.B]);
        break;
      }
      case BOp::ArrayLoad: {
        ++Cnt.AliasedLoads;
        uint64_t Idx = U(Rg[X.A]);
        if (Idx >= X.Size)
          return trap("out-of-bounds read of " + X.MObj->name());
        Rg[X.Dst] = Mem.read(Mem.baseOfId(X.Obj) + Idx);
        break;
      }
      case BOp::ArrayStore: {
        ++Cnt.AliasedStores;
        uint64_t Idx = U(Rg[X.A]);
        if (Idx >= X.Size)
          return trap("out-of-bounds write of " + X.MObj->name());
        Mem.write(Mem.baseOfId(X.Obj) + Idx, Rg[X.B]);
        break;
      }
      case BOp::ArrayLoadLocal: {
        ++Cnt.AliasedLoads;
        uint64_t Idx = U(Rg[X.A]);
        if (Idx >= X.Size)
          return trap("out-of-bounds read of " + X.MObj->name());
        Rg[X.Dst] = Lc[X.Obj + Idx];
        break;
      }
      case BOp::ArrayStoreLocal: {
        ++Cnt.AliasedStores;
        uint64_t Idx = U(Rg[X.A]);
        if (Idx >= X.Size)
          return trap("out-of-bounds write of " + X.MObj->name());
        Lc[X.Obj + Idx] = Rg[X.B];
        break;
      }
      case BOp::Call: {
        int64_t Out = 0;
        if (!callSite(FS, X, Rg, Out, Depth))
          return false;
        // The callee may have grown the shared arenas; re-anchor.
        Rg = RegStack.data() + Base;
        Lc = LocalStack.data() + LocalBase;
        if (X.Dst >= 0)
          Rg[X.Dst] = Out;
        // Charge the segment that resumes after the call.
        if (FuelLeft >= X.ResumeCost) {
          FuelLeft -= X.ResumeCost;
          Prepaid = X.ResumeCost;
        }
        break;
      }
      case BOp::Print:
        R.Output.push_back(Rg[X.A]);
        break;
      case BOp::Jmp:
        if (TakeEdge(X.T0))
          goto BackEdge;
        goto NextBlock;
      case BOp::JmpIf:
        if (TakeEdge(Rg[X.A] != 0 ? X.T0 : X.T1))
          goto BackEdge;
        goto NextBlock;
      case BOp::Ret:
        RetVal = X.A >= 0 ? Rg[X.A] : 0;
        setTops(Base, LocalBase);
        return true;
      case BOp::Trap:
        return trap(DF.TrapMsgs[X.T0]);
      }
    }

  BackEdge: {
    // A retreating edge under the native engine, edge counted and phi
    // copies done: tick the ledger, and once the function has code,
    // continue this activation in it at block BI (OSR). Fuel is exact
    // here — a block's prepaid segment always ends at its terminator.
    jit::NativeCode *NC = tierUp(DF, FS);
    if (!NC)
      goto NextBlock;
    ++R.Interp.OsrEntries;
    uint32_t ResumeIdx = 0;
    switch (runNative(*NC, FS, RetVal, Depth, BI, ResumeIdx)) {
    case NativeExit::Returned:
      return true;
    case NativeExit::Trapped:
      return false;
    case NativeExit::Deopted:
      break;
    }
    // Callees may have grown the arenas while the compiled code ran.
    Rg = RegStack.data() + Base;
    Lc = LocalStack.data() + LocalBase;
    IP = DF.Code.data() + ResumeIdx;
    goto Dispatch;
  }
  }

  //===-- Reference tree-walker --------------------------------------------===

  /// Checked register read: traps on use of a never-written register
  /// (use-before-def). Constants and UndefValue always read.
  bool readReg(const Frame &Fr, const Value *V, int64_t &Out) {
    if (Fr.get(V, Out))
      return true;
    return trap("use of undefined value " + V->referenceString());
  }

  /// Executes \p F, which call() has checked, in the walker; the result
  /// lands in \p RetVal. Returns false on trap.
  bool callWalk(Function &F, const int64_t *Args, int64_t &RetVal,
                unsigned Depth) {
    // Frame-local storage for non-address-taken locals that survived in
    // memory form (normally none after mem2reg, but raw IR may have them),
    // held against the same budget as the bytecode frames' arenas.
    uint64_t FrameCells = 0;
    for (const auto &L : F.locals())
      if (!L->isAddressTaken())
        FrameCells += L->size();
    if (WalkLocalCells + FrameCells > jit::CellLimit)
      return trap("frame-local memory overflow in " + F.name() + " (budget " +
                  std::to_string(jit::CellLimit) + " cells)");
    WalkLocalCells += FrameCells;
    struct CellsHeld {
      uint64_t &Live;
      uint64_t N;
      ~CellsHeld() { Live -= N; }
    } Held{WalkLocalCells, FrameCells};
    std::unordered_map<const MemoryObject *, std::vector<int64_t>> LocalMem;
    for (const auto &L : F.locals())
      if (!L->isAddressTaken())
        LocalMem[L.get()].assign(L->size(), L->initialValue());

    Frame Fr;

    for (unsigned I = 0; I != F.numArgs(); ++I)
      Fr.set(F.arg(I), Args[I]);

    auto readObject = [&](const MemoryObject *Obj, uint64_t Off,
                          int64_t &Out) {
      if (Off >= Obj->size())
        return trap("out-of-bounds read of " + Obj->name());
      if (Mem.knows(*Obj)) {
        Out = Mem.read(Mem.base(*Obj) + Off);
        return true;
      }
      Out = LocalMem[Obj][Off];
      return true;
    };
    auto writeObject = [&](const MemoryObject *Obj, uint64_t Off, int64_t V) {
      if (Off >= Obj->size())
        return trap("out-of-bounds write of " + Obj->name());
      if (Mem.knows(*Obj))
        Mem.write(Mem.base(*Obj) + Off, V);
      else
        LocalMem[Obj][Off] = V;
      return true;
    };

    BasicBlock *BB = F.entry();
    BasicBlock *PrevBB = nullptr;
    while (true) {
      ++R.BlockCounts[BB];
      if (PrevBB)
        ++R.EdgeCounts[PrevBB][BB];

      // Phi semantics: all phis in the block read their incoming values
      // simultaneously on entry.
      std::vector<std::pair<const Value *, int64_t>> PhiVals;
      for (auto &I : *BB) {
        if (auto *P = dyn_cast<PhiInst>(I.get())) {
          assert(PrevBB && "phi in entry block");
          int64_t V;
          if (!readReg(Fr, P->incomingValueFor(PrevBB), V))
            return false;
          PhiVals.emplace_back(P, V);
        } else if (!isa<MemPhiInst>(I.get())) {
          break;
        }
      }
      for (auto &[P, V] : PhiVals)
        Fr.set(P, V);

      for (auto &IPt : *BB) {
        Instruction *I = IPt.get();
        if (isa<PhiInst>(I) || isa<MemPhiInst>(I) || isa<DummyLoadInst>(I))
          continue;
        if (FuelLeft-- == 0)
          return trap("out of fuel (infinite loop?)");
        ++R.Counts.Instructions;

        switch (I->kind()) {
        case Value::Kind::BinOp: {
          auto *B = cast<BinOpInst>(I);
          int64_t L, Rv, Out = 0;
          if (!readReg(Fr, B->lhs(), L) || !readReg(Fr, B->rhs(), Rv))
            return false;
          // Wrapping arithmetic through uint64_t: random workloads may
          // overflow, which must stay well defined.
          auto Wrap = [](uint64_t X) { return static_cast<int64_t>(X); };
          switch (B->op()) {
          case BinOpKind::Add:
            Out = Wrap(static_cast<uint64_t>(L) + static_cast<uint64_t>(Rv));
            break;
          case BinOpKind::Sub:
            Out = Wrap(static_cast<uint64_t>(L) - static_cast<uint64_t>(Rv));
            break;
          case BinOpKind::Mul:
            Out = Wrap(static_cast<uint64_t>(L) * static_cast<uint64_t>(Rv));
            break;
          case BinOpKind::Div:
            if (Rv == 0)
              return trap("division by zero");
            // Wrapping negation: INT64_MIN / -1 overflows.
            Out = Rv == -1 ? Wrap(0 - static_cast<uint64_t>(L)) : L / Rv;
            break;
          case BinOpKind::Rem:
            if (Rv == 0)
              return trap("remainder by zero");
            Out = Rv == -1 ? 0 : L % Rv;
            break;
          case BinOpKind::And: Out = L & Rv; break;
          case BinOpKind::Or: Out = L | Rv; break;
          case BinOpKind::Xor: Out = L ^ Rv; break;
          case BinOpKind::Shl:
            Out = Wrap(static_cast<uint64_t>(L) << (Rv & 63));
            break;
          case BinOpKind::Shr: Out = L >> (Rv & 63); break;
          case BinOpKind::CmpEQ: Out = L == Rv; break;
          case BinOpKind::CmpNE: Out = L != Rv; break;
          case BinOpKind::CmpLT: Out = L < Rv; break;
          case BinOpKind::CmpLE: Out = L <= Rv; break;
          case BinOpKind::CmpGT: Out = L > Rv; break;
          case BinOpKind::CmpGE: Out = L >= Rv; break;
          }
          Fr.set(B, Out);
          break;
        }
        case Value::Kind::Copy: {
          ++R.Counts.Copies;
          int64_t V;
          if (!readReg(Fr, cast<CopyInst>(I)->source(), V))
            return false;
          Fr.set(I, V);
          break;
        }
        case Value::Kind::Load: {
          auto *L = cast<LoadInst>(I);
          ++R.Counts.SingletonLoads;
          int64_t V;
          if (!readObject(L->object(), 0, V))
            return false;
          Fr.set(L, V);
          break;
        }
        case Value::Kind::Store: {
          auto *S = cast<StoreInst>(I);
          ++R.Counts.SingletonStores;
          int64_t V;
          if (!readReg(Fr, S->storedValue(), V))
            return false;
          if (!writeObject(S->object(), 0, V))
            return false;
          break;
        }
        case Value::Kind::AddrOf: {
          auto *A = cast<AddrOfInst>(I);
          if (!Mem.knows(*A->object()))
            return trap("address of object without static storage: " +
                        A->object()->name());
          Fr.set(A, static_cast<int64_t>(Mem.base(*A->object())));
          break;
        }
        case Value::Kind::PtrLoad: {
          auto *P = cast<PtrLoadInst>(I);
          ++R.Counts.AliasedLoads;
          int64_t AddrV;
          if (!readReg(Fr, P->address(), AddrV))
            return false;
          uint64_t Addr = static_cast<uint64_t>(AddrV);
          if (!Mem.validAddress(Addr))
            return trap("wild pointer read");
          Fr.set(P, Mem.read(Addr));
          break;
        }
        case Value::Kind::PtrStore: {
          auto *P = cast<PtrStoreInst>(I);
          ++R.Counts.AliasedStores;
          int64_t AddrV, V;
          if (!readReg(Fr, P->address(), AddrV) ||
              !readReg(Fr, P->storedValue(), V))
            return false;
          uint64_t Addr = static_cast<uint64_t>(AddrV);
          if (!Mem.validAddress(Addr))
            return trap("wild pointer write");
          Mem.write(Addr, V);
          break;
        }
        case Value::Kind::ArrayLoad: {
          auto *A = cast<ArrayLoadInst>(I);
          ++R.Counts.AliasedLoads;
          int64_t Idx, V;
          if (!readReg(Fr, A->index(), Idx))
            return false;
          if (!readObject(A->object(), static_cast<uint64_t>(Idx), V))
            return false;
          Fr.set(A, V);
          break;
        }
        case Value::Kind::ArrayStore: {
          auto *A = cast<ArrayStoreInst>(I);
          ++R.Counts.AliasedStores;
          int64_t Idx, V;
          if (!readReg(Fr, A->index(), Idx) ||
              !readReg(Fr, A->storedValue(), V))
            return false;
          if (!writeObject(A->object(), static_cast<uint64_t>(Idx), V))
            return false;
          break;
        }
        case Value::Kind::Call: {
          auto *C = cast<CallInst>(I);
          std::vector<int64_t> CallArgs;
          CallArgs.reserve(C->operands().size());
          for (Value *A : C->operands()) {
            int64_t V;
            if (!readReg(Fr, A, V))
              return false;
            CallArgs.push_back(V);
          }
          int64_t Out = 0;
          if (!call(stateFor(*C->callee()), CallArgs.data(), CallArgs.size(),
                    Out, Depth + 1))
            return false;
          if (C->type() != Type::Void)
            Fr.set(C, Out);
          break;
        }
        case Value::Kind::Print: {
          int64_t V;
          if (!readReg(Fr, cast<PrintInst>(I)->value(), V))
            return false;
          R.Output.push_back(V);
          break;
        }
        case Value::Kind::Br:
          PrevBB = BB;
          BB = cast<BrInst>(I)->target();
          break;
        case Value::Kind::CondBr: {
          auto *C = cast<CondBrInst>(I);
          int64_t V;
          if (!readReg(Fr, C->condition(), V))
            return false;
          PrevBB = BB;
          BB = V != 0 ? C->trueTarget() : C->falseTarget();
          break;
        }
        case Value::Kind::Ret: {
          auto *Rt = cast<RetInst>(I);
          if (Rt->returnValue()) {
            if (!readReg(Fr, Rt->returnValue(), RetVal))
              return false;
          } else {
            RetVal = 0;
          }
          return true;
        }
        default:
          return trap("cannot execute: " + toString(*I));
        }
        if (I->isTerminator())
          break; // continue outer loop with new BB
      }
      if (!BB->terminator())
        return trap("fell off the end of block " + BB->name());
    }
  }
};

} // namespace

ExecutionResult Interpreter::run(const std::string &EntryName,
                                 const std::vector<int64_t> &Args) {
  ExecutionResult R;
  R.Interp.Engine = Engine;
  Function *Entry = M.getFunction(EntryName);
  if (!Entry) {
    R.Error = "no function named " + EntryName;
    return R;
  }
  double T0 = monotonicSeconds();
  TraceSpan Span;
  if (trace::enabled())
    Span.begin("interp", "exec:" + EntryName);
  std::optional<AnalysisManager> OwnAM; // decodes for this run only
  ExecEngine E(M, Fuel, R, Engine, AM ? *AM : OwnAM.emplace(&M),
               JitThreshold);
  int64_t Ret = 0;
  R.Ok = true;
  if (E.start() &&
      E.call(E.stateFor(*Entry), Args.data(), Args.size(), Ret, 0))
    R.ExitValue = Ret;
  E.finish();
  Span.end();
  if (trace::enabled())
    trace::counter("interp", "interp-instructions", "instructions",
                   static_cast<int64_t>(R.Counts.Instructions));
  R.Interp.ExecSeconds = monotonicSeconds() - T0;
  ++NumExecutions;
  switch (Engine) {
  case InterpEngine::Bytecode:
    ++NumBytecodeRuns;
    break;
  case InterpEngine::Native:
    ++NumNativeRuns;
    break;
  case InterpEngine::Walk:
    ++NumWalkRuns;
    break;
  }
  NumInstsExecuted += R.Counts.Instructions;
  // Per-event counters are kept per run and published once, so hot paths
  // (a native call) touch no shared atomic.
  NumDecodeCacheHits += R.Interp.DecodeCacheHits;
  NumNativeCompiles += R.Interp.FunctionsCompiled;
  NumNativeCalls += R.Interp.NativeCalls;
  NumNativeOsrEntries += R.Interp.OsrEntries;
  NumNativeDirectCalls += R.Interp.DirectCalls;
  NumNativeDeopts += R.Interp.Deopts;
  ExecMicros += static_cast<uint64_t>(R.Interp.ExecSeconds * 1e6);
  return R;
}

//===- jit/NativeJIT.h - x86-64 baseline-JIT tier --------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native tier of the interpreter (docs/INTERPRETER.md): a template
/// JIT that compiles a function's decoded BInst stream (interp/Bytecode.h)
/// into x86-64 machine code, one fixed instruction template per opcode,
/// with intra-function branches patched as rel32 relocations over per-block
/// labels. Compiled code runs on the same flat ExecEngine arenas as the
/// bytecode engine (register frame, frame-local arena, dense block/edge
/// counters) and keeps exact observable accounting: fuel is decremented
/// per instruction (the bytecode engine's segment prepay nets out to the
/// same one-unit-per-instruction), dynamic load/store/copy counters are
/// accumulated as deltas in the NativeCtx and added to the run's counts
/// when the run ends.
///
/// Anything the templates cannot express exactly — a trap precondition
/// (division by zero, out-of-bounds index, wild pointer, INT64_MIN/-1
/// division), fuel exhaustion, or a decode-time Trap — *deopts*: the code
/// stores the current instruction index into the context and returns, and
/// the engine resumes the bytecode dispatch loop on the very same frame at
/// that exact instruction, so the trap fires with byte-identical counters
/// and message. Calls go through an engine helper that re-dispatches
/// (native when hot, bytecode otherwise, walker for undecodable callees)
/// and re-anchors the frame pointers after possible arena growth.
///
/// Entry is the mirror image of deopt. A compiled function can be entered
/// at block 0 (a call) or, *on stack replacement* (OSR), at the target of
/// any retreating edge: a bytecode activation whose hotness ledger
/// crosses the threshold on a back edge hands its live frame to compiled
/// code, which resumes at that block's label.
///
/// NativeCode is cached through the AnalysisManager
/// (AnalysisKind::NativeCode) and invalidated together with the bytecode
/// decode it was compiled from; the hotness ledger (HotCount) lives in the
/// cached object, so hotness accumulates across profile + measure runs
/// until an IR edit retires it.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_JIT_NATIVEJIT_H
#define SRP_JIT_NATIVEJIT_H

#include "analysis/AnalysisManager.h"
#include "jit/CodeBuffer.h"
#include <cstdint>
#include <memory>

namespace srp {
struct DecodedFunction;
}

namespace srp::jit {

/// NativeCtx::Status values at JIT-code exit.
inline constexpr int32_t StatusOk = 0;    ///< Returned normally (rax = value).
inline constexpr int32_t StatusDeopt = 1; ///< Resume bytecode at DeoptIndex.
inline constexpr int32_t StatusTrap = 2;  ///< Trap recorded; unwind the run.

struct NativeCtx;

/// Engine call helper: executes the BOp::Call at \p CodeIdx of the calling
/// function (identified by its FnState) and returns the callee's value.
/// Re-anchors CurRg/CurLc, syncs FuelLeft, and sets Status to StatusOk or
/// StatusTrap.
using CallHelperFn = int64_t (*)(NativeCtx *, void *CallerFnState,
                                 uint64_t CodeIdx, int64_t *Rg, int64_t *Lc);
/// Engine print helper: appends \p V to the run's output stream.
using PrintHelperFn = void (*)(NativeCtx *, int64_t V);

/// The engine<->code contract. Field offsets are baked into emitted
/// templates (offsetof in NativeEmitter.cpp), so this struct is the ABI:
/// reorder it and every compiled function is wrong.
struct NativeCtx {
  int64_t *MemCells = nullptr; ///< Base of the flat memory image.
  uint64_t FuelLeft = 0;       ///< Synced at entry/exit and around calls.
  /// Dynamic-count deltas accumulated by compiled code; the engine adds
  /// them to ExecutionResult::Counts once, when the run ends.
  uint64_t Instructions = 0;
  uint64_t SingletonLoads = 0;
  uint64_t SingletonStores = 0;
  uint64_t AliasedLoads = 0;
  uint64_t AliasedStores = 0;
  uint64_t Copies = 0;
  /// Caller frame pointers, rewritten by the call helper: the shared
  /// arenas may reallocate while a callee runs, so compiled code reloads
  /// its frame registers from here after every call.
  int64_t *CurRg = nullptr;
  int64_t *CurLc = nullptr;
  int32_t Status = StatusOk;
  int32_t DeoptIndex = 0; ///< Code index to resume at (Status == Deopt).
  uint32_t Depth = 0;     ///< Call depth of the running native frame.
  uint32_t Pad0 = 0;
  CallHelperFn CallHelper = nullptr;
  PrintHelperFn PrintHelper = nullptr;
  void *Engine = nullptr; ///< The owning ExecEngine.
};

/// Compiled entry point. Arguments: context, register frame base, local
/// arena base, merged block+edge counter array (blocks first), the
/// caller-side FnState the call helper needs to resolve call sites, and
/// the block to start at: 0 for a call, or (OSR) the target block of a
/// retreating edge the bytecode loop has just taken — edge counted, phi
/// copies done. Entry at any other block is undefined.
using EntryFn = int64_t (*)(NativeCtx *, int64_t *Rg, int64_t *Lc,
                            uint64_t *Cnt, void *FnState,
                            uint32_t StartBlock);

/// The largest memory geometry the templates encode: object sizes, the
/// static image, and a frame's slots and local arena, in cells (every
/// displacement, cells * 8, stays within a signed 32-bit immediate). The
/// interpreter refuses to run programs whose memory exceeds it, so a
/// program that runs never loses the native tier to its size.
inline constexpr uint64_t CellLimit = uint64_t(1) << 27;

/// Geometry of the flat memory image a compile bakes in as immediates
/// (absolute cell bases for singleton/array accesses, the image size for
/// wild-pointer checks). Sig identifies the layout so a cached compile is
/// never run against a differently-laid-out image.
struct MemoryLayout {
  const int64_t *BaseById = nullptr; ///< Object id -> cell base, -1 = none.
  size_t NumIds = 0;
  size_t NumCells = 0;
  uint64_t Sig = 0;
};

/// Per-function native-tier cache entry (AnalysisKind::NativeCode).
/// Starts cold: build() makes an empty entry, the engine ticks HotCount
/// and compiles once the threshold is crossed. Invalidated (via the
/// manager) whenever the underlying decode is.
class NativeCode {
public:
  /// The hotness ledger: one tick per call and per retreating edge a
  /// bytecode activation takes, under the native engine.
  uint64_t HotCount = 0;
  bool Attempted = false; ///< A compile ran (Entry null => unsupported).
  uint64_t ImageSig = 0;  ///< MemoryLayout::Sig the code was baked for.
  CodeBuffer Buf;
  EntryFn Entry = nullptr;
};

/// Compiles \p DF into NC.Buf / NC.Entry. Returns false (Entry stays
/// null) when the host is unsupported or the function uses a shape the
/// templates cannot encode (e.g. displacements beyond rel32 range); the
/// engine then stays on the bytecode tier for this function.
bool compileFunction(NativeCode &NC, const DecodedFunction &DF,
                     const MemoryLayout &L);

/// Ledger ticks (calls + retreating edges) at which a function is
/// JIT-compiled by default; docs/INTERPRETER.md has the sweep behind it.
inline constexpr uint64_t DefaultJitThreshold = 128;

/// The threshold in effect: the SRP_JIT_THRESHOLD environment knob, else
/// DefaultJitThreshold. 1 compiles on the first call.
uint64_t defaultJitThreshold();

} // namespace srp::jit

namespace srp {
template <> struct AnalysisTraits<jit::NativeCode> {
  static constexpr AnalysisKind Kind = AnalysisKind::NativeCode;
  static std::unique_ptr<jit::NativeCode> build(Function &,
                                                AnalysisManager &) {
    return std::make_unique<jit::NativeCode>();
  }
};
} // namespace srp

#endif // SRP_JIT_NATIVEJIT_H

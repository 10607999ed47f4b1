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
/// counters) and keeps exact observable accounting. Fuel is prepaid per
/// segment, the decoder's fuel unit (a block's leading run of instructions,
/// or the run after a call): one compare-and-subtract charges
/// BBlock::SegCost or BInst::ResumeCost, exactly as the bytecode loop does.
/// The dynamic instruction count is the fuel compiled code consumed, which
/// the engine measures whenever control passes between it and compiled
/// code; load/store/copy counters are accumulated as deltas in the
/// NativeCtx and added to the run's counts when the run ends.
///
/// Anything the templates cannot express exactly — a trap precondition
/// (division by zero, out-of-bounds index, wild pointer, INT64_MIN/-1
/// division), a segment the remaining fuel cannot pay, or a decode-time
/// Trap — *deopts*: an out-of-line stub refunds the part of the segment
/// that has not run, and the bytecode dispatch loop resumes on the very
/// same frame at that exact instruction, paying fuel per instruction, so
/// the trap fires with byte-identical counters and message.
///
/// Calls between compiled functions are direct. Each function has a
/// per-run NativeLink (its counters, its resolved callees, its direct
/// entry); a call site whose callee has a direct entry stages the
/// arguments at the register arena's top, in the room every frame keeps
/// past its slots for its widest call, and calls it. The direct entry
/// checks arity, call depth, arena capacity and the cell budget, and
/// either pushes its own frame or *declines* without side effects, and
/// the caller takes the engine's call helper, which re-dispatches (native
/// when hot, bytecode otherwise) and is the single place that grows arenas
/// and raises call traps. A directly called activation that deopts keeps
/// its frame and is finished by the engine's resume helper in the bytecode
/// loop.
///
/// Entry from the engine is the mirror image of deopt. A compiled function
/// can be entered at block 0 (a call) or, *on stack replacement* (OSR), at
/// the target of any retreating edge: a bytecode activation whose hotness
/// ledger crosses the threshold on a back edge hands its live frame to
/// compiled code, which resumes at that block's label.
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
struct NativeLink;

/// Engine frame helper, called by compiled code with its own NativeLink and
/// a code index; returns a value and sets Status to StatusOk or StatusTrap.
/// Two helpers share the shape:
///  - the call helper executes the BOp::Call at the index in the calling
///    function, exactly like the bytecode loop's Call case;
///  - the resume helper finishes a directly called activation that deopted
///    at the index, in the bytecode loop, and returns its value.
/// Both read and write FuelLeft, which compiled code syncs around them.
using FrameHelperFn = int64_t (*)(NativeCtx *, NativeLink *Self,
                                  uint64_t CodeIdx);
/// Engine print helper: appends \p V to the run's output stream.
using PrintHelperFn = void (*)(NativeCtx *, int64_t V);

/// The engine<->code contract. Field offsets are baked into emitted
/// templates (offsetof in NativeEmitter.cpp), so this struct is the ABI:
/// reorder it and every compiled function is wrong.
struct NativeCtx {
  int64_t *MemCells = nullptr; ///< Base of the flat memory image.
  uint64_t FuelLeft = 0;       ///< Synced at entry/exit and around helpers.
  /// The engine's register and frame-local arena watermarks: the running
  /// frame always ends at them, so compiled code re-anchors its frame
  /// pointers from here after every call (the arenas may reallocate while
  /// a callee runs) and a direct entry pushes its frame here.
  int64_t *RegTop = nullptr;
  int64_t *LocalTop = nullptr;
  /// Where a direct entry must decline: a frame and the staging room past
  /// it (DecodedFunction::MaxCallArgs) must fit below RegEnd, the register
  /// arena's end; LocalEnd is the frame-local arena's end or the cell
  /// budget's limit, whichever is lower. Published by the engine each time
  /// it enters compiled code.
  int64_t *RegEnd = nullptr;
  int64_t *LocalEnd = nullptr;
  /// Dynamic-count deltas accumulated by compiled code; the engine adds
  /// them to ExecutionResult::Counts once, when the run ends.
  uint64_t SingletonLoads = 0;
  uint64_t SingletonStores = 0;
  uint64_t AliasedLoads = 0;
  uint64_t AliasedStores = 0;
  uint64_t Copies = 0;
  uint64_t DirectCalls = 0; ///< Calls direct entries accepted.
  int32_t Status = StatusOk;
  int32_t DeoptIndex = 0; ///< Code index to resume at (Status == Deopt).
  uint32_t Depth = 0;     ///< Call depth of the running native frame.
  uint32_t Pad0 = 0;
  FrameHelperFn CallHelper = nullptr;
  FrameHelperFn ResumeHelper = nullptr;
  PrintHelperFn PrintHelper = nullptr;
  void *Engine = nullptr; ///< The owning ExecEngine.
};

/// A function's per-run link, what its compiled code and its callers'
/// compiled code know about it. Also part of the ABI.
struct NativeLink {
  /// The direct entry, set only while the function has code compiled for
  /// this run's memory image. Not a C++ function: see the emitter's file
  /// comment for its calling convention.
  const void *Direct = nullptr;
  uint64_t *Counts = nullptr; ///< Merged block+edge counters, blocks first.
  /// Per callee index (DecodedFunction::Callees): the callee's link once a
  /// call through the helper has resolved it, null before.
  NativeLink **Callees = nullptr;
};

/// Compiled engine entry point: context, the function's link, and the
/// block to start at: 0 for a call, or (OSR) the target block of a
/// retreating edge the bytecode loop has just taken — edge counted, phi
/// copies done. The activation's frame must be the one the arena
/// watermarks end at. Entry at any other block is undefined.
using EntryFn = int64_t (*)(NativeCtx *, NativeLink *Self,
                            uint32_t StartBlock);

/// Call depth at which a call traps with "call stack overflow" in every
/// engine (a call made at this depth is refused).
inline constexpr uint32_t MaxCallDepth = 400;

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
  const void *Direct = nullptr; ///< The direct entry (NativeLink::Direct).
};

/// Compiles \p DF into NC.Buf / NC.Entry / NC.Direct (the direct entry
/// ticks NC.HotCount in place). Returns false (Entry stays null) when the
/// host is unsupported or the function uses a shape the templates cannot
/// encode (e.g. displacements beyond rel32 range); the engine then stays
/// on the bytecode tier for this function.
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

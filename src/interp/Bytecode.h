//===- interp/Bytecode.h - Decoded interpreter tier ------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode compilation tier of the interpreter (docs/INTERPRETER.md).
/// A one-shot decoder numbers every SSA value of a function into a dense
/// frame slot and flattens its reachable blocks into one contiguous array
/// of pre-decoded instructions: opcode, resolved operand slots, memory
/// object id + size, branch targets as edge indices. Constants are folded
/// into the frame template (a constant operand is just a pre-filled slot),
/// phi moves are pre-resolved per CFG edge into parallel-copy lists, and
/// block/edge execution counts become dense per-function vectors that the
/// engine converts back to the pointer-keyed ExecutionResult maps at the
/// end of a run.
///
/// Decoding is registered as an AnalysisManager analysis
/// (AnalysisKind::Bytecode), so the profile run and the post-promotion
/// measurement of an *unchanged* function share one decode; an edit that
/// moves either of the function's edit epochs retires the decoded form.
///
/// The decoder also proves, via the dominator tree, that every register
/// use is reached by its definition. A function that fails the proof or
/// breaks another well-formedness rule (only hand-built IR does) is
/// *refused*: DecodedFunction::Refusal names the first broken rule, and
/// every engine, the tree-walker included, traps when it is called.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_BYTECODE_H
#define SRP_INTERP_BYTECODE_H

#include "analysis/AnalysisManager.h"
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace srp {

class BasicBlock;
class Function;
class MemoryObject;

/// Decoded opcodes. The first 16 entries mirror BinOpKind in order so a
/// binary operator decodes with one cast.
enum class BOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  Copy,
  Load,       ///< Singleton load, static storage (Obj = object id).
  Store,      ///< Singleton store, static storage.
  LoadLocal,  ///< Singleton load, frame-local storage (Obj = arena offset).
  StoreLocal, ///< Singleton store, frame-local storage.
  AddrOf,
  PtrLoad,
  PtrStore,
  ArrayLoad,       ///< Aliased array read, static storage.
  ArrayStore,      ///< Aliased array write, static storage.
  ArrayLoadLocal,  ///< Aliased array read, frame-local storage.
  ArrayStoreLocal, ///< Aliased array write, frame-local storage.
  Call,
  Print,
  Jmp,
  JmpIf,
  Ret,  ///< A = value slot, or -1 for void returns.
  Trap, ///< Decode-time-known trap (T0 indexes DecodedFunction::TrapMsgs).
};

/// One decoded instruction. Fixed layout; field meaning depends on Op (see
/// the opcode comments above and the executor in Interpreter.cpp).
struct BInst {
  BOp Op;
  int32_t Dst = -1; ///< Result slot, -1 when the instruction produces none.
  int32_t A = -1;   ///< First operand slot (lhs / source / address / cond).
  int32_t B = -1;   ///< Second operand slot (rhs / stored value).
  uint32_t Obj = 0; ///< Memory ops: object id (static) or arena offset
                    ///< (frame-local).
  uint32_t Size = 0; ///< Memory ops: object size in cells (bounds check).
  int32_t T0 = -1;   ///< Jmp/JmpIf: edge index; Call: callee index;
                     ///< Trap: message index.
  int32_t T1 = -1;   ///< JmpIf: false-edge index.
  uint32_t ArgsBegin = 0; ///< Call: argument slot range in CallArgSlots.
  uint32_t ArgsEnd = 0;
  uint32_t ResumeCost = 0; ///< Call: fuel cost of the segment that resumes
                           ///< after the callee returns.
  /// Array ops: the accessed object, for out-of-bounds trap messages only
  /// (hot-path fields are the pre-resolved Obj/Size above).
  const MemoryObject *MObj = nullptr;
};

/// A decoded CFG edge: where it goes, its dense id (EdgeCounts index), and
/// the parallel phi copies the transition performs.
struct BEdge {
  uint32_t To = 0;     ///< Target block index.
  uint32_t Id = 0;     ///< Dense edge id within the function.
  uint32_t CopyBegin = 0, CopyEnd = 0; ///< Range in PhiCopies.
  /// To <= the source block's index. Every cycle contains at least one
  /// such edge, so these are where the native tier's hotness ledger ticks
  /// inside a running activation (and where it may enter compiled code).
  bool Retreating = false;
};

/// One pre-resolved phi move (executed in parallel with its edge-mates).
struct PhiCopy {
  int32_t Dst;
  int32_t Src;
};

/// A decoded block: where its instruction run starts in Code, and the fuel
/// cost of its leading segment (instructions up to and including the first
/// call, or the whole block). The executor charges a segment's cost in one
/// subtraction when enough fuel remains and falls back to per-instruction
/// accounting otherwise, so fuel traps fire at exactly the same
/// instruction as in the tree-walker.
struct BBlock {
  uint32_t First = 0;
  uint32_t SegCost = 0;
};

/// A function decoded for the bytecode engine. Immutable after decoding;
/// owned by the AnalysisManager cache. Holds no absolute memory addresses
/// and no execution counts, so one decode is valid across runs until the
/// IR changes.
struct DecodedFunction {
  Function *F = nullptr;

  /// Degenerate shapes every engine traps on when called; both decode to
  /// no blocks.
  bool Empty = false;  ///< Function has no blocks.
  std::string Refusal; ///< Set when decoding refused the function: the
                       ///< first well-formedness rule it breaks.

  uint32_t NumSlots = 0;
  uint32_t NumArgs = 0;
  /// Sparse frame initialisation: constant/undef slots only. No other
  /// slot needs clearing — the decoder's dominance proof guarantees every
  /// remaining slot is written before it is read, so activations run on
  /// an uninitialised arena.
  struct SlotInit {
    int32_t Slot;
    int64_t Val;
  };
  std::vector<SlotInit> ConstInits;

  std::vector<BInst> Code;
  std::vector<BBlock> Blocks;          ///< Index 0 is the entry block.
  std::vector<BasicBlock *> BlockPtrs; ///< Dense index -> IR block.
  std::vector<BEdge> Edges;
  std::vector<uint32_t> EdgeFrom, EdgeTo; ///< Per edge id: block indices.
  std::vector<PhiCopy> PhiCopies;
  uint32_t MaxPhiCopies = 0; ///< Largest per-edge copy list (scratch size).
  std::vector<int32_t> CallArgSlots;
  /// Largest argument count of a call made here: the staging room a frame
  /// keeps past its slots for the compiled code's direct calls.
  uint32_t MaxCallArgs = 0;
  std::vector<Function *> Callees;
  std::vector<std::string> TrapMsgs;

  /// Frame-local storage (non-address-taken locals): arena offsets.
  struct LocalSlot {
    uint32_t Off;
    uint32_t Size;
    int64_t Init;
  };
  std::vector<LocalSlot> Locals;
  /// Cells per activation. 64-bit so a sum of huge locals cannot wrap
  /// below the engine's cell budget, which refuses such frames.
  uint64_t LocalArenaSize = 0;

  uint32_t numEdges() const { return static_cast<uint32_t>(Edges.size()); }
};

template <> struct AnalysisTraits<DecodedFunction> {
  static constexpr AnalysisKind Kind = AnalysisKind::Bytecode;
  /// Defined in Bytecode.cpp: decodes \p F against the manager's cached
  /// dominator tree (none needed for empty functions).
  static std::unique_ptr<DecodedFunction> build(Function &F,
                                                AnalysisManager &AM);
};

} // namespace srp

#endif // SRP_INTERP_BYTECODE_H

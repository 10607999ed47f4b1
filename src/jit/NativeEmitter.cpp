//===- jit/NativeEmitter.cpp - BInst -> x86-64 template compiler ----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
// One fixed template per decoded opcode, emitted linearly per block with
// rel32 branch fixups. Register plan (all callee-saved, so engine helper
// calls need no spills):
//
//   rbx  register-frame base (Rg)           r13  FuelLeft
//   rbp  frame-local arena base (Lc)        r14  NativeCtx*
//   r12  block+edge counter array           r15  memory-image cell base
//
// rax/rcx/rdx/rsi/rdi/r8 are scratch within a single template. A running
// activation's machine frame is, from rsp up: its NativeLink, its entry
// kind (engine or direct), the caller's r12/rbp/rbx, the return address;
// rsp is 16-byte aligned there, so helper calls need no adjustment.
//
// Two ways in. The engine entry (EntryFn) pins r13-r15 from the context and
// calls the body as an engine-kind activation. The direct entry is called
// from other compiled code with r13-r15 already pinned, rsi = the callee's
// NativeLink, edx = the argument count and the arguments staged at the
// register arena's top. It either pushes its frame there and runs the body
// as a direct-kind activation, or *declines*: returns at once with the
// carry flag set and nothing changed (every other return clears it).
//
// Fuel is prepaid per segment (block lead / post-call run) with one
// subtract; a borrow deopts at the segment's first instruction. All trap
// preconditions of an instruction run before its accounting and body, and
// jump to an out-of-line stub that refunds the part of the segment not yet
// run and deopts at that instruction: the bytecode loop then re-executes
// it from scratch, paying fuel per instruction, and produces
// byte-identical counters, fuel charge and trap message. An engine-kind
// activation deopts by returning to the engine; a direct-kind one calls
// the resume helper, which finishes it in the bytecode loop.
//
//===----------------------------------------------------------------------===//

#include "jit/NativeJIT.h"

#include "interp/Bytecode.h"
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace srp;
using namespace srp::jit;

uint64_t srp::jit::defaultJitThreshold() {
  if (const char *V = std::getenv("SRP_JIT_THRESHOLD")) {
    char *End = nullptr;
    unsigned long long N = std::strtoull(V, &End, 10);
    if (End != V && N > 0)
      return N;
  }
  return DefaultJitThreshold;
}

#if defined(__x86_64__) && (defined(__linux__) || defined(__APPLE__))

namespace {

// Register numbers (x86-64 encoding).
constexpr uint8_t RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5,
                  RSI = 6, RDI = 7, R8 = 8, R9 = 9, R12 = 12, R13 = 13,
                  R14 = 14, R15 = 15;

// Condition codes (the tttn field of jcc/setcc).
constexpr uint8_t CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5,
                  CC_A = 0x7, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF;

// Opcode extensions of the 81/83 immediate ALU group.
constexpr uint8_t ALU_ADD = 0, ALU_SUB = 5, ALU_CMP = 7;

struct Label {
  int32_t Pos = -1;
  std::vector<size_t> Fixups; ///< Positions of rel32 fields to patch.
};

/// Minimal one-pass assembler: emits into a byte vector, binds labels,
/// patches rel32 fixups at the end.
class Asm {
public:
  std::vector<uint8_t> Code;

  void byte(uint8_t B) { Code.push_back(B); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }

  void rex(bool W, uint8_t Reg, uint8_t Index, uint8_t Base) {
    uint8_t B = 0x40 | (W ? 8 : 0) | ((Reg >> 3) << 2) | ((Index >> 3) << 1) |
                (Base >> 3);
    if (B != 0x40 || W)
      byte(B);
  }
  void modrm(uint8_t Mod, uint8_t Reg, uint8_t Rm) {
    byte(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) | (Rm & 7)));
  }

  static bool isInt8(int64_t V) { return V >= -128 && V <= 127; }

  /// The displacement field: disp8 when it fits, disp32 otherwise.
  void disp(int32_t Disp) {
    if (isInt8(Disp))
      byte(static_cast<uint8_t>(Disp));
    else
      u32(static_cast<uint32_t>(Disp));
  }

  /// ModRM for [Base + disp]; emits SIB when the base register demands
  /// one (rsp/r12 encodings).
  void memDisp(uint8_t Reg, uint8_t Base, int32_t Disp) {
    const uint8_t Mod = isInt8(Disp) ? 1 : 2;
    if ((Base & 7) == RSP) {
      modrm(Mod, Reg, 4);
      byte(static_cast<uint8_t>((4 << 3) | (Base & 7))); // no index
    } else {
      modrm(Mod, Reg, Base);
    }
    disp(Disp);
  }

  /// ModRM+SIB for [Base + Index*8 + disp].
  void memIndex8(uint8_t Reg, uint8_t Base, uint8_t Index, int32_t Disp) {
    modrm(isInt8(Disp) ? 1 : 2, Reg, 4);
    byte(static_cast<uint8_t>((3 << 6) | ((Index & 7) << 3) | (Base & 7)));
    disp(Disp);
  }

  // mov reg64, [base+disp]
  void movRM(uint8_t Reg, uint8_t Base, int32_t Disp) {
    rex(true, Reg, 0, Base);
    byte(0x8B);
    memDisp(Reg, Base, Disp);
  }
  // mov [base+disp], reg64
  void movMR(uint8_t Base, int32_t Disp, uint8_t Reg) {
    rex(true, Reg, 0, Base);
    byte(0x89);
    memDisp(Reg, Base, Disp);
  }
  // mov [base+disp], reg32 (dword store)
  void movMR32(uint8_t Base, int32_t Disp, uint8_t Reg) {
    rex(false, Reg, 0, Base);
    byte(0x89);
    memDisp(Reg, Base, Disp);
  }
  // mov reg64, [base + index*8 + disp]
  void movRMIndex(uint8_t Reg, uint8_t Base, uint8_t Index, int32_t Disp) {
    rex(true, Reg, Index, Base);
    byte(0x8B);
    memIndex8(Reg, Base, Index, Disp);
  }
  // mov [base + index*8 + disp], reg64
  void movMRIndex(uint8_t Base, uint8_t Index, int32_t Disp, uint8_t Reg) {
    rex(true, Reg, Index, Base);
    byte(0x89);
    memIndex8(Reg, Base, Index, Disp);
  }
  // mov reg64, reg64
  void movRR(uint8_t Dst, uint8_t Src) {
    rex(true, Src, 0, Dst);
    byte(0x89);
    modrm(3, Src, Dst);
  }
  // mov reg32, imm32 (zero-extends)
  void movRI32(uint8_t Reg, uint32_t Imm) {
    rex(false, 0, 0, Reg);
    byte(static_cast<uint8_t>(0xB8 | (Reg & 7)));
    u32(Imm);
  }
  // mov reg64, imm64
  void movRI64(uint8_t Reg, uint64_t Imm) {
    rex(true, 0, 0, Reg);
    byte(static_cast<uint8_t>(0xB8 | (Reg & 7)));
    u64(Imm);
  }
  // lea reg64, [base+disp]
  void leaRM(uint8_t Reg, uint8_t Base, int32_t Disp) {
    rex(true, Reg, 0, Base);
    byte(0x8D);
    memDisp(Reg, Base, Disp);
  }
  // mov qword [base+disp], imm32 (sign-extended)
  void movMI(uint8_t Base, int32_t Disp, int32_t Imm) {
    rex(true, 0, 0, Base);
    byte(0xC7);
    memDisp(0, Base, Disp);
    u32(static_cast<uint32_t>(Imm));
  }
  // mov dword [base+disp], imm32
  void movMI32(uint8_t Base, int32_t Disp, int32_t Imm) {
    rex(false, 0, 0, Base);
    byte(0xC7);
    memDisp(0, Base, Disp);
    u32(static_cast<uint32_t>(Imm));
  }

  // ALU reg64, [base+disp]: opcode is the r<-rm form (03 add, 2B sub, ...)
  void aluRM(uint8_t Opc, uint8_t Reg, uint8_t Base, int32_t Disp) {
    rex(true, Reg, 0, Base);
    byte(Opc);
    memDisp(Reg, Base, Disp);
  }
  // imul reg64, [base+disp]
  void imulRM(uint8_t Reg, uint8_t Base, int32_t Disp) {
    rex(true, Reg, 0, Base);
    byte(0x0F);
    byte(0xAF);
    memDisp(Reg, Base, Disp);
  }
  // add/sub/cmp reg64, imm (sign-extended imm8 when it fits, else imm32)
  void aluRI(uint8_t Ext, uint8_t Reg, int32_t Imm) {
    rex(true, 0, 0, Reg);
    byte(isInt8(Imm) ? 0x83 : 0x81);
    modrm(3, Ext, Reg);
    if (isInt8(Imm))
      byte(static_cast<uint8_t>(Imm));
    else
      u32(static_cast<uint32_t>(Imm));
  }
  // cmp reg32, imm32
  void cmpR32I32(uint8_t Reg, uint32_t Imm) {
    rex(false, 0, 0, Reg);
    byte(0x81);
    modrm(3, 7, Reg);
    u32(Imm);
  }
  // test reg64, reg64
  void testRR(uint8_t A, uint8_t B) {
    rex(true, B, 0, A);
    byte(0x85);
    modrm(3, B, A);
  }
  // inc qword [base+disp]
  void incM(uint8_t Base, int32_t Disp) {
    rex(true, 0, 0, Base);
    byte(0xFF);
    memDisp(0, Base, Disp);
  }
  // inc / dec dword [base+disp]
  void incM32(uint8_t Base, int32_t Disp) {
    rex(false, 0, 0, Base);
    byte(0xFF);
    memDisp(0, Base, Disp);
  }
  void decM32(uint8_t Base, int32_t Disp) {
    rex(false, 0, 0, Base);
    byte(0xFF);
    memDisp(1, Base, Disp);
  }
  void cqo() {
    byte(0x48);
    byte(0x99);
  }
  // idiv reg64
  void idivR(uint8_t Reg) {
    rex(true, 0, 0, Reg);
    byte(0xF7);
    modrm(3, 7, Reg);
  }
  // shl reg64, cl / sar reg64, cl
  void shlRCl(uint8_t Reg) {
    rex(true, 0, 0, Reg);
    byte(0xD3);
    modrm(3, 4, Reg);
  }
  void sarRCl(uint8_t Reg) {
    rex(true, 0, 0, Reg);
    byte(0xD3);
    modrm(3, 7, Reg);
  }
  // setcc al; movzx eax, al
  void setccEax(uint8_t CC) {
    byte(0x0F);
    byte(static_cast<uint8_t>(0x90 | CC));
    modrm(3, 0, RAX);
    byte(0x0F);
    byte(0xB6);
    modrm(3, RAX, RAX);
  }
  void xorEaxEax() {
    byte(0x31);
    modrm(3, RAX, RAX);
  }
  // call qword [base+disp] / call reg64
  void callM(uint8_t Base, int32_t Disp) {
    rex(false, 0, 0, Base);
    byte(0xFF);
    memDisp(2, Base, Disp);
  }
  void callR(uint8_t Reg) {
    rex(false, 0, 0, Reg);
    byte(0xFF);
    modrm(3, 2, Reg);
  }
  // cmp dword [base+disp], imm (imm8 when it fits, else imm32)
  void cmpM32I(uint8_t Base, int32_t Disp, int32_t Imm) {
    rex(false, 0, 0, Base);
    byte(isInt8(Imm) ? 0x83 : 0x81);
    memDisp(7, Base, Disp);
    if (isInt8(Imm))
      byte(static_cast<uint8_t>(Imm));
    else
      u32(static_cast<uint32_t>(Imm));
  }
  // cmp qword [base+disp], imm8
  void cmpM64I8(uint8_t Base, int32_t Disp, int8_t Imm) {
    rex(true, 0, 0, Base);
    byte(0x83);
    memDisp(7, Base, Disp);
    byte(static_cast<uint8_t>(Imm));
  }
  void pushR(uint8_t Reg) {
    if (Reg >= 8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x50 | (Reg & 7)));
  }
  void popR(uint8_t Reg) {
    if (Reg >= 8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x58 | (Reg & 7)));
  }
  void pushI8(int8_t Imm) {
    byte(0x6A);
    byte(static_cast<uint8_t>(Imm));
  }
  void ret() { byte(0xC3); }
  void stc() { byte(0xF9); }
  // rep stosq: fill rcx qwords at [rdi] with rax
  void repStosq() {
    byte(0xF3);
    byte(0x48);
    byte(0xAB);
  }

  void bind(Label &L) { L.Pos = static_cast<int32_t>(Code.size()); }
  void jmp(Label &L) {
    byte(0xE9);
    L.Fixups.push_back(Code.size());
    u32(0);
  }
  void jcc(uint8_t CC, Label &L) {
    byte(0x0F);
    byte(static_cast<uint8_t>(0x80 | CC));
    L.Fixups.push_back(Code.size());
    u32(0);
  }
  void call(Label &L) {
    byte(0xE8);
    L.Fixups.push_back(Code.size());
    u32(0);
  }

  bool patch(Label &L) {
    if (L.Pos < 0)
      return L.Fixups.empty();
    for (size_t Fix : L.Fixups) {
      int64_t Rel = static_cast<int64_t>(L.Pos) -
                    (static_cast<int64_t>(Fix) + 4);
      uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
      std::memcpy(Code.data() + Fix, &V, 4);
    }
    return true;
  }
};

constexpr int32_t offFuel = offsetof(NativeCtx, FuelLeft);
constexpr int32_t offRegTop = offsetof(NativeCtx, RegTop);
constexpr int32_t offLocalTop = offsetof(NativeCtx, LocalTop);
constexpr int32_t offRegEnd = offsetof(NativeCtx, RegEnd);
constexpr int32_t offLocalEnd = offsetof(NativeCtx, LocalEnd);
constexpr int32_t offSLoads = offsetof(NativeCtx, SingletonLoads);
constexpr int32_t offSStores = offsetof(NativeCtx, SingletonStores);
constexpr int32_t offALoads = offsetof(NativeCtx, AliasedLoads);
constexpr int32_t offAStores = offsetof(NativeCtx, AliasedStores);
constexpr int32_t offCopies = offsetof(NativeCtx, Copies);
constexpr int32_t offDirectCalls = offsetof(NativeCtx, DirectCalls);
constexpr int32_t offStatus = offsetof(NativeCtx, Status);
constexpr int32_t offDeoptIdx = offsetof(NativeCtx, DeoptIndex);
constexpr int32_t offDepth = offsetof(NativeCtx, Depth);
constexpr int32_t offCallHelper = offsetof(NativeCtx, CallHelper);
constexpr int32_t offResumeHelper = offsetof(NativeCtx, ResumeHelper);
constexpr int32_t offPrintHelper = offsetof(NativeCtx, PrintHelper);
constexpr int32_t offMemCells = offsetof(NativeCtx, MemCells);
constexpr int32_t offLinkDirect = offsetof(NativeLink, Direct);
constexpr int32_t offLinkCounts = offsetof(NativeLink, Counts);
constexpr int32_t offLinkCallees = offsetof(NativeLink, Callees);

// An activation's machine frame (see the file comment): [rsp] holds its
// NativeLink, [rsp+8] how it was entered.
constexpr int32_t FrameLink = 0, FrameKind = 8;
constexpr int8_t KindEngine = 0, KindDirect = 1;

class FunctionCompiler {
  Asm A;
  const DecodedFunction &DF;
  const MemoryLayout &L;
  std::vector<Label> BlockL;
  Label Return, Tail, Deopt, TrapExit;

  /// Last instruction of the fuel segment being emitted.
  uint32_t SegLast = 0;
  /// Deopt stubs, emitted out of line after the blocks: refund the part
  /// of the segment from Idx on, then deopt at Idx.
  struct Stub {
    uint32_t Idx, Refund;
    Label L;
  };
  std::vector<Stub> Stubs;
  /// Call sites' helper paths, also out of line; they rejoin at Join.
  struct HelperCall {
    uint32_t Idx = 0;
    Label L, Join;
  };
  std::vector<HelperCall> HelperCalls;

  static int32_t slotDisp(int32_t Slot) { return Slot * 8; }

  /// The stub that deopts at \p Idx, an instruction of the current segment.
  Label &stubFor(uint32_t Idx) {
    if (Stubs.empty() || Stubs.back().Idx != Idx)
      Stubs.push_back({Idx, SegLast - Idx + 1, Label()});
    return Stubs.back().L;
  }
  /// Prepays the segment of \p Cost instructions starting at \p First. Too
  /// little fuel deopts at First with nothing paid, so the bytecode loop
  /// meters the segment per instruction and traps where the walker does.
  void charge(uint32_t First, uint32_t Cost) {
    SegLast = First + Cost - 1;
    A.aluRI(ALU_SUB, R13, static_cast<int32_t>(Cost));
    A.jcc(CC_B, stubFor(First));
  }
  /// Points rbx/rbp at the running frame, which ends at the watermarks.
  void anchorFrame() {
    A.movRM(RBX, R14, offRegTop);
    if (DF.NumSlots)
      A.aluRI(ALU_SUB, RBX, static_cast<int32_t>(DF.NumSlots * 8));
    if (DF.LocalArenaSize) {
      A.movRM(RBP, R14, offLocalTop);
      A.aluRI(ALU_SUB, RBP, static_cast<int32_t>(DF.LocalArenaSize * 8));
    }
  }
  /// Saves the caller's frame registers and lays out the activation's
  /// machine frame; rsi holds its link.
  void enterFrame(int8_t Kind) {
    A.pushR(RBX);
    A.pushR(RBP);
    A.pushR(R12);
    A.pushI8(Kind);
    A.pushR(RSI);
    A.movRM(R12, RSI, offLinkCounts);
  }

  /// Emits one edge transition: edge counter, sequentialised phi copies,
  /// jump to the target block.
  void emitEdge(int32_t EdgeIdx) {
    const BEdge &E = DF.Edges[EdgeIdx];
    const size_t NB = DF.Blocks.size();
    A.incM(R12, static_cast<int32_t>((NB + E.Id) * 8));

    // The per-edge phi copies have parallel-copy semantics; sequentialise
    // at compile time with rax as the transfer register and rcx as the
    // single cycle-breaking temp (one suffices: after a cycle is broken
    // its chain unwinds completely before the worklist can stall again).
    struct PC {
      int32_t Dst, Src;
      bool FromTemp;
    };
    std::vector<PC> P;
    for (uint32_t I = E.CopyBegin; I != E.CopyEnd; ++I) {
      const PhiCopy &C = DF.PhiCopies[I];
      if (C.Dst != C.Src)
        P.push_back({C.Dst, C.Src, false});
    }
    while (!P.empty()) {
      bool Progress = false;
      for (size_t I = 0; I != P.size(); ++I) {
        bool Blocked = false;
        for (size_t J = 0; J != P.size(); ++J)
          if (J != I && !P[J].FromTemp && P[J].Src == P[I].Dst) {
            Blocked = true;
            break;
          }
        if (Blocked)
          continue;
        if (P[I].FromTemp) {
          A.movMR(RBX, slotDisp(P[I].Dst), RCX);
        } else {
          A.movRM(RAX, RBX, slotDisp(P[I].Src));
          A.movMR(RBX, slotDisp(P[I].Dst), RAX);
        }
        P.erase(P.begin() + static_cast<long>(I));
        Progress = true;
        break;
      }
      if (!Progress) {
        // Only cycles remain: park one source in rcx and redirect.
        A.movRM(RCX, RBX, slotDisp(P[0].Src));
        P[0].FromTemp = true;
      }
    }
    A.jmp(BlockL[E.To]);
  }

  /// A call: direct when the callee's link has a direct entry that
  /// accepts, through the engine's call helper otherwise.
  void emitCall(uint32_t Idx, const BInst &X) {
    const uint32_t NA = X.ArgsEnd - X.ArgsBegin;
    const size_t H = HelperCalls.size();
    HelperCalls.emplace_back();
    HelperCalls[H].Idx = Idx;
    A.movRM(RAX, RSP, FrameLink);
    A.movRM(RAX, RAX, offLinkCallees);
    A.movRM(RSI, RAX, static_cast<int32_t>(X.T0 * 8));
    A.testRR(RSI, RSI); // not resolved yet
    A.jcc(CC_E, HelperCalls[H].L);
    A.movRM(RAX, RSI, offLinkDirect);
    A.testRR(RAX, RAX); // no code for this run
    A.jcc(CC_E, HelperCalls[H].L);
    // The arguments go to the room the frame keeps past its slots.
    if (NA)
      A.movRM(RCX, R14, offRegTop);
    for (uint32_t I = 0; I != NA; ++I) {
      A.movRM(R8, RBX, slotDisp(DF.CallArgSlots[X.ArgsBegin + I]));
      A.movMR(RCX, static_cast<int32_t>(I * 8), R8);
    }
    A.movRI32(RDX, NA);
    A.callR(RAX);
    A.jcc(CC_B, HelperCalls[H].L); // declined
    A.bind(HelperCalls[H].Join);
    A.cmpM32I(R14, offStatus, 0);
    A.jcc(CC_NE, TrapExit);
    anchorFrame();
    if (X.Dst >= 0)
      A.movMR(RBX, slotDisp(X.Dst), RAX);
    charge(Idx + 1, X.ResumeCost);
  }

  void emitInst(uint32_t Idx) {
    const BInst &X = DF.Code[Idx];
    switch (X.Op) {
    case BOp::Add:
    case BOp::Sub:
    case BOp::Mul:
    case BOp::And:
    case BOp::Or:
    case BOp::Xor: {
      A.movRM(RAX, RBX, slotDisp(X.A));
      switch (X.Op) {
      case BOp::Add:
        A.aluRM(0x03, RAX, RBX, slotDisp(X.B));
        break;
      case BOp::Sub:
        A.aluRM(0x2B, RAX, RBX, slotDisp(X.B));
        break;
      case BOp::Mul:
        A.imulRM(RAX, RBX, slotDisp(X.B));
        break;
      case BOp::And:
        A.aluRM(0x23, RAX, RBX, slotDisp(X.B));
        break;
      case BOp::Or:
        A.aluRM(0x0B, RAX, RBX, slotDisp(X.B));
        break;
      default:
        A.aluRM(0x33, RAX, RBX, slotDisp(X.B));
        break;
      }
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    }
    case BOp::Div:
    case BOp::Rem: {
      A.movRM(RCX, RBX, slotDisp(X.B));
      A.testRR(RCX, RCX);
      A.jcc(CC_E, stubFor(Idx)); // division/remainder by zero trap
      // INT64_MIN / -1 overflows idiv (#DE); the bytecode engine defines
      // x / -1 as wrapping negation, so take the slow path for any -1.
      A.aluRI(ALU_CMP, RCX, -1);
      A.jcc(CC_E, stubFor(Idx));
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cqo();
      A.idivR(RCX);
      A.movMR(RBX, slotDisp(X.Dst), X.Op == BOp::Div ? RAX : RDX);
      break;
    }
    case BOp::Shl:
    case BOp::Shr: {
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movRM(RCX, RBX, slotDisp(X.B));
      // Hardware masks the count to 6 bits, identical to the engines' &63.
      if (X.Op == BOp::Shl)
        A.shlRCl(RAX);
      else
        A.sarRCl(RAX);
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    }
    case BOp::CmpEQ:
    case BOp::CmpNE:
    case BOp::CmpLT:
    case BOp::CmpLE:
    case BOp::CmpGT:
    case BOp::CmpGE: {
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRM(0x3B, RAX, RBX, slotDisp(X.B)); // cmp
      uint8_t CC = CC_E;
      switch (X.Op) {
      case BOp::CmpEQ: CC = CC_E; break;
      case BOp::CmpNE: CC = CC_NE; break;
      case BOp::CmpLT: CC = CC_L; break;
      case BOp::CmpLE: CC = CC_LE; break;
      case BOp::CmpGT: CC = CC_G; break;
      default: CC = CC_GE; break;
      }
      A.setccEax(CC);
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    }
    case BOp::Copy:
      A.incM(R14, offCopies);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::Load:
      A.incM(R14, offSLoads);
      A.movRM(RAX, R15, static_cast<int32_t>(L.BaseById[X.Obj] * 8));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::Store:
      A.incM(R14, offSStores);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(R15, static_cast<int32_t>(L.BaseById[X.Obj] * 8), RAX);
      break;
    case BOp::LoadLocal:
      A.incM(R14, offSLoads);
      A.movRM(RAX, RBP, static_cast<int32_t>(X.Obj * 8));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::StoreLocal:
      A.incM(R14, offSStores);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(RBP, static_cast<int32_t>(X.Obj * 8), RAX);
      break;
    case BOp::AddrOf:
      A.movMI(RBX, slotDisp(X.Dst), static_cast<int32_t>(L.BaseById[X.Obj]));
      break;
    case BOp::PtrLoad:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(L.NumCells));
      A.jcc(CC_AE, stubFor(Idx)); // wild pointer read (unsigned >= size)
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, R15, RAX, 0);
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::PtrStore:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(L.NumCells));
      A.jcc(CC_AE, stubFor(Idx)); // wild pointer write
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(R15, RAX, 0, RDX);
      break;
    case BOp::ArrayLoad:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(X.Size));
      A.jcc(CC_AE, stubFor(Idx)); // out-of-bounds read
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, R15, RAX,
                   static_cast<int32_t>(L.BaseById[X.Obj] * 8));
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::ArrayStore:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(X.Size));
      A.jcc(CC_AE, stubFor(Idx)); // out-of-bounds write
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(R15, RAX, static_cast<int32_t>(L.BaseById[X.Obj] * 8),
                   RDX);
      break;
    case BOp::ArrayLoadLocal:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(X.Size));
      A.jcc(CC_AE, stubFor(Idx));
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, RBP, RAX, static_cast<int32_t>(X.Obj * 8));
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::ArrayStoreLocal:
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.aluRI(ALU_CMP, RAX, static_cast<int32_t>(X.Size));
      A.jcc(CC_AE, stubFor(Idx));
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(RBP, RAX, static_cast<int32_t>(X.Obj * 8), RDX);
      break;
    case BOp::Call:
      emitCall(Idx, X);
      break;
    case BOp::Print:
      A.movRR(RDI, R14);
      A.movRM(RSI, RBX, slotDisp(X.A));
      A.callM(R14, offPrintHelper);
      break;
    case BOp::Jmp:
      emitEdge(X.T0);
      break;
    case BOp::JmpIf: {
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.testRR(RAX, RAX);
      Label False;
      A.jcc(CC_E, False);
      emitEdge(X.T0);
      A.bind(False);
      A.patch(False);
      emitEdge(X.T1);
      break;
    }
    case BOp::Ret:
      if (X.A >= 0)
        A.movRM(RAX, RBX, slotDisp(X.A));
      else
        A.xorEaxEax();
      A.jmp(Return);
      break;
    case BOp::Trap:
      // Decode-time-known trap: always resolved by the bytecode loop so
      // the message (and the fuel-vs-trap ordering) stays exact.
      A.jmp(stubFor(Idx));
      break;
    }
  }

  /// The direct entry (calling convention in the file comment): accept
  /// checks, frame push, ledger tick, frame initialisation — what
  /// pushFrame and tierUp do for a call that arrives through the engine.
  void emitDirectEntry(uint64_t *HotCount) {
    Label Decline;
    A.cmpR32I32(RDX, DF.NumArgs);
    A.jcc(CC_NE, Decline);
    A.cmpM32I(R14, offDepth, MaxCallDepth);
    A.jcc(CC_AE, Decline);
    // The frame ends at rcx; its staging room must fit below RegEnd too.
    A.movRM(RCX, R14, offRegTop);
    A.aluRI(ALU_ADD, RCX, static_cast<int32_t>(DF.NumSlots * 8));
    A.leaRM(RAX, RCX, static_cast<int32_t>(DF.MaxCallArgs * 8));
    A.aluRM(0x3B, RAX, R14, offRegEnd); // cmp
    A.jcc(CC_A, Decline);
    if (DF.LocalArenaSize) {
      A.movRM(R8, R14, offLocalTop);
      A.aluRI(ALU_ADD, R8, static_cast<int32_t>(DF.LocalArenaSize * 8));
      A.aluRM(0x3B, R8, R14, offLocalEnd);
      A.jcc(CC_A, Decline);
    }
    enterFrame(KindDirect);
    A.movRM(RBX, R14, offRegTop);
    A.movMR(R14, offRegTop, RCX);
    if (DF.LocalArenaSize) {
      A.movRM(RBP, R14, offLocalTop);
      A.movMR(R14, offLocalTop, R8);
    }
    A.incM32(R14, offDepth);
    A.incM(R14, offDirectCalls);
    A.movRI64(RAX, reinterpret_cast<uint64_t>(HotCount));
    A.incM(RAX, 0);
    // The arguments are in slots [0, NumArgs) already; seed the constants
    // and the frame-local memory.
    auto FitsImm32 = [](int64_t V) { return V == static_cast<int32_t>(V); };
    for (const auto &CI : DF.ConstInits) {
      if (FitsImm32(CI.Val)) {
        A.movMI(RBX, slotDisp(CI.Slot), static_cast<int32_t>(CI.Val));
      } else {
        A.movRI64(RAX, static_cast<uint64_t>(CI.Val));
        A.movMR(RBX, slotDisp(CI.Slot), RAX);
      }
    }
    for (const auto &Lo : DF.Locals) {
      if (Lo.Size == 1 && FitsImm32(Lo.Init)) {
        A.movMI(RBP, static_cast<int32_t>(Lo.Off * 8),
                static_cast<int32_t>(Lo.Init));
        continue;
      }
      A.leaRM(RDI, RBP, static_cast<int32_t>(Lo.Off * 8));
      A.movRI32(RCX, Lo.Size);
      A.movRI64(RAX, static_cast<uint64_t>(Lo.Init));
      A.repStosq();
    }
    A.jmp(BlockL[0]);
    A.bind(Decline);
    A.stc();
    A.ret();
    A.patch(Decline);
  }

public:
  FunctionCompiler(const DecodedFunction &DF, const MemoryLayout &L)
      : DF(DF), L(L) {}

  bool run(NativeCode &NC) {
    const size_t NB = DF.Blocks.size();
    BlockL.resize(NB);

    // Engine entry (EntryFn): pin the run-wide registers and run the body
    // as an engine-kind activation; rsi (link) and edx (start block) pass
    // through. Entry rsp is 8 mod 16; three pushes keep the body call
    // aligned like any C call.
    Label EngineBody;
    A.pushR(R13);
    A.pushR(R14);
    A.pushR(R15);
    A.movRR(R14, RDI);
    A.movRM(R13, R14, offFuel);
    A.movRM(R15, R14, offMemCells);
    A.call(EngineBody);
    A.movMR(R14, offFuel, R13);
    A.popR(R15);
    A.popR(R14);
    A.popR(R13);
    A.ret();

    const size_t DirectOff = A.Code.size();
    emitDirectEntry(&NC.HotCount);

    // The engine-kind body prologue: the frame was pushed by the engine.
    // OSR entry: a nonzero edx names a retreating edge's target block,
    // dispatched out of line so a call pays one test. The target's label
    // counts the block and prepays its segment, so the handover is exact.
    A.bind(EngineBody);
    enterFrame(KindEngine);
    anchorFrame();
    std::vector<uint32_t> OsrTargets;
    std::vector<bool> Seen(NB, false);
    for (const BEdge &E : DF.Edges)
      if (E.Retreating && E.To != 0 && !Seen[E.To]) {
        Seen[E.To] = true;
        OsrTargets.push_back(E.To);
      }
    Label OsrDispatch;
    if (!OsrTargets.empty()) {
      A.cmpR32I32(RDX, 0);
      A.jcc(CC_NE, OsrDispatch);
    }

    for (size_t B = 0; B != NB; ++B) {
      A.bind(BlockL[B]);
      A.incM(R12, static_cast<int32_t>(B * 8));
      const uint32_t First = DF.Blocks[B].First;
      const uint32_t End = B + 1 != NB ? DF.Blocks[B + 1].First
                                       : static_cast<uint32_t>(DF.Code.size());
      charge(First, DF.Blocks[B].SegCost);
      for (uint32_t I = First; I != End; ++I)
        emitInst(I);
    }

    // Return (rax = value): pop the frame, leave the depth the caller had,
    // and restore its registers. The `add rsp` clears the carry flag, which
    // tells a direct caller the call was not declined.
    A.bind(Return);
    A.movMR(R14, offRegTop, RBX);
    if (DF.LocalArenaSize)
      A.movMR(R14, offLocalTop, RBP);
    A.bind(Tail);
    A.decM32(R14, offDepth);
    A.aluRI(ALU_ADD, RSP, 16);
    A.popR(R12);
    A.popR(RBP);
    A.popR(RBX);
    A.ret();
    // Deopt (eax = code index, the segment's unrun part refunded). An
    // engine-kind activation leaves its frame to the engine's bytecode
    // loop; a direct-kind one has the resume helper finish it there.
    Label Resume;
    A.bind(Deopt);
    A.cmpM64I8(RSP, FrameKind, KindEngine);
    A.jcc(CC_NE, Resume);
    A.movMR32(R14, offDeoptIdx, RAX);
    A.movMI32(R14, offStatus, StatusDeopt);
    A.xorEaxEax();
    A.jmp(Tail);
    A.bind(Resume);
    A.movMR(R14, offFuel, R13);
    A.movRR(RDI, R14);
    A.movRM(RSI, RSP, FrameLink);
    A.movRR(RDX, RAX);
    A.callM(R14, offResumeHelper);
    A.movRM(R13, R14, offFuel);
    A.cmpM32I(R14, offStatus, 0);
    A.jcc(CC_E, Tail);
    A.bind(TrapExit); // Status already set by a helper
    A.xorEaxEax();
    A.jmp(Tail);
    A.bind(OsrDispatch);
    for (uint32_t B : OsrTargets) {
      A.cmpR32I32(RDX, B);
      A.jcc(CC_E, BlockL[B]);
    }
    A.jmp(BlockL[0]); // not an OSR target: outside the contract
    for (Stub &S : Stubs) {
      A.bind(S.L);
      A.aluRI(ALU_ADD, R13, static_cast<int32_t>(S.Refund));
      A.movRI32(RAX, S.Idx);
      A.jmp(Deopt);
      A.patch(S.L);
    }
    for (HelperCall &H : HelperCalls) {
      A.bind(H.L);
      A.movMR(R14, offFuel, R13);
      A.movRR(RDI, R14);
      A.movRM(RSI, RSP, FrameLink);
      A.movRI32(RDX, H.Idx);
      A.callM(R14, offCallHelper);
      A.movRM(R13, R14, offFuel);
      A.jmp(H.Join);
      A.patch(H.L);
      A.patch(H.Join);
    }

    for (Label *Lb : {&EngineBody, &Return, &Tail, &Deopt, &Resume,
                      &TrapExit, &OsrDispatch})
      A.patch(*Lb);
    for (Label &Lb : BlockL)
      A.patch(Lb);

    if (!NC.Buf.allocate(A.Code.size()))
      return false;
    std::memcpy(NC.Buf.data(), A.Code.data(), A.Code.size());
    if (!NC.Buf.finalize())
      return false;
    NC.Entry = reinterpret_cast<EntryFn>(NC.Buf.data());
    NC.Direct = NC.Buf.data() + DirectOff;
    return true;
  }
};

} // namespace

bool srp::jit::compileFunction(NativeCode &NC, const DecodedFunction &DF,
                               const MemoryLayout &L) {
  NC.Entry = nullptr;
  NC.Direct = nullptr;
  NC.Buf.reset();
  if (!nativeJitSupported())
    return false;
  if (DF.Blocks.empty()) // empty or refused: calling it traps
    return false;
  // Every displacement the templates bake must fit a signed 32-bit
  // immediate with headroom. The interpreter's cell budget keeps running
  // programs' memory within the limit; slot counts are checked here.
  constexpr uint64_t Lim = CellLimit;
  if (DF.NumSlots > Lim || DF.MaxCallArgs > Lim || DF.LocalArenaSize > Lim ||
      L.NumCells > Lim || DF.Blocks.size() + DF.Edges.size() > Lim ||
      DF.Code.size() > Lim)
    return false;
  for (const BInst &X : DF.Code) {
    if (X.Size > Lim)
      return false;
    switch (X.Op) {
    case BOp::Load:
    case BOp::Store:
    case BOp::ArrayLoad:
    case BOp::ArrayStore:
    case BOp::AddrOf:
      if (X.Obj >= L.NumIds || L.BaseById[X.Obj] < 0)
        return false;
      break;
    default:
      break;
    }
  }
  return FunctionCompiler(DF, L).run(NC);
}

#else // !x86-64 hosts: the native tier degrades to bytecode.

bool srp::jit::compileFunction(NativeCode &, const DecodedFunction &,
                               const MemoryLayout &) {
  return false;
}

#endif

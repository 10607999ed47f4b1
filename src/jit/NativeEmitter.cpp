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
//   [rsp] caller FnState (for the call helper)
//
// r9 carries the entry's start block through the prologue only; rax/rcx/rdx
// are scratch within a single template. Every template is deopt-exact: the
// fuel check and all trap preconditions run *before* any accounting or
// state change for that instruction, so when the code bails out the
// bytecode loop re-executes the instruction from scratch and produces
// byte-identical counters, fuel charge and trap message.
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
                  CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF;

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

  /// ModRM for [Base + disp32]; emits SIB when the base register demands
  /// one (rsp/r12 encodings).
  void memDisp(uint8_t Reg, uint8_t Base, int32_t Disp) {
    if ((Base & 7) == RSP) {
      modrm(2, Reg, 4);
      byte(static_cast<uint8_t>((4 << 3) | (Base & 7))); // no index
    } else {
      modrm(2, Reg, Base);
    }
    u32(static_cast<uint32_t>(Disp));
  }

  /// ModRM+SIB for [Base + Index*8 + disp32].
  void memIndex8(uint8_t Reg, uint8_t Base, uint8_t Index, int32_t Disp) {
    modrm(2, Reg, 4);
    byte(static_cast<uint8_t>((3 << 6) | ((Index & 7) << 3) | (Base & 7)));
    u32(static_cast<uint32_t>(Disp));
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
  // cmp reg64, imm32 (sign-extended)
  void cmpRI32(uint8_t Reg, int32_t Imm) {
    rex(true, 0, 0, Reg);
    byte(0x81);
    modrm(3, 7, Reg);
    u32(static_cast<uint32_t>(Imm));
  }
  // cmp reg32, imm32
  void cmpR32I32(uint8_t Reg, uint32_t Imm) {
    rex(false, 0, 0, Reg);
    byte(0x81);
    modrm(3, 7, Reg);
    u32(Imm);
  }
  // cmp reg64, imm8 (sign-extended)
  void cmpRI8(uint8_t Reg, int8_t Imm) {
    rex(true, 0, 0, Reg);
    byte(0x83);
    modrm(3, 7, Reg);
    byte(static_cast<uint8_t>(Imm));
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
  // dec reg64
  void decR(uint8_t Reg) {
    rex(true, 0, 0, Reg);
    byte(0xFF);
    modrm(3, 1, Reg);
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
  // call qword [base+disp]
  void callM(uint8_t Base, int32_t Disp) {
    rex(false, 0, 0, Base);
    byte(0xFF);
    memDisp(2, Base, Disp);
  }
  // cmp dword [base+disp], imm8-as-imm32? Use 83 /7 ib on dword.
  void cmpM32I8(uint8_t Base, int32_t Disp, int8_t Imm) {
    rex(false, 0, 0, Base);
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
  void subRspI8(int8_t Imm) {
    byte(0x48);
    byte(0x83);
    modrm(3, 5, RSP);
    byte(static_cast<uint8_t>(Imm));
  }
  void addRspI8(int8_t Imm) {
    byte(0x48);
    byte(0x83);
    modrm(3, 0, RSP);
    byte(static_cast<uint8_t>(Imm));
  }
  void ret() { byte(0xC3); }

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
constexpr int32_t offInstr = offsetof(NativeCtx, Instructions);
constexpr int32_t offSLoads = offsetof(NativeCtx, SingletonLoads);
constexpr int32_t offSStores = offsetof(NativeCtx, SingletonStores);
constexpr int32_t offALoads = offsetof(NativeCtx, AliasedLoads);
constexpr int32_t offAStores = offsetof(NativeCtx, AliasedStores);
constexpr int32_t offCopies = offsetof(NativeCtx, Copies);
constexpr int32_t offCurRg = offsetof(NativeCtx, CurRg);
constexpr int32_t offCurLc = offsetof(NativeCtx, CurLc);
constexpr int32_t offStatus = offsetof(NativeCtx, Status);
constexpr int32_t offDeoptIdx = offsetof(NativeCtx, DeoptIndex);
constexpr int32_t offCallHelper = offsetof(NativeCtx, CallHelper);
constexpr int32_t offPrintHelper = offsetof(NativeCtx, PrintHelper);
constexpr int32_t offMemCells = offsetof(NativeCtx, MemCells);

class FunctionCompiler {
  Asm A;
  const DecodedFunction &DF;
  const MemoryLayout &L;
  std::vector<Label> BlockL;
  Label DeoptCommon, TrapExit, RetOk, EpilogueTail;

  static int32_t slotDisp(int32_t Slot) { return Slot * 8; }

  /// Deopt with eax = the code index the bytecode loop should resume at.
  void deoptAt(uint32_t CodeIdx) {
    A.movRI32(RAX, CodeIdx);
    A.jmp(DeoptCommon);
  }
  /// Deopt iff condition \p CC holds (on the flags just computed).
  void deoptIf(uint8_t CC, uint32_t CodeIdx) {
    Label Ok;
    A.jcc(CC ^ 1, Ok); // inverted condition skips the deopt
    deoptAt(CodeIdx);
    A.bind(Ok);
    A.patch(Ok);
  }
  /// The per-instruction fuel gate: out of fuel is a deopt (the bytecode
  /// loop then raises the exact "out of fuel" trap at this instruction).
  void fuelCheck(uint32_t CodeIdx) {
    A.testRR(R13, R13);
    deoptIf(CC_E, CodeIdx);
  }
  /// Accounting once all deopt conditions have passed: one fuel unit and
  /// one dynamic instruction, exactly like the bytecode loop header.
  void payFuel() {
    A.decR(R13);
    A.incM(R14, offInstr);
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

  void emitInst(uint32_t Idx) {
    const BInst &X = DF.Code[Idx];
    switch (X.Op) {
    case BOp::Add:
    case BOp::Sub:
    case BOp::Mul:
    case BOp::And:
    case BOp::Or:
    case BOp::Xor: {
      fuelCheck(Idx);
      payFuel();
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
      fuelCheck(Idx);
      A.movRM(RCX, RBX, slotDisp(X.B));
      A.testRR(RCX, RCX);
      deoptIf(CC_E, Idx); // division/remainder by zero trap
      // INT64_MIN / -1 overflows idiv (#DE); the bytecode engine defines
      // x / -1 as wrapping negation, so take the slow path for any -1.
      A.cmpRI8(RCX, -1);
      deoptIf(CC_E, Idx);
      payFuel();
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cqo();
      A.idivR(RCX);
      A.movMR(RBX, slotDisp(X.Dst), X.Op == BOp::Div ? RAX : RDX);
      break;
    }
    case BOp::Shl:
    case BOp::Shr: {
      fuelCheck(Idx);
      payFuel();
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
      fuelCheck(Idx);
      payFuel();
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
      fuelCheck(Idx);
      payFuel();
      A.incM(R14, offCopies);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::Load:
      fuelCheck(Idx);
      payFuel();
      A.incM(R14, offSLoads);
      A.movRM(RAX, R15, static_cast<int32_t>(L.BaseById[X.Obj] * 8));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::Store:
      fuelCheck(Idx);
      payFuel();
      A.incM(R14, offSStores);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(R15, static_cast<int32_t>(L.BaseById[X.Obj] * 8), RAX);
      break;
    case BOp::LoadLocal:
      fuelCheck(Idx);
      payFuel();
      A.incM(R14, offSLoads);
      A.movRM(RAX, RBP, static_cast<int32_t>(X.Obj * 8));
      A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    case BOp::StoreLocal:
      fuelCheck(Idx);
      payFuel();
      A.incM(R14, offSStores);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.movMR(RBP, static_cast<int32_t>(X.Obj * 8), RAX);
      break;
    case BOp::AddrOf:
      fuelCheck(Idx);
      payFuel();
      A.movMI(RBX, slotDisp(X.Dst), static_cast<int32_t>(L.BaseById[X.Obj]));
      break;
    case BOp::PtrLoad:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(L.NumCells));
      deoptIf(CC_AE, Idx); // wild pointer read (unsigned >= image size)
      payFuel();
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, R15, RAX, 0);
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::PtrStore:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(L.NumCells));
      deoptIf(CC_AE, Idx); // wild pointer write
      payFuel();
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(R15, RAX, 0, RDX);
      break;
    case BOp::ArrayLoad:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(X.Size));
      deoptIf(CC_AE, Idx); // out-of-bounds read
      payFuel();
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, R15, RAX,
                   static_cast<int32_t>(L.BaseById[X.Obj] * 8));
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::ArrayStore:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(X.Size));
      deoptIf(CC_AE, Idx); // out-of-bounds write
      payFuel();
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(R15, RAX, static_cast<int32_t>(L.BaseById[X.Obj] * 8),
                   RDX);
      break;
    case BOp::ArrayLoadLocal:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(X.Size));
      deoptIf(CC_AE, Idx);
      payFuel();
      A.incM(R14, offALoads);
      A.movRMIndex(RDX, RBP, RAX, static_cast<int32_t>(X.Obj * 8));
      A.movMR(RBX, slotDisp(X.Dst), RDX);
      break;
    case BOp::ArrayStoreLocal:
      fuelCheck(Idx);
      A.movRM(RAX, RBX, slotDisp(X.A));
      A.cmpRI32(RAX, static_cast<int32_t>(X.Size));
      deoptIf(CC_AE, Idx);
      payFuel();
      A.incM(R14, offAStores);
      A.movRM(RDX, RBX, slotDisp(X.B));
      A.movMRIndex(RBP, RAX, static_cast<int32_t>(X.Obj * 8), RDX);
      break;
    case BOp::Call: {
      fuelCheck(Idx);
      payFuel();
      // Hand the call to the engine helper: it stages arguments from this
      // frame, dispatches the callee (native / bytecode / walker), and
      // re-anchors the frame pointers. Depth/arity/empty-callee traps are
      // raised inside and surface as Status != Ok.
      A.movMR(R14, offFuel, R13);
      A.movRR(RDI, R14);
      A.movRM(RSI, RSP, 0); // caller FnState, spilled in the prologue
      A.movRI32(RDX, Idx);
      A.movRR(RCX, RBX);
      A.movRR(R8, RBP);
      A.callM(R14, offCallHelper);
      A.movRM(R13, R14, offFuel);
      A.cmpM32I8(R14, offStatus, 0);
      A.jcc(CC_NE, TrapExit);
      A.movRM(RBX, R14, offCurRg);
      A.movRM(RBP, R14, offCurLc);
      if (X.Dst >= 0)
        A.movMR(RBX, slotDisp(X.Dst), RAX);
      break;
    }
    case BOp::Print:
      fuelCheck(Idx);
      payFuel();
      A.movRR(RDI, R14);
      A.movRM(RSI, RBX, slotDisp(X.A));
      A.callM(R14, offPrintHelper);
      break;
    case BOp::Jmp:
      fuelCheck(Idx);
      payFuel();
      emitEdge(X.T0);
      break;
    case BOp::JmpIf: {
      fuelCheck(Idx);
      payFuel();
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
      fuelCheck(Idx);
      payFuel();
      if (X.A >= 0)
        A.movRM(RAX, RBX, slotDisp(X.A));
      else
        A.xorEaxEax();
      A.jmp(RetOk);
      break;
    case BOp::Trap:
      // Decode-time-known trap: always resolved by the bytecode loop so
      // the message (and the fuel-vs-trap ordering) stays exact.
      deoptAt(Idx);
      break;
    }
  }

public:
  FunctionCompiler(const DecodedFunction &DF, const MemoryLayout &L)
      : DF(DF), L(L) {}

  bool run(NativeCode &NC) {
    const size_t NB = DF.Blocks.size();
    BlockL.resize(NB);

    // Prologue: save callee-saved registers, spill the FnState argument,
    // load the pinned state. Entry rsp is 8 mod 16; six pushes keep it
    // there and the 8-byte spill slot realigns every helper call site.
    A.pushR(RBP);
    A.pushR(RBX);
    A.pushR(R12);
    A.pushR(R13);
    A.pushR(R14);
    A.pushR(R15);
    A.subRspI8(8);
    A.movMR(RSP, 0, R8); // FnState
    A.movRR(R14, RDI);
    A.movRR(RBX, RSI);
    A.movRR(RBP, RDX);
    A.movRR(R12, RCX);
    A.movRM(R13, R14, offFuel);
    A.movRM(R15, R14, offMemCells);
    // OSR entry: a nonzero r9d names a retreating edge's target block,
    // dispatched out of line so a call pays one compare. The target's
    // label counts the block and pays fuel per instruction, so the
    // handover is exact.
    std::vector<uint32_t> OsrTargets;
    std::vector<bool> Seen(NB, false);
    for (const BEdge &E : DF.Edges)
      if (E.Retreating && E.To != 0 && !Seen[E.To]) {
        Seen[E.To] = true;
        OsrTargets.push_back(E.To);
      }
    Label OsrDispatch;
    if (!OsrTargets.empty()) {
      A.cmpR32I32(R9, 0);
      A.jcc(CC_NE, OsrDispatch);
    }

    for (size_t B = 0; B != NB; ++B) {
      A.bind(BlockL[B]);
      A.incM(R12, static_cast<int32_t>(B * 8));
      const uint32_t First = DF.Blocks[B].First;
      const uint32_t End = B + 1 != NB ? DF.Blocks[B + 1].First
                                       : static_cast<uint32_t>(DF.Code.size());
      for (uint32_t I = First; I != End; ++I)
        emitInst(I);
    }

    // Shared exit paths.
    A.bind(RetOk);
    A.movMI32(R14, offStatus, StatusOk);
    A.bind(EpilogueTail);
    A.movMR(R14, offFuel, R13);
    A.addRspI8(8);
    A.popR(R15);
    A.popR(R14);
    A.popR(R13);
    A.popR(R12);
    A.popR(RBX);
    A.popR(RBP);
    A.ret();
    A.bind(DeoptCommon);
    A.movMR32(R14, offDeoptIdx, RAX);
    A.movMI32(R14, offStatus, StatusDeopt);
    A.xorEaxEax();
    A.jmp(EpilogueTail);
    A.bind(TrapExit); // Status already set by the helper
    A.xorEaxEax();
    A.jmp(EpilogueTail);
    A.bind(OsrDispatch);
    for (uint32_t B : OsrTargets) {
      A.cmpR32I32(R9, B);
      A.jcc(CC_E, BlockL[B]);
    }
    A.jmp(BlockL[0]); // not an OSR target: outside the contract

    for (Label *Lb : {&DeoptCommon, &TrapExit, &RetOk, &EpilogueTail,
                      &OsrDispatch})
      A.patch(*Lb);
    for (Label &Lb : BlockL)
      A.patch(Lb);

    if (!NC.Buf.allocate(A.Code.size()))
      return false;
    std::memcpy(NC.Buf.data(), A.Code.data(), A.Code.size());
    if (!NC.Buf.finalize())
      return false;
    NC.Entry = reinterpret_cast<EntryFn>(NC.Buf.data());
    return true;
  }
};

} // namespace

bool srp::jit::compileFunction(NativeCode &NC, const DecodedFunction &DF,
                               const MemoryLayout &L) {
  NC.Entry = nullptr;
  NC.Buf.reset();
  if (!nativeJitSupported())
    return false;
  if (DF.NeedsWalk || DF.Empty || DF.Blocks.empty())
    return false;
  // Every displacement the templates bake must fit a signed 32-bit
  // immediate with headroom. The interpreter's cell budget keeps running
  // programs' memory within the limit; slot counts are checked here.
  constexpr uint64_t Lim = CellLimit;
  if (DF.NumSlots > Lim || DF.LocalArenaSize > Lim || L.NumCells > Lim ||
      DF.Blocks.size() + DF.Edges.size() > Lim)
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

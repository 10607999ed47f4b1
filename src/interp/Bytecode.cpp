//===- interp/Bytecode.cpp - One-shot interpreter decoder ------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"
#include "analysis/Dominators.h"
#include "ir/Module.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include <unordered_map>

using namespace srp;

namespace {
SRP_STATISTIC(NumFunctionsDecoded, "interp", "decodes",
              "Functions decoded to bytecode");
SRP_STATISTIC(NumInstsDecoded, "interp", "decoded-insts",
              "Instructions decoded to bytecode across all decodes");
SRP_STATISTIC(NumRefusedDecodes, "interp", "decode-refusals",
              "Decodes refused for a broken well-formedness rule (calling "
              "the function traps)");
SRP_STATISTIC(DecodeMicros, "interp", "decode-micros",
              "Wall time spent decoding functions, in microseconds");
} // namespace

namespace {

/// Decode state for one function; collapses into the DecodedFunction on
/// success or stops at the first broken rule, recorded as its Refusal.
class Decoder {
  Function &F;
  const DominatorTree &DT;
  DecodedFunction &DF;

  std::unordered_map<const Value *, int32_t> SlotMap;
  std::vector<std::pair<int32_t, int64_t>> ConstInits;
  std::unordered_map<const BasicBlock *, uint32_t> BlockIndex;
  std::unordered_map<const MemoryObject *, uint32_t> LocalOffset;
  int32_t NextSlot = 0;

  int32_t slotOf(const Value *V) {
    auto [It, Inserted] = SlotMap.try_emplace(V, NextSlot);
    if (Inserted) {
      ++NextSlot;
      // Frames are not zeroed (every plain slot is provably written
      // before read), so both constants and the deterministic-zero undef
      // need an explicit initialiser.
      if (auto *C = dyn_cast<ConstantInt>(V))
        ConstInits.emplace_back(It->second, C->value());
      else if (isa<UndefValue>(V))
        ConstInits.emplace_back(It->second, 0);
    }
    return It->second;
  }

  /// Records why the function cannot run; returns false.
  bool refuse(std::string Why) {
    DF.Refusal = std::move(Why);
    return false;
  }

  /// True if \p V is available just before \p U, or at the end of block
  /// \p BB when \p U is null (where a phi reads its incoming value on the
  /// edge from \p BB): a constant, undef, an argument of this function, or
  /// an instruction whose definition dominates that point. Anything else
  /// refuses the function.
  bool validUse(const Value *V, const Instruction *U,
                const BasicBlock *BB = nullptr) {
    if (U)
      BB = U->parent();
    bool Ok = false;
    switch (V->kind()) {
    case Value::Kind::ConstantInt:
    case Value::Kind::Undef:
      return true;
    case Value::Kind::Argument:
      Ok = cast<Argument>(V)->parent() == &F;
      break;
    case Value::Kind::MemoryName:
      break;
    default: {
      auto *D = cast<Instruction>(V);
      BasicBlock *DB = D->parent();
      if (DB && DT.contains(DB))
        Ok = DB == BB ? (!U || DB->comesBefore(D, U)) : DT.dominates(DB, BB);
    }
    }
    return Ok || refuse("use of " + V->referenceString() + " in block '" +
                        BB->name() + "' is not dominated by its definition");
  }

  /// Static storage = globals and address-taken locals (mirrors the
  /// MemoryImage the engine builds); this function's other locals live in
  /// the frame arena. Another function's local refuses the function.
  bool classifyObject(const MemoryObject *Obj, bool &IsStatic,
                      uint32_t &ObjField) {
    if (!Obj->owner() || Obj->isAddressTaken()) {
      IsStatic = true;
      ObjField = Obj->id();
      return true;
    }
    if (Obj->owner() != &F)
      return refuse("access to local '" + Obj->name() + "' of function '" +
                    Obj->owner()->name() + "'");
    IsStatic = false;
    ObjField = LocalOffset.at(Obj);
    return true;
  }

  /// Builds the edge (and its parallel-copy list) for the transition
  /// \p From -> \p To and sets \p Out to its index.
  bool makeEdge(uint32_t FromIdx, BasicBlock *From, BasicBlock *To,
                int32_t &Out) {
    auto It = BlockIndex.find(To);
    if (It == BlockIndex.end())
      return refuse("branch to block '" + To->name() +
                    "' outside the function");
    BEdge E;
    E.To = It->second;
    E.Id = static_cast<uint32_t>(DF.EdgeFrom.size());
    E.Retreating = E.To <= FromIdx;
    DF.EdgeFrom.push_back(FromIdx);
    DF.EdgeTo.push_back(E.To);
    E.CopyBegin = static_cast<uint32_t>(DF.PhiCopies.size());
    for (const auto &IP : *To) {
      Instruction *I = IP.get();
      if (auto *P = dyn_cast<PhiInst>(I)) {
        int Idx = P->indexOfBlock(From);
        if (Idx < 0)
          return refuse("phi " + P->referenceString() + " in block '" +
                        To->name() + "' has no incoming value for block '" +
                        From->name() + "'");
        Value *V = P->incomingValue(static_cast<unsigned>(Idx));
        if (!validUse(V, nullptr, From))
          return false;
        DF.PhiCopies.push_back({slotOf(P), slotOf(V)});
      } else if (!isa<MemPhiInst>(I)) {
        break;
      }
    }
    E.CopyEnd = static_cast<uint32_t>(DF.PhiCopies.size());
    DF.MaxPhiCopies = std::max(DF.MaxPhiCopies, E.CopyEnd - E.CopyBegin);
    Out = static_cast<int32_t>(DF.Edges.size());
    DF.Edges.push_back(E);
    return true;
  }

  bool decodeInst(Instruction *I, uint32_t BlockIdx, BasicBlock *BB) {
    BInst X;
    switch (I->kind()) {
    case Value::Kind::BinOp: {
      auto *Bo = cast<BinOpInst>(I);
      if (!validUse(Bo->lhs(), I) || !validUse(Bo->rhs(), I))
        return false;
      X.Op = static_cast<BOp>(static_cast<uint8_t>(Bo->op()));
      X.A = slotOf(Bo->lhs());
      X.B = slotOf(Bo->rhs());
      X.Dst = slotOf(Bo);
      break;
    }
    case Value::Kind::Copy: {
      auto *C = cast<CopyInst>(I);
      if (!validUse(C->source(), I))
        return false;
      X.Op = BOp::Copy;
      X.A = slotOf(C->source());
      X.Dst = slotOf(C);
      break;
    }
    case Value::Kind::Load: {
      auto *L = cast<LoadInst>(I);
      bool IsStatic;
      if (!classifyObject(L->object(), IsStatic, X.Obj))
        return false;
      X.Op = IsStatic ? BOp::Load : BOp::LoadLocal;
      X.Size = L->object()->size();
      X.Dst = slotOf(L);
      break;
    }
    case Value::Kind::Store: {
      auto *S = cast<StoreInst>(I);
      if (!validUse(S->storedValue(), I))
        return false;
      bool IsStatic;
      if (!classifyObject(S->object(), IsStatic, X.Obj))
        return false;
      X.Op = IsStatic ? BOp::Store : BOp::StoreLocal;
      X.Size = S->object()->size();
      X.A = slotOf(S->storedValue());
      break;
    }
    case Value::Kind::AddrOf: {
      auto *A = cast<AddrOfInst>(I);
      const MemoryObject *Obj = A->object();
      if (Obj->owner() && !Obj->isAddressTaken()) {
        // The walker traps when it reaches this; preserve the behaviour
        // (and the message) without penalising the whole function.
        X.Op = BOp::Trap;
        X.T0 = static_cast<int32_t>(DF.TrapMsgs.size());
        DF.TrapMsgs.push_back("address of object without static storage: " +
                              Obj->name());
        X.Dst = slotOf(A);
        break;
      }
      X.Op = BOp::AddrOf;
      X.Obj = Obj->id();
      X.Dst = slotOf(A);
      break;
    }
    case Value::Kind::PtrLoad: {
      auto *P = cast<PtrLoadInst>(I);
      if (!validUse(P->address(), I))
        return false;
      X.Op = BOp::PtrLoad;
      X.A = slotOf(P->address());
      X.Dst = slotOf(P);
      break;
    }
    case Value::Kind::PtrStore: {
      auto *P = cast<PtrStoreInst>(I);
      if (!validUse(P->address(), I) || !validUse(P->storedValue(), I))
        return false;
      X.Op = BOp::PtrStore;
      X.A = slotOf(P->address());
      X.B = slotOf(P->storedValue());
      break;
    }
    case Value::Kind::ArrayLoad: {
      auto *A = cast<ArrayLoadInst>(I);
      if (!validUse(A->index(), I))
        return false;
      bool IsStatic;
      if (!classifyObject(A->object(), IsStatic, X.Obj))
        return false;
      X.Op = IsStatic ? BOp::ArrayLoad : BOp::ArrayLoadLocal;
      X.Size = A->object()->size();
      X.MObj = A->object();
      X.A = slotOf(A->index());
      X.Dst = slotOf(A);
      break;
    }
    case Value::Kind::ArrayStore: {
      auto *A = cast<ArrayStoreInst>(I);
      if (!validUse(A->index(), I) || !validUse(A->storedValue(), I))
        return false;
      bool IsStatic;
      if (!classifyObject(A->object(), IsStatic, X.Obj))
        return false;
      X.Op = IsStatic ? BOp::ArrayStore : BOp::ArrayStoreLocal;
      X.Size = A->object()->size();
      X.MObj = A->object();
      X.A = slotOf(A->index());
      X.B = slotOf(A->storedValue());
      break;
    }
    case Value::Kind::Call: {
      auto *C = cast<CallInst>(I);
      if (!C->callee())
        return refuse("call without a callee in block '" + BB->name() + "'");
      X.Op = BOp::Call;
      X.ArgsBegin = static_cast<uint32_t>(DF.CallArgSlots.size());
      for (Value *A : C->operands()) {
        if (!validUse(A, I))
          return false;
        DF.CallArgSlots.push_back(slotOf(A));
      }
      X.ArgsEnd = static_cast<uint32_t>(DF.CallArgSlots.size());
      DF.MaxCallArgs = std::max(DF.MaxCallArgs, X.ArgsEnd - X.ArgsBegin);
      X.T0 = static_cast<int32_t>(DF.Callees.size());
      DF.Callees.push_back(C->callee());
      if (C->type() != Type::Void)
        X.Dst = slotOf(C);
      break;
    }
    case Value::Kind::Print: {
      auto *P = cast<PrintInst>(I);
      if (!validUse(P->value(), I))
        return false;
      X.Op = BOp::Print;
      X.A = slotOf(P->value());
      break;
    }
    case Value::Kind::Br: {
      X.Op = BOp::Jmp;
      if (!makeEdge(BlockIdx, BB, cast<BrInst>(I)->target(), X.T0))
        return false;
      break;
    }
    case Value::Kind::CondBr: {
      auto *C = cast<CondBrInst>(I);
      if (!validUse(C->condition(), I))
        return false;
      X.Op = BOp::JmpIf;
      X.A = slotOf(C->condition());
      if (!makeEdge(BlockIdx, BB, C->trueTarget(), X.T0) ||
          !makeEdge(BlockIdx, BB, C->falseTarget(), X.T1))
        return false;
      break;
    }
    case Value::Kind::Ret: {
      auto *Rt = cast<RetInst>(I);
      X.Op = BOp::Ret;
      if (Value *V = Rt->returnValue()) {
        if (!validUse(V, I))
          return false;
        X.A = slotOf(V);
      }
      break;
    }
    default: // Phi/MemPhi/DummyLoad are filtered by the caller.
      return refuse("cannot decode " + I->referenceString() + " in block '" +
                    BB->name() + "'");
    }
    DF.Code.push_back(X);
    return true;
  }

  /// Splits the instruction run [\p First, Code.end()) into fuel segments
  /// at call boundaries: the leading cost lands on the block, each call
  /// carries the cost of the run that resumes after it.
  void assignSegmentCosts(BBlock &Blk) {
    uint32_t Acc = 0;
    BInst *LastCall = nullptr;
    for (uint32_t J = Blk.First; J != DF.Code.size(); ++J) {
      ++Acc;
      if (DF.Code[J].Op == BOp::Call) {
        if (LastCall)
          LastCall->ResumeCost = Acc;
        else
          Blk.SegCost = Acc;
        LastCall = &DF.Code[J];
        Acc = 0;
      }
    }
    if (LastCall)
      LastCall->ResumeCost = Acc;
    else
      Blk.SegCost = Acc;
  }

public:
  Decoder(Function &F, const DominatorTree &DT, DecodedFunction &DF)
      : F(F), DT(DT), DF(DF) {}

  bool run() {
    DF.NumArgs = F.numArgs();
    for (unsigned I = 0; I != F.numArgs(); ++I)
      slotOf(F.arg(I)); // args occupy slots [0, NumArgs)

    for (const auto &L : F.locals())
      if (!L->isAddressTaken()) {
        // Offsets wrap only in arenas over the cell budget, which never run.
        const auto Off = static_cast<uint32_t>(DF.LocalArenaSize);
        LocalOffset[L.get()] = Off;
        DF.Locals.push_back({Off, L->size(), L->initialValue()});
        DF.LocalArenaSize += L->size();
      }

    // Dense block numbering over the reachable set, entry first (the
    // entry is the first block in layout order and always reachable).
    for (BasicBlock *BB : F.blocks()) {
      if (!DT.contains(BB))
        continue;
      if (!BB->terminator())
        return refuse("block '" + BB->name() + "' has no terminator");
      BlockIndex[BB] = static_cast<uint32_t>(DF.BlockPtrs.size());
      DF.BlockPtrs.push_back(BB);
    }
    DF.Blocks.resize(DF.BlockPtrs.size());

    for (uint32_t BI = 0; BI != DF.BlockPtrs.size(); ++BI) {
      BasicBlock *BB = DF.BlockPtrs[BI];
      BBlock &Blk = DF.Blocks[BI];
      Blk.First = static_cast<uint32_t>(DF.Code.size());
      bool Leading = true; // still among the block's leading (mem)phis
      for (const auto &IP : *BB) {
        Instruction *I = IP.get();
        if (isa<PhiInst>(I)) {
          // Edges copy only the leading phis; a later one is never set.
          if (!Leading)
            return refuse("phi " + I->referenceString() + " in block '" +
                          BB->name() + "' follows a non-phi instruction");
          slotOf(I); // materialised by the per-edge copy lists
          continue;
        }
        Leading = Leading && isa<MemPhiInst>(I);
        if (isa<MemPhiInst>(I) || isa<DummyLoadInst>(I))
          continue; // free in the walker too
        if (!decodeInst(I, BI, BB))
          return false;
        if (I->isTerminator())
          break;
      }
      assignSegmentCosts(Blk);
    }

    DF.NumSlots = static_cast<uint32_t>(NextSlot);
    DF.ConstInits.reserve(ConstInits.size());
    for (auto &[Slot, V] : ConstInits)
      DF.ConstInits.push_back({Slot, V});
    return true;
  }
};

} // namespace

std::unique_ptr<DecodedFunction>
AnalysisTraits<DecodedFunction>::build(Function &F, AnalysisManager &AM) {
  auto DF = std::make_unique<DecodedFunction>();
  DF->F = &F;
  ++NumFunctionsDecoded;
  if (F.empty()) {
    DF->Empty = true;
    return DF;
  }
  const DominatorTree &DT = AM.get<DominatorTree>(F);
  double T0 = monotonicSeconds();
  if (!Decoder(F, DT, *DF).run()) {
    // Keep only the verdict: nothing of a refused function ever runs.
    std::string Why = std::move(DF->Refusal);
    *DF = DecodedFunction();
    DF->F = &F;
    DF->Refusal = std::move(Why);
    ++NumRefusedDecodes;
  }
  NumInstsDecoded += DF->Code.size();
  DecodeMicros += static_cast<uint64_t>((monotonicSeconds() - T0) * 1e6);
  return DF;
}

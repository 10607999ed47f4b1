//===- ir/Printer.cpp - Textual IR dump -----------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
//
// Every entry point appends into one std::string: no stream, and no
// temporary string per operand (value references go through
// Value::appendReference).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "ir/Module.h"

using namespace srp;

namespace {

/// A value reference, spelled by Value::appendReference.
struct Ref {
  const Value *V;
};

void put(std::string &Out, const char *S) { Out += S; }
void put(std::string &Out, const std::string &S) { Out += S; }
void put(std::string &Out, char C) { Out += C; }
void put(std::string &Out, Ref R) { R.V->appendReference(Out); }

/// Appends each piece in turn.
template <class... Pieces> void emit(std::string &Out, const Pieces &...P) {
  (put(Out, P), ...);
}

void emitMuChi(std::string &Out, const Instruction &I) {
  if (I.numMemOperands()) {
    Out += " mu(";
    for (unsigned Idx = 0, E = I.numMemOperands(); Idx != E; ++Idx)
      emit(Out, Idx ? ", " : "", I.memOperand(Idx)->name());
    Out += ')';
  }
  if (I.numMemDefs()) {
    Out += " chi(";
    for (unsigned Idx = 0, E = I.numMemDefs(); Idx != E; ++Idx)
      emit(Out, Idx ? ", " : "", I.memDef(Idx)->name());
    Out += ')';
  }
}

void emitInstruction(std::string &Out, const Instruction &I) {
  if (I.type() != Type::Void)
    emit(Out, Ref{&I}, " = ");
  switch (I.kind()) {
  case Value::Kind::BinOp: {
    const auto &B = static_cast<const BinOpInst &>(I);
    emit(Out, binOpName(B.op()), ' ', Ref{B.lhs()}, ", ", Ref{B.rhs()});
    break;
  }
  case Value::Kind::Copy:
    emit(Out, Ref{static_cast<const CopyInst &>(I).source()});
    break;
  case Value::Kind::Phi: {
    const auto &P = static_cast<const PhiInst &>(I);
    Out += "phi(";
    for (unsigned Idx = 0, E = P.numIncoming(); Idx != E; ++Idx)
      emit(Out, Idx ? ", " : "", Ref{P.incomingValue(Idx)}, ':',
           P.incomingBlock(Idx)->name());
    Out += ')';
    break;
  }
  case Value::Kind::Load: {
    const auto &L = static_cast<const LoadInst &>(I);
    emit(Out, "ld [", L.object()->name(), ']');
    if (L.memUse())
      emit(Out, " mu(", L.memUse()->name(), ')');
    break;
  }
  case Value::Kind::Store: {
    const auto &S = static_cast<const StoreInst &>(I);
    if (S.memDefName())
      emit(Out, S.memDefName()->name(), " = ");
    emit(Out, "st [", S.object()->name(), "], ", Ref{S.storedValue()});
    break;
  }
  case Value::Kind::AddrOf:
    emit(Out, '&', static_cast<const AddrOfInst &>(I).object()->name());
    break;
  case Value::Kind::PtrLoad:
    emit(Out, "ptrload ", Ref{static_cast<const PtrLoadInst &>(I).address()});
    emitMuChi(Out, I);
    break;
  case Value::Kind::PtrStore: {
    const auto &S = static_cast<const PtrStoreInst &>(I);
    emit(Out, "ptrstore ", Ref{S.address()}, ", ", Ref{S.storedValue()});
    emitMuChi(Out, I);
    break;
  }
  case Value::Kind::ArrayLoad: {
    const auto &L = static_cast<const ArrayLoadInst &>(I);
    emit(Out, L.object()->name(), '[', Ref{L.index()}, ']');
    emitMuChi(Out, I);
    break;
  }
  case Value::Kind::ArrayStore: {
    const auto &S = static_cast<const ArrayStoreInst &>(I);
    emit(Out, S.object()->name(), '[', Ref{S.index()}, "] = ",
         Ref{S.storedValue()});
    emitMuChi(Out, I);
    break;
  }
  case Value::Kind::Call: {
    const auto &C = static_cast<const CallInst &>(I);
    emit(Out, "call ", C.callee()->name(), '(');
    for (unsigned Idx = 0, E = C.numOperands(); Idx != E; ++Idx)
      emit(Out, Idx ? ", " : "", Ref{C.operand(Idx)});
    Out += ')';
    emitMuChi(Out, I);
    break;
  }
  case Value::Kind::Print:
    emit(Out, "print ", Ref{static_cast<const PrintInst &>(I).value()});
    break;
  case Value::Kind::Br:
    emit(Out, "br ", static_cast<const BrInst &>(I).target()->name());
    break;
  case Value::Kind::CondBr: {
    const auto &B = static_cast<const CondBrInst &>(I);
    emit(Out, "condbr ", Ref{B.condition()}, ", ", B.trueTarget()->name(),
         ", ", B.falseTarget()->name());
    break;
  }
  case Value::Kind::Ret: {
    const auto &R = static_cast<const RetInst &>(I);
    Out += "ret";
    if (R.returnValue())
      emit(Out, ' ', Ref{R.returnValue()});
    emitMuChi(Out, I);
    break;
  }
  case Value::Kind::MemPhi: {
    const auto &P = static_cast<const MemPhiInst &>(I);
    emit(Out, P.target() ? P.target()->name().c_str() : "<none>",
         " = memphi(");
    for (unsigned Idx = 0, E = P.numIncoming(); Idx != E; ++Idx)
      emit(Out, Idx ? ", " : "", P.incomingName(Idx)->name(), ':',
           P.incomingBlock(Idx)->name());
    Out += ')';
    break;
  }
  case Value::Kind::DummyLoad: {
    const auto &D = static_cast<const DummyLoadInst &>(I);
    emit(Out, "dummyload [", D.object()->name(), ']');
    emitMuChi(Out, I);
    break;
  }
  default:
    Out += "<unknown>";
    break;
  }
}

void emitBlock(std::string &Out, const BasicBlock &BB) {
  emit(Out, BB.name(), ':');
  if (!BB.preds().empty()) {
    Out += "  ; preds:";
    for (BasicBlock *P : BB.preds())
      emit(Out, ' ', P->name());
  }
  Out += '\n';
  for (const auto &I : BB) {
    Out += "  ";
    emitInstruction(Out, *I);
    Out += '\n';
  }
}

void emitFunction(std::string &Out, const Function &F) {
  emit(Out, "func ", typeName(F.returnType()), " @", F.name(), '(');
  for (unsigned I = 0, E = F.numArgs(); I != E; ++I)
    emit(Out, I ? ", " : "", Ref{F.arg(I)});
  Out += ") {\n";
  for (const auto &BB : F)
    emitBlock(Out, *BB);
  Out += "}\n";
}

} // namespace

std::string srp::toString(const Instruction &I) {
  std::string Out;
  emitInstruction(Out, I);
  return Out;
}

std::string srp::toString(const BasicBlock &BB) {
  std::string Out;
  emitBlock(Out, BB);
  return Out;
}

std::string srp::toString(const Function &F) {
  std::string Out;
  emitFunction(Out, F);
  return Out;
}

std::string srp::toString(const Module &M) {
  std::string Out;
  emit(Out, "; module ", M.name(), '\n');
  for (const auto &G : M.globals()) {
    emit(Out, "global ", G->name());
    if (G->kind() == MemoryObject::Kind::Array)
      emit(Out, '[', std::to_string(G->size()), ']');
    else
      emit(Out, " = ", std::to_string(G->initialValue()));
    Out += '\n';
  }
  for (const auto &F : M.functions()) {
    Out += '\n';
    emitFunction(Out, *F);
  }
  return Out;
}

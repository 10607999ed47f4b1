//===- ir/Instruction.cpp - Instruction implementation -------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include <algorithm>

using namespace srp;

const char *srp::binOpName(BinOpKind K) {
  switch (K) {
  case BinOpKind::Add:
    return "add";
  case BinOpKind::Sub:
    return "sub";
  case BinOpKind::Mul:
    return "mul";
  case BinOpKind::Div:
    return "div";
  case BinOpKind::Rem:
    return "rem";
  case BinOpKind::And:
    return "and";
  case BinOpKind::Or:
    return "or";
  case BinOpKind::Xor:
    return "xor";
  case BinOpKind::Shl:
    return "shl";
  case BinOpKind::Shr:
    return "shr";
  case BinOpKind::CmpEQ:
    return "cmpeq";
  case BinOpKind::CmpNE:
    return "cmpne";
  case BinOpKind::CmpLT:
    return "cmplt";
  case BinOpKind::CmpLE:
    return "cmple";
  case BinOpKind::CmpGT:
    return "cmpgt";
  case BinOpKind::CmpGE:
    return "cmpge";
  }
  return "?";
}

Instruction::~Instruction() {
  // Drop our uses of operands. MemDefs are owned by the Function; the
  // defining-instruction back pointer is cleared so the verifier does not
  // see dangling defs.
  for (unsigned I = 0, E = numOperands(); I != E; ++I)
    if (Ops[I])
      Ops[I]->removeUse(Use{this, I, /*IsMem=*/false});
  for (unsigned I = 0, E = numMemOperands(); I != E; ++I)
    if (MemOps[I])
      MemOps[I]->removeUse(Use{this, I, /*IsMem=*/true});
  for (MemoryName *D : MemDefs)
    if (D && D->def() == this)
      D->setDef(nullptr);
}

Function *Instruction::function() const {
  return Parent ? Parent->parent() : nullptr;
}

void Instruction::noteBodyEdit() {
  if (Function *F = function())
    ++F->BodyEpoch;
}

void Instruction::noteCFGEdit() {
  if (Function *F = function())
    ++F->CFGEpoch;
}

void Instruction::addOperand(Value *V) {
  assert(V && "null operand");
  Ops.push_back(V);
  V->addUse(Use{this, static_cast<unsigned>(Ops.size() - 1), false});
  noteBodyEdit();
}

void Instruction::setOperand(unsigned I, Value *V) {
  assert(I < Ops.size() && "operand index out of range");
  assert(V && "null operand");
  if (Ops[I] == V)
    return;
  Ops[I]->removeUse(Use{this, I, false});
  Ops[I] = V;
  V->addUse(Use{this, I, false});
  noteBodyEdit();
}

void Instruction::removeOperand(unsigned I) {
  assert(I < Ops.size() && "operand index out of range");
  Ops[I]->removeUse(Use{this, I, false});
  for (unsigned J = I + 1, E = static_cast<unsigned>(Ops.size()); J != E;
       ++J) {
    Ops[J]->removeUse(Use{this, J, false});
    Ops[J - 1] = Ops[J];
    Ops[J - 1]->addUse(Use{this, J - 1, false});
  }
  Ops.pop_back();
  noteBodyEdit();
}

void Instruction::setMemOperand(unsigned I, MemoryName *N) {
  assert(I < MemOps.size() && "memory operand index out of range");
  assert(N && "null memory operand");
  if (MemOps[I] == N)
    return;
  MemOps[I]->removeUse(Use{this, I, true});
  MemOps[I] = N;
  N->addUse(Use{this, I, true});
}

void Instruction::addMemOperand(MemoryName *N) {
  assert(N && "null memory operand");
  MemOps.push_back(N);
  N->addUse(Use{this, static_cast<unsigned>(MemOps.size() - 1), true});
}

void Instruction::removeMemOperand(unsigned I) {
  assert(I < MemOps.size() && "memory operand index out of range");
  MemOps[I]->removeUse(Use{this, I, true});
  // Shift the tail down, updating recorded use indices.
  for (unsigned J = I + 1, E = static_cast<unsigned>(MemOps.size()); J != E;
       ++J) {
    MemOps[J]->removeUse(Use{this, J, true});
    MemOps[J - 1] = MemOps[J];
    MemOps[J - 1]->addUse(Use{this, J - 1, true});
  }
  MemOps.pop_back();
}

void Instruction::clearMemOperands() {
  for (unsigned I = 0, E = numMemOperands(); I != E; ++I)
    MemOps[I]->removeUse(Use{this, I, true});
  MemOps.clear();
}

MemoryName *Instruction::memOperandFor(const MemoryObject *Obj) const {
  for (MemoryName *N : MemOps)
    if (N->object() == Obj)
      return N;
  return nullptr;
}

void Instruction::addMemDef(MemoryName *N) {
  assert(N && "null memory def");
  assert(!N->def() && "memory name already has a definition");
  MemDefs.push_back(N);
  N->setDef(this);
}

void Instruction::removeMemDef(unsigned I) {
  assert(I < MemDefs.size() && "memory def index out of range");
  if (MemDefs[I]->def() == this)
    MemDefs[I]->setDef(nullptr);
  MemDefs.erase(MemDefs.begin() + I);
}

void Instruction::clearMemDefs() {
  for (MemoryName *D : MemDefs)
    if (D->def() == this)
      D->setDef(nullptr);
  MemDefs.clear();
}

MemoryName *Instruction::memDefFor(const MemoryObject *Obj) const {
  for (MemoryName *N : MemDefs)
    if (N->object() == Obj)
      return N;
  return nullptr;
}

bool Instruction::isRemovableIfUnused() const {
  switch (kind()) {
  case Kind::BinOp:
  case Kind::Copy:
  case Kind::Phi:
  case Kind::Load:
  case Kind::AddrOf:
  case Kind::PtrLoad:
  case Kind::ArrayLoad:
  case Kind::MemPhi:
  case Kind::DummyLoad:
    return true;
  default:
    return false;
  }
}

void Instruction::eraseFromParent() {
  assert(Parent && "instruction has no parent");
  Parent->erase(this);
}

std::unique_ptr<Instruction> Instruction::removeFromParent() {
  assert(Parent && "instruction has no parent");
  return Parent->remove(this);
}

void Instruction::replaceSuccessor(BasicBlock *, BasicBlock *) {
  assert(false && "instruction has no successors");
}

std::vector<BasicBlock *> Instruction::successors() const {
  std::vector<BasicBlock *> Succs(numSuccessors());
  for (unsigned I = 0; I != Succs.size(); ++I)
    Succs[I] = successor(I);
  return Succs;
}

unsigned Instruction::numSuccessors() const {
  switch (kind()) {
  case Kind::Br:
    return 1;
  case Kind::CondBr:
    return 2;
  default:
    return 0;
  }
}

BasicBlock *Instruction::successor(unsigned I) const {
  assert(I < numSuccessors() && "successor index out of range");
  if (auto *B = dyn_cast<BrInst>(this))
    return B->target();
  auto *CB = cast<CondBrInst>(this);
  return I == 0 ? CB->trueTarget() : CB->falseTarget();
}

void PhiInst::removeIncoming(unsigned I) {
  assert(I < Blocks.size() && "incoming index out of range");
  removeOperand(I);
  Blocks.erase(Blocks.begin() + I);
}

Value *PhiInst::incomingValueFor(const BasicBlock *BB) const {
  int I = indexOfBlock(BB);
  assert(I >= 0 && "no incoming value for block");
  return incomingValue(static_cast<unsigned>(I));
}

int PhiInst::indexOfBlock(const BasicBlock *BB) const {
  for (unsigned I = 0, E = static_cast<unsigned>(Blocks.size()); I != E; ++I)
    if (Blocks[I] == BB)
      return static_cast<int>(I);
  return -1;
}

void BrInst::replaceSuccessor([[maybe_unused]] BasicBlock *Old,
                              BasicBlock *New) {
  assert(Target == Old && "successor not found");
  if (Target == New)
    return;
  Target = New;
  noteCFGEdit();
}

void CondBrInst::replaceSuccessor(BasicBlock *Old, BasicBlock *New) {
  assert((TrueBB == Old || FalseBB == Old) && "successor not found");
  if (Old == New)
    return;
  if (TrueBB == Old)
    TrueBB = New;
  if (FalseBB == Old)
    FalseBB = New;
  noteCFGEdit();
}

void MemPhiInst::removeIncoming(unsigned I) {
  removeMemOperand(I);
  Blocks.erase(Blocks.begin() + I);
}

int MemPhiInst::indexOfBlock(const BasicBlock *BB) const {
  for (unsigned I = 0, E = static_cast<unsigned>(Blocks.size()); I != E; ++I)
    if (Blocks[I] == BB)
      return static_cast<int>(I);
  return -1;
}

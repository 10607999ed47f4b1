//===- ir/BasicBlock.cpp - Basic block implementation --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include <algorithm>

using namespace srp;

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  assert(I && "null instruction");
  Instruction *Raw = I.get();
  Insts.push_back(std::move(I));
  Raw->Parent = this;
  Raw->SelfIt = std::prev(Insts.end());
  Raw->OrderIndex = size() - 1; // keeps a valid order valid
  noteInsertOrRemove(Raw);
  return Raw;
}

Instruction *BasicBlock::insertBefore(Instruction *Pos,
                                      std::unique_ptr<Instruction> I) {
  assert(Pos && Pos->Parent == this && "position not in this block");
  Instruction *Raw = I.get();
  auto It = Insts.insert(Pos->SelfIt, std::move(I));
  Raw->Parent = this;
  Raw->SelfIt = It;
  OrderValid = false;
  noteInsertOrRemove(Raw);
  return Raw;
}

Instruction *BasicBlock::insertAfter(Instruction *Pos,
                                     std::unique_ptr<Instruction> I) {
  assert(Pos && Pos->Parent == this && "position not in this block");
  Instruction *Raw = I.get();
  auto It = Insts.insert(std::next(Pos->SelfIt), std::move(I));
  Raw->Parent = this;
  Raw->SelfIt = It;
  OrderValid = false;
  noteInsertOrRemove(Raw);
  return Raw;
}

Instruction *BasicBlock::prepend(std::unique_ptr<Instruction> I) {
  Instruction *Raw = I.get();
  Insts.push_front(std::move(I));
  Raw->Parent = this;
  Raw->SelfIt = Insts.begin();
  OrderValid = false;
  noteInsertOrRemove(Raw);
  return Raw;
}

Instruction *BasicBlock::insertBeforeTerminator(std::unique_ptr<Instruction> I) {
  Instruction *T = terminator();
  assert(T && "block has no terminator");
  return insertBefore(T, std::move(I));
}

Instruction *BasicBlock::insertAfterPhis(std::unique_ptr<Instruction> I) {
  for (auto &Inst : Insts) {
    if (Inst->kind() != Value::Kind::Phi &&
        Inst->kind() != Value::Kind::MemPhi)
      return insertBefore(Inst.get(), std::move(I));
  }
  return append(std::move(I));
}

std::unique_ptr<Instruction> BasicBlock::remove(Instruction *I) {
  assert(I && I->Parent == this && "instruction not in this block");
  std::unique_ptr<Instruction> Owned = std::move(*I->SelfIt);
  if (std::next(I->SelfIt) != Insts.end())
    OrderValid = false; // dropping the last instruction moves no index
  Insts.erase(I->SelfIt);
  I->Parent = nullptr;
  noteInsertOrRemove(I);
  return Owned;
}

void BasicBlock::erase(Instruction *I) {
  assert(!I->hasUses() && "erasing an instruction that still has uses");
  remove(I); // unique_ptr destroys it
}

void BasicBlock::renumber() const {
  unsigned N = 0;
  for (const auto &Inst : Insts)
    Inst->OrderIndex = N++;
  OrderValid = true;
}

void BasicBlock::noteInsertOrRemove(const Instruction *I) {
  if (!Parent || isa<MemPhiInst>(I))
    return;
  ++Parent->BodyEpoch;
  if (I->isTerminator())
    ++Parent->CFGEpoch;
}

void BasicBlock::noteCFGEdit() {
  if (Parent)
    ++Parent->CFGEpoch;
}

void BasicBlock::addPred(BasicBlock *BB) {
  Preds.push_back(BB);
  noteCFGEdit();
}

void BasicBlock::removePred(BasicBlock *BB) {
  auto It = std::find(Preds.begin(), Preds.end(), BB);
  assert(It != Preds.end() && "predecessor not found");
  Preds.erase(It);
  noteCFGEdit();
}

void BasicBlock::replacePred(BasicBlock *Old, BasicBlock *New) {
  auto It = std::find(Preds.begin(), Preds.end(), Old);
  assert(It != Preds.end() && "predecessor not found");
  if (Old == New)
    return;
  *It = New;
  noteCFGEdit();
}

//===- ir/Function.cpp - Function implementation -------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Module.h"
#include <algorithm>

using namespace srp;

Function::~Function() {
  for (auto &BB : Blocks)
    for (auto &I : *BB)
      I->dropAllReferences();
}

BasicBlock *Function::createBlock(std::string BBName) {
  if (BBName.empty())
    BBName = "bb" + std::to_string(NextBlockName++);
  Blocks.push_back(std::make_unique<BasicBlock>(std::move(BBName)));
  Blocks.back()->Parent = this;
  Blocks.back()->Number = BlockNumberBound++;
  ++CFGEpoch;
  return Blocks.back().get();
}

BasicBlock *Function::createBlockAfter(BasicBlock *After, std::string BBName) {
  if (BBName.empty())
    BBName = "bb" + std::to_string(NextBlockName++);
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == After; });
  assert(It != Blocks.end() && "block not in this function");
  auto New = std::make_unique<BasicBlock>(std::move(BBName));
  New->Parent = this;
  New->Number = BlockNumberBound++;
  BasicBlock *Raw = New.get();
  Blocks.insert(std::next(It), std::move(New));
  ++CFGEpoch;
  return Raw;
}

void Function::eraseBlock(BasicBlock *BB) {
  assert(BB->preds().empty() && "erasing a block that still has predecessors");
  // Destroy instructions back-to-front so operand uses unwind cleanly.
  while (!BB->empty()) {
    Instruction *I = BB->back();
    assert(!I->hasUses() && "erased block instruction still has uses");
    BB->erase(I);
  }
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block not in this function");
  Blocks.erase(It);
  ++CFGEpoch;
}

void Function::makeEntry(BasicBlock *BB) {
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block not in this function");
  if (It == Blocks.begin())
    return;
  Blocks.splice(Blocks.begin(), Blocks, It);
  ++CFGEpoch;
}

std::vector<BasicBlock *> Function::blocks() const {
  std::vector<BasicBlock *> Result;
  Result.reserve(Blocks.size());
  for (const auto &B : Blocks)
    Result.push_back(B.get());
  return Result;
}

MemoryObject *Function::createLocal(std::string LocalName,
                                    MemoryObject::Kind K, unsigned Size,
                                    int64_t Init) {
  Locals.push_back(std::make_unique<MemoryObject>(
      Parent->takeObjectId(), std::move(LocalName), K, this, Size, Init));
  return Locals.back().get();
}

MemoryName *Function::createMemoryName(MemoryObject *Obj) {
  MemNames.push_back(std::make_unique<MemoryName>(
      Obj, Obj->takeVersionNumber(), MemoryNameBound++));
  return MemNames.back().get();
}

void Function::purgeDeadMemoryNames() {
  auto IsDead = [&](const std::unique_ptr<MemoryName> &N) {
    return !N->hasUses() && N->def() == nullptr &&
           entryMemoryName(N->object()) != N.get();
  };
  MemNames.erase(std::remove_if(MemNames.begin(), MemNames.end(), IsDead),
                 MemNames.end());
}

void Function::clearMemorySSA() {
  // Detach all memory operands/defs first so use lists unwind.
  for (auto &BB : Blocks) {
    std::vector<Instruction *> MemPhis;
    for (auto &I : *BB) {
      I->clearMemOperands();
      I->clearMemDefs();
      if (isa<MemPhiInst>(I.get()))
        MemPhis.push_back(I.get());
    }
    for (Instruction *P : MemPhis)
      BB->erase(P);
  }
  for ([[maybe_unused]] auto &N : MemNames)
    assert(!N->hasUses() && "memory name still used");
  MemNames.clear();
  EntryNames.clear();
  for (auto &L : Locals)
    L->resetVersions();
}

std::string Function::uniqueValueName(const char *Prefix) {
  return std::string(Prefix) + std::to_string(NextValueNumber++);
}

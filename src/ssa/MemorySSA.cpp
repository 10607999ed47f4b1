//===- ssa/MemorySSA.cpp - Memory SSA construction ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ssa/MemorySSA.h"
#include "analysis/Dominators.h"
#include "ir/Module.h"
#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace srp;

AliasInfo AliasInfo::compute(Function &F) {
  AliasInfo AI;
  Module *M = F.parent();

  for (const auto &G : M->globals()) {
    AI.CallModRef.push_back(G.get());
    AI.EscapingAtReturn.push_back(G.get());
    AI.AllObjects.push_back(G.get());
    if (G->isAddressTaken())
      AI.PointerAliases.push_back(G.get());
  }
  for (const auto &L : F.locals()) {
    AI.AllObjects.push_back(L.get());
    if (L->isAddressTaken()) {
      AI.CallModRef.push_back(L.get());
      AI.PointerAliases.push_back(L.get());
    }
  }

  auto ById = [](const MemoryObject *A, const MemoryObject *B) {
    return A->id() < B->id();
  };
  std::sort(AI.CallModRef.begin(), AI.CallModRef.end(), ById);
  std::sort(AI.PointerAliases.begin(), AI.PointerAliases.end(), ById);
  std::sort(AI.EscapingAtReturn.begin(), AI.EscapingAtReturn.end(), ById);
  std::sort(AI.AllObjects.begin(), AI.AllObjects.end(), ById);
  return AI;
}

ObjectRefs AliasInfo::useObjects(const Instruction &I) const {
  switch (I.kind()) {
  case Value::Kind::Load:
    return ObjectRefs(static_cast<const LoadInst &>(I).object());
  case Value::Kind::DummyLoad:
    return ObjectRefs(static_cast<const DummyLoadInst &>(I).object());
  case Value::Kind::ArrayLoad:
    return ObjectRefs(static_cast<const ArrayLoadInst &>(I).object());
  case Value::Kind::ArrayStore:
    // Partial update of the aggregate: reads the rest of the array.
    return ObjectRefs(static_cast<const ArrayStoreInst &>(I).object());
  case Value::Kind::PtrLoad:
  case Value::Kind::PtrStore:
    return ObjectRefs(PointerAliases);
  case Value::Kind::Call:
    return ObjectRefs(CallModRef);
  case Value::Kind::Ret:
    return ObjectRefs(EscapingAtReturn);
  default:
    return {};
  }
}

ObjectRefs AliasInfo::defObjects(const Instruction &I) const {
  switch (I.kind()) {
  case Value::Kind::Store:
    return ObjectRefs(static_cast<const StoreInst &>(I).object());
  case Value::Kind::ArrayStore:
    return ObjectRefs(static_cast<const ArrayStoreInst &>(I).object());
  case Value::Kind::PtrStore:
    return ObjectRefs(PointerAliases);
  case Value::Kind::Call:
    return ObjectRefs(CallModRef);
  default:
    return {};
  }
}

void srp::buildMemorySSA(Function &F, const DominatorTree &DT) {
  buildMemorySSA(F, DT, AliasInfo::compute(F));
}

void srp::buildMemorySSA(Function &F, const DominatorTree &DT,
                         const AliasInfo &AI) {
  F.clearMemorySSA();
  const unsigned NumIds = F.parent()->numObjectIds();

  // One RPO pass: which objects the function touches at all (avoids
  // versioning the whole module for every function), and each object's
  // definition blocks in RPO, indexed by object id.
  std::vector<uint8_t> Touched(NumIds, 0);
  std::vector<std::vector<BasicBlock *>> DefBlocks(NumIds);
  for (BasicBlock *BB : DT.rpo())
    for (auto &I : *BB) {
      for (MemoryObject *O : AI.useObjects(*I))
        Touched[O->id()] = 1;
      for (MemoryObject *O : AI.defObjects(*I)) {
        Touched[O->id()] = 1;
        std::vector<BasicBlock *> &Blocks = DefBlocks[O->id()];
        if (Blocks.empty() || Blocks.back() != BB)
          Blocks.push_back(BB);
      }
    }

  std::vector<MemoryObject *> Objects;
  for (MemoryObject *O : AI.AllObjects)
    if (Touched[O->id()])
      Objects.push_back(O);

  // Memory phis at the IDF of each object's definition blocks; the phis of
  // each block, indexed by block number, in object order.
  std::vector<std::vector<MemPhiInst *>> BlockPhis(F.blockNumberBound());
  for (MemoryObject *Obj : Objects) {
    const std::vector<BasicBlock *> &Defs = DefBlocks[Obj->id()];
    if (Defs.empty())
      continue; // read-only object: only the entry version exists
    for (BasicBlock *BB : DT.iteratedFrontier(Defs)) {
      auto Phi = std::make_unique<MemPhiInst>(Obj);
      MemPhiInst *Raw = Phi.get();
      BB->prepend(std::move(Phi));
      BlockPhis[BB->number()].push_back(Raw);
    }
  }

  // Renaming: dominator-tree walk. The reaching version of each object,
  // indexed by object id, and an undo log of the versions the walk
  // shadowed; a frame restores the log down to its entry size when the
  // walk leaves its block.
  std::vector<MemoryName *> Live(NumIds, nullptr);
  std::vector<std::pair<unsigned, MemoryName *>> Shadowed;
  auto Push = [&](const MemoryObject *O, MemoryName *N) {
    Shadowed.emplace_back(O->id(), Live[O->id()]);
    Live[O->id()] = N;
  };
  for (MemoryObject *Obj : Objects) {
    MemoryName *Entry = F.createMemoryName(Obj);
    F.setEntryMemoryName(Obj, Entry);
    Live[Obj->id()] = Entry;
  }

  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
    size_t LogSize = 0;
  };

  // Process a block's instructions on first visit.
  auto Enter = [&](Frame &Fr) {
    BasicBlock *BB = Fr.BB;
    Fr.LogSize = Shadowed.size();
    for (auto &I : *BB) {
      if (auto *MP = dyn_cast<MemPhiInst>(I.get())) {
        MemoryName *New = F.createMemoryName(MP->object());
        MP->addMemDef(New);
        Push(MP->object(), New);
        continue;
      }
      for (MemoryObject *O : AI.useObjects(*I)) {
        assert(Live[O->id()] && "object with no reaching version");
        I->addMemOperand(Live[O->id()]);
      }
      for (MemoryObject *O : AI.defObjects(*I)) {
        MemoryName *New = F.createMemoryName(O);
        I->addMemDef(New);
        Push(O, New);
      }
    }
    // Fill successor memory phis.
    for (unsigned K = 0, E = BB->numSuccs(); K != E; ++K)
      for (MemPhiInst *MP : BlockPhis[BB->succ(K)->number()])
        MP->addIncoming(Live[MP->object()->id()], BB);
  };

  std::vector<Frame> Walk;
  Walk.push_back({F.entry()});
  Enter(Walk.back());
  while (!Walk.empty()) {
    Frame &Top = Walk.back();
    const auto Kids = DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      Walk.push_back({Kids[Top.NextChild++]});
      Enter(Walk.back());
      continue;
    }
    for (size_t K = Shadowed.size(); K != Top.LogSize; --K)
      Live[Shadowed[K - 1].first] = Shadowed[K - 1].second;
    Shadowed.resize(Top.LogSize);
    Walk.pop_back();
  }
}

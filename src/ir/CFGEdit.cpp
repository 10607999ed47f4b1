//===- ir/CFGEdit.cpp - CFG editing utilities -----------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/CFGEdit.h"
#include "ir/Function.h"
#include <algorithm>

using namespace srp;

bool srp::isCriticalEdge(const BasicBlock *From, const BasicBlock *To) {
  const Instruction *T = From->terminator();
  assert(T && "source block not terminated");
  return T->successors().size() > 1 && To->numPreds() > 1;
}

BasicBlock *srp::splitEdge(BasicBlock *From, BasicBlock *To) {
  Function *F = From->parent();
  BasicBlock *Mid = F->createBlockAfter(From, From->name() + "." + To->name());

  // From now branches to Mid...
  From->terminator()->replaceSuccessor(To, Mid);
  // ...which falls through to To.
  Mid->append(std::make_unique<BrInst>(To));

  To->replacePred(From, Mid);
  Mid->addPred(From);

  // Phis and memory phis in To see the edge arriving from Mid now.
  for (auto &I : *To) {
    if (auto *P = dyn_cast<PhiInst>(I.get())) {
      int Idx = P->indexOfBlock(From);
      if (Idx >= 0)
        P->setIncomingBlock(static_cast<unsigned>(Idx), Mid);
    } else if (auto *MP = dyn_cast<MemPhiInst>(I.get())) {
      int Idx = MP->indexOfBlock(From);
      if (Idx >= 0)
        MP->setIncomingBlock(static_cast<unsigned>(Idx), Mid);
    }
  }
  return Mid;
}

unsigned srp::splitAllCriticalEdges(Function &F) {
  unsigned NumSplit = 0;
  for (BasicBlock *BB : F.blocks()) { // snapshot: we add blocks while iterating
    Instruction *T = BB->terminator();
    if (!T)
      continue;
    std::vector<BasicBlock *> Succs = T->successors();
    if (Succs.size() < 2)
      continue;
    for (BasicBlock *S : Succs) {
      if (isCriticalEdge(BB, S)) {
        splitEdge(BB, S);
        ++NumSplit;
      }
    }
  }
  return NumSplit;
}

BasicBlock *
srp::redirectPredsToNewBlock(BasicBlock *To,
                             const std::vector<BasicBlock *> &Preds,
                             const char *NameHint) {
  assert(!Preds.empty() && "nothing to redirect");
  Function *F = To->parent();
  BasicBlock *New = F->createBlock(To->name() + "." + NameHint);

  for (BasicBlock *P : Preds) {
    P->terminator()->replaceSuccessor(To, New);
    To->removePred(P);
    New->addPred(P);
  }
  New->append(std::make_unique<BrInst>(To));
  To->addPred(New);

  // Fold the redirected incoming phi entries into one entry from New.
  for (auto &I : *To) {
    if (auto *P = dyn_cast<PhiInst>(I.get())) {
      // Collect the values arriving over redirected edges, then rebuild.
      std::vector<Value *> Vals;
      for (BasicBlock *Pred : Preds) {
        int Idx = P->indexOfBlock(Pred);
        assert(Idx >= 0 && "phi missing incoming entry");
        Vals.push_back(P->incomingValue(static_cast<unsigned>(Idx)));
        P->removeIncoming(static_cast<unsigned>(Idx));
      }
      bool AllSame = std::all_of(Vals.begin(), Vals.end(),
                                 [&](Value *V) { return V == Vals[0]; });
      if (AllSame) {
        P->addIncoming(Vals[0], New);
      } else {
        auto Merge = std::make_unique<PhiInst>(
            P->type(), F->uniqueValueName("merge"));
        PhiInst *MergeRaw = Merge.get();
        for (unsigned Idx = 0; Idx != Vals.size(); ++Idx)
          MergeRaw->addIncoming(Vals[Idx], Preds[Idx]);
        New->prepend(std::move(Merge));
        P->addIncoming(MergeRaw, New);
      }
    } else if (auto *MP = dyn_cast<MemPhiInst>(I.get())) {
      std::vector<MemoryName *> Names;
      for (BasicBlock *Pred : Preds) {
        int Idx = MP->indexOfBlock(Pred);
        assert(Idx >= 0 && "memphi missing incoming entry");
        Names.push_back(MP->incomingName(static_cast<unsigned>(Idx)));
        MP->removeIncoming(static_cast<unsigned>(Idx));
      }
      bool AllSame =
          std::all_of(Names.begin(), Names.end(),
                      [&](MemoryName *N) { return N == Names[0]; });
      if (AllSame) {
        MP->addIncoming(Names[0], New);
      } else {
        auto Merge = std::make_unique<MemPhiInst>(MP->object());
        MemPhiInst *MergeRaw = Merge.get();
        MergeRaw->addMemDef(F->createMemoryName(MP->object()));
        for (unsigned Idx = 0; Idx != Names.size(); ++Idx)
          MergeRaw->addIncoming(Names[Idx], Preds[Idx]);
        New->prepend(std::move(Merge));
        MP->addIncoming(MergeRaw->target(), New);
      }
    }
  }
  return New;
}

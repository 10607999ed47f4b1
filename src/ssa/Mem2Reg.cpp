//===- ssa/Mem2Reg.cpp - Promote non-aliased locals to SSA ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ssa/Mem2Reg.h"
#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/TransValidate.h"
#include "ir/Module.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include <unordered_map>

using namespace srp;

namespace {

SRP_STATISTIC(NumPromoted, "mem2reg", "promoted",
              "Local scalars promoted out of memory");
SRP_STATISTIC(NumSkipped, "mem2reg", "candidates-rejected",
              "Locals kept in memory (address-taken or aggregate)");

bool isCandidate(const MemoryObject &Obj) {
  return Obj.kind() == MemoryObject::Kind::Local && !Obj.isAddressTaken() &&
         Obj.size() == 1;
}

/// Promotes one object. Standard Cytron construction: phis at the iterated
/// dominance frontier of the store blocks, then a renaming walk over the
/// dominator tree with a current-value stack.
void promoteObject(Function &F, const DominatorTree &DT, MemoryObject *Obj) {
  // Collect definition blocks.
  std::vector<BasicBlock *> DefBlocks;
  for (BasicBlock *BB : DT.rpo()) {
    for (auto &I : *BB) {
      if (auto *St = dyn_cast<StoreInst>(I.get()); St && St->object() == Obj) {
        DefBlocks.push_back(BB);
        break;
      }
    }
  }

  // Phi placement.
  std::unordered_map<const BasicBlock *, PhiInst *> BlockPhi;
  for (BasicBlock *BB : DT.iteratedFrontier(DefBlocks)) {
    auto Phi = std::make_unique<PhiInst>(Type::Int,
                                         F.uniqueValueName(Obj->name().c_str()));
    BlockPhi[BB] = Phi.get();
    BB->prepend(std::move(Phi));
  }

  // Renaming walk.
  UndefValue *Undef = F.parent()->undef();
  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
    unsigned Pushed = 0;
  };
  std::vector<Value *> Stack{Undef};
  std::vector<Frame> Frames;
  std::vector<Instruction *> ToErase;

  auto processBlock = [&](Frame &Fr) {
    BasicBlock *BB = Fr.BB;
    if (auto It = BlockPhi.find(BB); It != BlockPhi.end()) {
      Stack.push_back(It->second);
      ++Fr.Pushed;
    }
    for (auto &I : *BB) {
      if (auto *Ld = dyn_cast<LoadInst>(I.get());
          Ld && Ld->object() == Obj) {
        Ld->replaceAllUsesWith(Stack.back());
        ToErase.push_back(Ld);
      } else if (auto *St = dyn_cast<StoreInst>(I.get());
                 St && St->object() == Obj) {
        Stack.push_back(St->storedValue());
        ++Fr.Pushed;
        ToErase.push_back(St);
      }
    }
    for (BasicBlock *S : BB->succs())
      if (auto It = BlockPhi.find(S); It != BlockPhi.end())
        It->second->addIncoming(Stack.back(), BB);
  };

  Frames.push_back({F.entry()});
  processBlock(Frames.back());
  while (!Frames.empty()) {
    Frame &Top = Frames.back();
    const auto &Kids = DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      Frames.push_back({Kids[Top.NextChild++]});
      processBlock(Frames.back());
      continue;
    }
    for (unsigned K = 0; K != Top.Pushed; ++K)
      Stack.pop_back();
    Frames.pop_back();
  }

  for (Instruction *I : ToErase)
    I->eraseFromParent();
}

} // namespace

unsigned srp::promoteLocalsToSSA(Function &F, const DominatorTree &DT) {
  unsigned Count = 0;
  for (const auto &L : F.locals()) {
    if (!isCandidate(*L)) {
      ++NumSkipped;
      if (RemarkEngine *RE = remarks::sink())
        RE->record(Remark(RemarkKind::Missed, "mem2reg", "NotPromotable")
                       .inFunction(F.name())
                       .onWeb(L->name())
                       .arg("address-taken", L->isAddressTaken())
                       .arg("size", L->size()));
      continue;
    }
    promoteObject(F, DT, L.get());
    ++Count;
    validation::recordPromotedWeb(F.name(), L->name(), L->name(), "mem2reg");
    if (RemarkEngine *RE = remarks::sink())
      RE->record(Remark(RemarkKind::Passed, "mem2reg", "PromotedLocal")
                     .inFunction(F.name())
                     .onWeb(L->name())
                     .arg("size", L->size()));
  }
  NumPromoted += Count;
  return Count;
}

unsigned srp::promoteLocalsToSSA(Function &F, AnalysisManager &AM) {
  return promoteLocalsToSSA(F, AM.get<DominatorTree>(F));
}

//===- promotion/Cleanup.cpp - Post-promotion cleanup --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/Cleanup.h"
#include "ir/Function.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include <cstdint>

using namespace srp;

namespace {
SRP_STATISTIC(NumDummyLoads, "cleanup", "dummy-loads-removed",
              "Dummy aliased loads swept after promotion");
SRP_STATISTIC(NumCopies, "cleanup", "copies-propagated",
              "Copies forwarded into their users");
SRP_STATISTIC(NumDeadInsts, "cleanup", "dead-instructions-removed",
              "Dead side-effect-free instructions deleted");
SRP_STATISTIC(NumDeadMemPhis, "cleanup", "dead-mem-phis-removed",
              "Memory phis without observers deleted");
} // namespace

unsigned srp::removeDummyLoads(Function &F) {
  unsigned N = 0;
  for (BasicBlock *BB : F.blocks()) {
    std::vector<Instruction *> Dummies;
    for (auto &I : *BB)
      if (isa<DummyLoadInst>(I.get()))
        Dummies.push_back(I.get());
    for (Instruction *D : Dummies) {
      D->eraseFromParent();
      ++N;
    }
  }
  return N;
}

unsigned srp::propagateCopies(Function &F) {
  unsigned N = 0;
  // Resolve copy chains value-by-value; iterate until stable (chains may
  // point forward in program order).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : F.blocks()) {
      std::vector<Instruction *> Copies;
      for (auto &I : *BB)
        if (isa<CopyInst>(I.get()))
          Copies.push_back(I.get());
      for (Instruction *C : Copies) {
        Value *Src = cast<CopyInst>(C)->source();
        if (Src == C)
          continue; // degenerate self-copy; left to DCE
        C->replaceAllUsesWith(Src);
        C->eraseFromParent();
        ++N;
        Changed = true;
      }
    }
  }
  return N;
}

unsigned srp::removeDeadInstructions(Function &F) {
  unsigned N = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : F.blocks()) {
      std::vector<Instruction *> Dead;
      for (auto &I : *BB) {
        if (!I->isRemovableIfUnused() || I->hasUses())
          continue;
        if (isa<MemPhiInst>(I.get()))
          continue; // handled by removeDeadMemPhis (def-side liveness)
        bool DefsLive = false;
        for (MemoryName *D : I->memDefs())
          if (D->hasUses())
            DefsLive = true;
        if (DefsLive)
          continue;
        Dead.push_back(I.get());
      }
      for (Instruction *I : Dead) {
        I->eraseFromParent();
        ++N;
        Changed = true;
      }
    }
  }
  return N;
}

unsigned srp::removeDeadMemPhis(Function &F) {
  // Cycle-aware deadness: a memory phi is live iff its target is used by a
  // non-phi instruction or by another live phi. Plain "no uses" would keep
  // loop phis alive through their own back-edge operands forever.
  std::vector<MemPhiInst *> Phis;
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB)
      if (auto *MP = dyn_cast<MemPhiInst>(I.get()))
        Phis.push_back(MP);

  // Liveness by MemoryName::number().
  std::vector<uint8_t> Live(F.memoryNameBound(), 0);
  std::vector<const MemoryName *> Work;
  auto markLive = [&](const MemoryName *V) {
    if (!Live[V->number()]) {
      Live[V->number()] = 1;
      Work.push_back(V);
    }
  };
  for (MemPhiInst *MP : Phis) {
    if (!MP->target())
      continue;
    for (const Use &U : MP->target()->uses())
      if (!isa<MemPhiInst>(U.User))
        markLive(MP->target());
  }
  while (!Work.empty()) {
    const MemoryName *V = Work.back();
    Work.pop_back();
    if (V->def())
      if (auto *MP = dyn_cast<MemPhiInst>(V->def()))
        for (MemoryName *Op : MP->memOperands())
          markLive(Op);
  }

  unsigned N = 0;
  for (MemPhiInst *MP : Phis) {
    if (!MP->target() || !Live[MP->target()->number()]) {
      MP->eraseFromParent();
      ++N;
    }
  }
  F.purgeDeadMemoryNames();
  return N;
}

CleanupStats srp::cleanupAfterPromotion(Function &F) {
  CleanupStats S;
  S.DummyLoadsRemoved = removeDummyLoads(F);
  S.CopiesPropagated = propagateCopies(F);
  S.DeadInstructionsRemoved = removeDeadInstructions(F);
  S.DeadMemPhisRemoved = removeDeadMemPhis(F);
  // Phi deaths can expose more dead instructions and vice versa.
  while (true) {
    unsigned More = removeDeadInstructions(F) + removeDeadMemPhis(F);
    if (!More)
      break;
    S.DeadInstructionsRemoved += More;
  }
  NumDummyLoads += S.DummyLoadsRemoved;
  NumCopies += S.CopiesPropagated;
  NumDeadInsts += S.DeadInstructionsRemoved;
  NumDeadMemPhis += S.DeadMemPhisRemoved;
  if (RemarkEngine *RE = remarks::sink())
    RE->record(Remark(RemarkKind::Analysis, "cleanup", "PostPromotionSweep")
                   .inFunction(F.name())
                   .arg("dummy-loads-removed", S.DummyLoadsRemoved)
                   .arg("copies-propagated", S.CopiesPropagated)
                   .arg("dead-instructions-removed",
                        S.DeadInstructionsRemoved)
                   .arg("dead-mem-phis-removed", S.DeadMemPhisRemoved));
  return S;
}

CleanupStats srp::cleanupAfterPromotion(Function &F, AnalysisManager &) {
  return cleanupAfterPromotion(F);
}

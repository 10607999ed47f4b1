//===- ssa/MemoryOpt.cpp - Optimizations on memory SSA --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ssa/MemoryOpt.h"
#include "analysis/Dominators.h"
#include "ir/Function.h"
#include "ssa/MemorySSA.h"
#include "ssa/SSAUpdater.h"
#include "support/Statistics.h"
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace srp;

namespace {
SRP_STATISTIC(NumForwarded, "memopt", "loads-forwarded",
              "Loads forwarded from the defining store");
SRP_STATISTIC(NumReused, "memopt", "loads-reused",
              "Loads replaced by a dominating load of the same version");
SRP_STATISTIC(NumDeadStores, "memopt", "dead-stores-removed",
              "Stores deleted because no instruction observes them");
} // namespace

MemoryOptStats srp::eliminateRedundantLoads(Function &F,
                                            const DominatorTree &DT) {
  MemoryOptStats Stats;

  // Group loads by the version they read.
  std::unordered_map<const MemoryName *, std::vector<LoadInst *>> ByVersion;
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB)
      if (auto *Ld = dyn_cast<LoadInst>(I.get()))
        if (Ld->memUse())
          ByVersion[Ld->memUse()].push_back(Ld);

  std::vector<LoadInst *> ToErase;
  std::unordered_set<const LoadInst *> Dead;
  for (auto &[Version, Loads] : ByVersion) {
    // Store-to-load forwarding: the version's defining store dominates
    // every one of its loads by SSA construction.
    if (Version->def())
      if (auto *St = dyn_cast<StoreInst>(Version->def())) {
        for (LoadInst *Ld : Loads) {
          Ld->replaceAllUsesWith(St->storedValue());
          ToErase.push_back(Ld);
          ++Stats.LoadsForwardedFromStores;
        }
        continue;
      }
    // Load-load reuse: a load dominated by another load of the same
    // version returns the same value. Loads already replaced this round
    // must not serve as representatives.
    for (LoadInst *Ld : Loads) {
      for (LoadInst *Other : Loads) {
        if (Other == Ld || Dead.count(Other))
          continue;
        if (DT.dominates(static_cast<Instruction *>(Other),
                         static_cast<Instruction *>(Ld))) {
          Ld->replaceAllUsesWith(Other);
          ToErase.push_back(Ld);
          Dead.insert(Ld);
          ++Stats.LoadsReusedFromLoads;
          break;
        }
      }
    }
  }
  for (LoadInst *Ld : ToErase)
    Ld->eraseFromParent();
  NumForwarded += Stats.LoadsForwardedFromStores;
  NumReused += Stats.LoadsReusedFromLoads;
  return Stats;
}

MemoryOptStats srp::eliminateDeadStores(Function &F) {
  MemoryOptStats Stats;
  std::vector<MemoryName *> StoreVersions;
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB) {
      if (auto *St = dyn_cast<StoreInst>(I.get()))
        if (St->memDefName())
          StoreVersions.push_back(St->memDefName());
      if (auto *MP = dyn_cast<MemPhiInst>(I.get()))
        if (MP->target())
          StoreVersions.push_back(MP->target());
    }
  SSAUpdateStats Sweep = sweepDeadDefs(F, StoreVersions);
  Stats.DeadStoresRemoved = Sweep.DefsDeleted;
  NumDeadStores += Stats.DeadStoresRemoved;
  return Stats;
}

MemoryOptStats srp::optimizeMemorySSA(Function &F, const DominatorTree &DT) {
  MemoryOptStats Total;
  while (true) {
    MemoryOptStats Round;
    MemoryOptStats L = eliminateRedundantLoads(F, DT);
    MemoryOptStats S = eliminateDeadStores(F);
    Round.LoadsForwardedFromStores = L.LoadsForwardedFromStores;
    Round.LoadsReusedFromLoads = L.LoadsReusedFromLoads;
    Round.DeadStoresRemoved = S.DeadStoresRemoved;
    Total.LoadsForwardedFromStores += Round.LoadsForwardedFromStores;
    Total.LoadsReusedFromLoads += Round.LoadsReusedFromLoads;
    Total.DeadStoresRemoved += Round.DeadStoresRemoved;
    if (Round.total() == 0)
      return Total;
  }
}

MemoryOptStats srp::optimizeMemorySSA(Function &F, AnalysisManager &AM) {
  AM.get<MemorySSAInfo>(F); // no-op when the memory-ssa pass already ran
  return optimizeMemorySSA(F, AM.get<DominatorTree>(F));
}

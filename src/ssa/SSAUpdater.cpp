//===- ssa/SSAUpdater.cpp - Incremental SSA update for clones ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ssa/SSAUpdater.h"
#include "analysis/Dominators.h"
#include "ir/Function.h"
#include "support/Statistics.h"
#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace srp;

namespace {
SRP_STATISTIC(NumIDF, "ssa-update", "idf-computations",
              "Iterated-dominance-frontier computations");
SRP_STATISTIC(NumPhisInserted, "ssa-update", "phis-inserted",
              "Memory phis placed by incremental SSA update");
SRP_STATISTIC(NumUsesRenamed, "ssa-update", "uses-renamed",
              "Memory uses renamed to their reaching definitions");
} // namespace

namespace {

/// Reaching-definition oracle over a fixed set of definitions of one memory
/// object. Queries walk the dominator tree bottom-up (the paper's
/// computeReachingDef); within a block the textually last definition that
/// precedes the query point wins.
class ReachingDefOracle {
  const DominatorTree &DT;
  /// Definitions per block, in block order.
  std::unordered_map<const BasicBlock *, std::vector<MemoryName *>> Defs;
  MemoryName *EntryVersion;

public:
  ReachingDefOracle(Function &F, const DominatorTree &DT,
                    const std::vector<MemoryName *> &AllDefs,
                    const MemoryObject *Obj)
      : DT(DT), EntryVersion(F.entryMemoryName(Obj)) {
    for (MemoryName *N : AllDefs) {
      if (N->isEntryVersion())
        continue;
      assert(N->def() && "non-entry version without a defining instruction");
      Defs[N->def()->parent()].push_back(N);
    }
    for (auto &[BB, List] : Defs)
      std::sort(List.begin(), List.end(),
                [&](MemoryName *A, MemoryName *B) {
                  return BB->indexOf(A->def()) < BB->indexOf(B->def());
                });
  }

  /// Definition reaching the point just before \p Before in \p BB; a null
  /// \p Before means the end of the block.
  MemoryName *query(const BasicBlock *BB, const Instruction *Before) const {
    // Same-block definitions preceding the query point.
    if (auto It = Defs.find(BB); It != Defs.end()) {
      const std::vector<MemoryName *> &List = It->second;
      if (!Before) {
        if (!List.empty())
          return List.back();
      } else {
        unsigned Limit = BB->indexOf(Before);
        MemoryName *Best = nullptr;
        for (MemoryName *N : List) {
          if (BB->indexOf(N->def()) >= Limit)
            break;
          Best = N;
        }
        if (Best)
          return Best;
      }
    }
    // Walk up the dominator tree.
    for (BasicBlock *D = DT.idom(BB); D; D = DT.idom(D)) {
      if (auto It = Defs.find(D); It != Defs.end() && !It->second.empty())
        return It->second.back();
    }
    return EntryVersion;
  }

  void addDef(MemoryName *N) {
    BasicBlock *BB = N->def()->parent();
    auto &List = Defs[BB];
    List.push_back(N);
    std::sort(List.begin(), List.end(), [&](MemoryName *A, MemoryName *B) {
      return BB->indexOf(A->def()) < BB->indexOf(B->def());
    });
  }
};

/// The use location of a memory operand for dominance purposes: phi operands
/// are uses at the end of their incoming block.
struct UseSite {
  const BasicBlock *BB;
  const Instruction *Before; ///< Null = end of block.
};

UseSite useSite(Instruction *User, unsigned MemOpIdx) {
  if (auto *MP = dyn_cast<MemPhiInst>(User))
    return {MP->incomingBlock(MemOpIdx), nullptr};
  return {User->parent(), User};
}

} // namespace

SSAUpdateStats srp::sweepDeadDefs(Function &F,
                                  const std::vector<MemoryName *> &Versions) {
  // Liveness closure so that phi cycles (a loop phi kept alive only by its
  // own back-edge operand, or two phis feeding each other) are recognised
  // as dead: a version is live iff some non-phi instruction uses it, or a
  // phi whose own target is live uses it.
  SSAUpdateStats Stats;
  // Deletion candidates are ONLY the provided versions (the paper's
  // allDefResSet). Other webs of the same object may be awaiting their own
  // promotion and must not lose definitions behind their back. A store or
  // memory phi defines exactly one version, so the candidate definitions
  // are marked by the number of the version they define.
  enum : uint8_t { Candidate = 1, Live = 2 };
  std::vector<uint8_t> State(F.memoryNameBound(), 0);
  std::vector<Instruction *> Defs;
  for (MemoryName *N : Versions) {
    if (N->isEntryVersion() || !N->def())
      continue;
    Instruction *D = N->def();
    if (isa<StoreInst>(D) || isa<MemPhiInst>(D)) {
      Defs.push_back(D);
      State[N->number()] |= Candidate;
    }
  }
  auto isCandidatePhi = [&](const Instruction *I) {
    const auto *MP = dyn_cast<MemPhiInst>(I);
    return MP && MP->target() && (State[MP->target()->number()] & Candidate);
  };

  std::vector<const MemoryName *> Work;
  auto markLive = [&](const MemoryName *N) {
    if (!(State[N->number()] & Live)) {
      State[N->number()] |= Live;
      Work.push_back(N);
    }
  };
  auto isLive = [&](const MemoryName *N) { return State[N->number()] & Live; };
  // Seeds: uses by anything that is not a deletion-candidate phi. Memory
  // phis outside the set (e.g. in an enclosing interval) are external
  // users and pin their operands.
  for (Instruction *D : Defs) {
    MemoryName *Target =
        isa<StoreInst>(D) ? cast<StoreInst>(D)->memDefName()
                          : cast<MemPhiInst>(D)->target();
    for (const Use &U : Target->uses())
      if (!isCandidatePhi(U.User))
        markLive(Target);
  }
  // Propagate: a live version defined by an in-set phi keeps that phi's
  // operands alive (so the phi itself survives).
  while (!Work.empty()) {
    const MemoryName *N = Work.back();
    Work.pop_back();
    if (!N->def() || !isCandidatePhi(N->def()))
      continue;
    for (MemoryName *Op : N->def()->memOperands())
      markLive(Op);
  }

  // Decide deadness before deleting anything, then delete dead phis first
  // (clearing their operand uses), then dead stores.
  std::vector<Instruction *> DeadPhis, DeadStores;
  for (Instruction *D : Defs) {
    if (auto *MP = dyn_cast<MemPhiInst>(D)) {
      if (!isLive(MP->target()))
        DeadPhis.push_back(MP);
    } else if (auto *St = dyn_cast<StoreInst>(D)) {
      if (!isLive(St->memDefName()))
        DeadStores.push_back(St);
    }
  }
  for (Instruction *MP : DeadPhis) {
    MP->eraseFromParent();
    ++Stats.PhisDeleted;
  }
  for (Instruction *St : DeadStores) {
    assert(!cast<StoreInst>(St)->memDefName()->hasUses() &&
           "dead store version still used after phi deletion");
    St->eraseFromParent();
    ++Stats.DefsDeleted;
  }
  F.purgeDeadMemoryNames();
  return Stats;
}

SSAUpdateStats srp::updateSSAForClonedResources(
    Function &F, const DominatorTree &DT,
    const std::vector<MemoryName *> &OldRes,
    const std::vector<MemoryName *> &ClonedRes, bool SweepDead) {
  SSAUpdateStats Stats;
  assert(!OldRes.empty() && "need at least one existing resource");
  MemoryObject *Obj = OldRes.front()->object();
#ifndef NDEBUG
  for (MemoryName *N : OldRes)
    assert(N->object() == Obj && "resources renamed from different variables");
  for (MemoryName *N : ClonedRes)
    assert(N->object() == Obj && "clones of a different variable");
#endif

  // Step 1: collect the definition blocks of old and cloned resources and
  // place one phi at each block of their iterated dominance frontier.
  std::vector<BasicBlock *> InitDefBlocks;
  std::unordered_set<const BasicBlock *> SeenDefBlock;
  std::unordered_set<const BasicBlock *> HasPhiAlready;
  auto noteDef = [&](MemoryName *N) {
    BasicBlock *BB =
        N->isEntryVersion() ? F.entry() : N->def()->parent();
    if (N->def() && isa<MemPhiInst>(N->def()))
      HasPhiAlready.insert(BB);
    if (SeenDefBlock.insert(BB).second)
      InitDefBlocks.push_back(BB);
  };
  for (MemoryName *N : OldRes)
    noteDef(N);
  for (MemoryName *N : ClonedRes)
    noteDef(N);

  std::vector<MemoryName *> AllDefs;
  AllDefs.insert(AllDefs.end(), OldRes.begin(), OldRes.end());
  AllDefs.insert(AllDefs.end(), ClonedRes.begin(), ClonedRes.end());

  ++Stats.IDFComputations;
  std::vector<MemPhiInst *> NewPhis;
  std::unordered_set<MemPhiInst *> IsNewPhi;
  for (BasicBlock *BB : DT.iteratedFrontier(InitDefBlocks)) {
    // A pre-existing phi of this object already merges here; it stays the
    // merge point and its operands are recomputed in step 2.
    if (HasPhiAlready.count(BB))
      continue;
    auto Phi = std::make_unique<MemPhiInst>(Obj);
    MemPhiInst *Raw = Phi.get();
    BB->prepend(std::move(Phi));
    Raw->addMemDef(F.createMemoryName(Obj));
    NewPhis.push_back(Raw);
    IsNewPhi.insert(Raw);
    AllDefs.push_back(Raw->target());
    ++Stats.PhisInserted;
  }

  ReachingDefOracle Oracle(F, DT, AllDefs, Obj);

  // Step 2: rename every use of an old resource to its reaching definition.
  // New phis whose targets become reachable go on the worklist for filling.
  std::vector<MemPhiInst *> PhiWork;
  std::unordered_set<MemPhiInst *> PhiQueued;
  auto enqueueIfNewPhi = [&](MemoryName *N) {
    if (!N->def())
      return;
    if (auto *MP = dyn_cast<MemPhiInst>(N->def()))
      if (IsNewPhi.count(MP) && PhiQueued.insert(MP).second)
        PhiWork.push_back(MP);
  };

  for (MemoryName *Old : OldRes) {
    // Snapshot: renaming mutates the use list.
    std::vector<Use> Snapshot = Old->uses();
    for (const Use &U : Snapshot) {
      assert(U.IsMem && "register use of a memory name");
      // Do not rewrite the operands of phis we just inserted (they have
      // none yet) nor a definition's own record.
      UseSite Site = useSite(U.User, U.Index);
      MemoryName *Reach = Oracle.query(Site.BB, Site.Before);
      if (Reach != Old) {
        U.User->setMemOperand(U.Index, Reach);
        ++Stats.UsesRenamed;
      }
      enqueueIfNewPhi(Reach);
    }
  }

  // Step 3: fill live phis; a phi source is a use at the end of the
  // corresponding predecessor.
  while (!PhiWork.empty()) {
    MemPhiInst *MP = PhiWork.back();
    PhiWork.pop_back();
    BasicBlock *BB = MP->parent();
    assert(MP->numIncoming() == 0 && "new phi filled twice");
    for (BasicBlock *Pred : BB->preds()) {
      MemoryName *Reach = Oracle.query(Pred, nullptr);
      MP->addIncoming(Reach, Pred);
      enqueueIfNewPhi(Reach);
    }
  }

  // Unfilled new phis are unreachable by any renamed use: they are dead on
  // arrival; the sweep below removes them (their targets have no uses).

  // Step 4: delete every definition that has no use (old, cloned, or
  // inserted phi), cascading.
  if (SweepDead) {
    std::vector<MemoryName *> Candidates = AllDefs;
    SSAUpdateStats SweepStats = sweepDeadDefs(F, Candidates);
    Stats.PhisDeleted += SweepStats.PhisDeleted;
    Stats.DefsDeleted += SweepStats.DefsDeleted;
  } else {
    // Still remove never-filled phis: they would otherwise be structurally
    // invalid (zero operands).
    for (MemPhiInst *MP : NewPhis) {
      if (MP->numIncoming() == 0 && MP->target() && !MP->target()->hasUses()) {
        MP->eraseFromParent();
        ++Stats.PhisDeleted;
      }
    }
    F.purgeDeadMemoryNames();
  }
  NumIDF += Stats.IDFComputations;
  NumPhisInserted += Stats.PhisInserted;
  NumUsesRenamed += Stats.UsesRenamed;
  return Stats;
}

SSAUpdateStats srp::convertResourceToSSA(Function &F,
                                         const DominatorTree &DT,
                                         MemoryObject *Obj) {
  MemoryName *Entry = F.entryMemoryName(Obj);
  if (!Entry) {
    Entry = F.createMemoryName(Obj);
    F.setEntryMemoryName(Obj, Entry);
  }

  std::vector<MemoryName *> Clones;
  for (BasicBlock *BB : F.blocks()) {
    for (auto &I : *BB) {
      if (auto *St = dyn_cast<StoreInst>(I.get())) {
        if (St->object() == Obj && !St->memDefName()) {
          MemoryName *V = F.createMemoryName(Obj);
          St->addMemDef(V);
          Clones.push_back(V);
        }
      } else if (auto *Ld = dyn_cast<LoadInst>(I.get())) {
        if (Ld->object() == Obj && !Ld->memUse())
          Ld->addMemOperand(Entry);
      } else if (auto *Ret = dyn_cast<RetInst>(I.get())) {
        // Module-scope objects are observable after return; the mu keeps
        // final stores alive through the update's dead-def sweep.
        if (Obj->isVisibleToCalls() && !Obj->owner() &&
            !Ret->memOperandFor(Obj))
          Ret->addMemOperand(Entry);
      }
    }
  }
  return updateSSAForClonedResources(F, DT, {Entry}, Clones);
}

SSAUpdateStats
srp::updateSSAPerClonedDef(Function &F, const DominatorTree &DT,
                           const std::vector<MemoryName *> &OldRes,
                           const std::vector<MemoryName *> &ClonedRes) {
  SSAUpdateStats Stats;
  // The evolving "old" set: each processed clone becomes an existing
  // definition for the next round, mirroring repeated single-definition
  // insertion.
  std::vector<MemoryName *> Current = OldRes;
  for (MemoryName *Clone : ClonedRes) {
    Stats += updateSSAForClonedResources(F, DT, Current, {Clone},
                                         /*SweepDead=*/false);
    // Definitions may have been erased meanwhile; keep only live versions.
    std::vector<MemoryName *> Live;
    for (MemoryName *N : Current)
      if (N->isEntryVersion() ? F.entryMemoryName(N->object()) == N
                              : N->def() != nullptr)
        Live.push_back(N);
    Current = std::move(Live);
    Current.push_back(Clone);
    // Phis inserted by this round join the definition set of later rounds.
    for (BasicBlock *BB : F.blocks())
      for (auto &I : *BB)
        if (auto *MP = dyn_cast<MemPhiInst>(I.get()))
          if (MP->object() == Clone->object() && MP->target() &&
              std::find(Current.begin(), Current.end(), MP->target()) ==
                  Current.end())
            Current.push_back(MP->target());
  }
  Stats += sweepDeadDefs(F, Current);
  return Stats;
}

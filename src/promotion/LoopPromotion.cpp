//===- promotion/LoopPromotion.cpp - Loop-based baseline promoter --------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/LoopPromotion.h"
#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "analysis/TransValidate.h"
#include "ir/Function.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include <algorithm>
#include <unordered_set>

namespace {
SRP_STATISTIC(NumVarsPromoted, "loop-promotion", "vars-promoted",
              "Variables promoted by the Lu-Cooper baseline");
SRP_STATISTIC(NumLoops, "loop-promotion", "loops-considered",
              "Proper loops examined by the baseline");
SRP_STATISTIC(NumBlocked, "loop-promotion", "blocked-by-aliases",
              "Variable/loop pairs rejected for ambiguous references");
} // namespace

using namespace srp;

namespace {

/// Variables the loop references through plain loads/stores.
std::vector<MemoryObject *> referencedScalars(const Interval &Iv) {
  std::vector<MemoryObject *> Result;
  std::unordered_set<const MemoryObject *> Seen;
  for (BasicBlock *BB : Iv.blocks()) {
    for (auto &I : *BB) {
      MemoryObject *Obj = nullptr;
      if (auto *Ld = dyn_cast<LoadInst>(I.get()))
        Obj = Ld->object();
      else if (auto *St = dyn_cast<StoreInst>(I.get()))
        Obj = St->object();
      if (Obj && Obj->isPromotable() && Seen.insert(Obj).second)
        Result.push_back(Obj);
    }
  }
  return Result;
}

/// The baseline's ambiguity test: any reference in the loop that may read
/// or write \p Obj other than a direct load/store of it.
bool hasAmbiguousRef(const Interval &Iv, const MemoryObject *Obj,
                     const AliasInfo &AI) {
  for (BasicBlock *BB : Iv.blocks()) {
    for (auto &I : *BB) {
      if (isa<LoadInst>(I.get()) || isa<StoreInst>(I.get()))
        continue;
      if (AI.useObjects(*I).contains(Obj) || AI.defObjects(*I).contains(Obj))
        return true;
    }
  }
  return false;
}

void promoteInLoop(Function &F, const Interval &Iv, MemoryObject *Obj) {
  MemoryObject *Tmp = F.createLocal(Obj->name() + ".lc",
                                    MemoryObject::Kind::Local);

  // Preheader: tmp = obj.
  BasicBlock *PH = Iv.preheader();
  Instruction *Term = PH->terminator();
  auto Load = std::make_unique<LoadInst>(Obj, F.uniqueValueName("lcld"));
  Instruction *L = PH->insertBefore(Term, std::move(Load));
  PH->insertBefore(Term, std::make_unique<StoreInst>(Tmp, L));

  // Redirect the loop body accesses.
  bool AnyStore = false;
  for (BasicBlock *BB : Iv.blocks()) {
    std::vector<Instruction *> Insts;
    for (auto &I : *BB)
      Insts.push_back(I.get());
    for (Instruction *I : Insts) {
      if (auto *Ld = dyn_cast<LoadInst>(I); Ld && Ld->object() == Obj) {
        auto NewLd = std::make_unique<LoadInst>(Tmp, Ld->name());
        Instruction *N = BB->insertBefore(Ld, std::move(NewLd));
        Ld->replaceAllUsesWith(N);
        Ld->eraseFromParent();
      } else if (auto *St = dyn_cast<StoreInst>(I);
                 St && St->object() == Obj) {
        BB->insertBefore(St,
                         std::make_unique<StoreInst>(Tmp, St->storedValue()));
        St->eraseFromParent();
        AnyStore = true;
      }
    }
  }

  // Tails: obj = tmp (only when the loop may have modified it).
  if (AnyStore) {
    for (BasicBlock *Tail : Iv.tails()) {
      auto TL = std::make_unique<LoadInst>(Tmp, F.uniqueValueName("lcst"));
      Instruction *V = Tail->insertAfterPhis(std::move(TL));
      Tail->insertAfter(V, std::make_unique<StoreInst>(Obj, V));
    }
  }
}

/// The baseline proper: walks the loops of \p IT innermost-first and
/// promotes every unambiguous scalar. Only inserts instructions — the CFG
/// and the interval tree stay valid.
LoopPromotionStats runOnIntervals(Function &F, const IntervalTree &IT,
                                  const AliasInfo &AI) {
  LoopPromotionStats Stats;
  for (Interval *Iv : IT.postorder()) {
    if (Iv->isRoot() || !Iv->isProper())
      continue; // the baseline is loop based and needs a unique preheader
    ++Stats.LoopsConsidered;
    for (MemoryObject *Obj : referencedScalars(*Iv)) {
      if (hasAmbiguousRef(*Iv, Obj, AI)) {
        ++Stats.BlockedByAliases;
        if (RemarkEngine *RE = remarks::sink())
          RE->record(
              Remark(RemarkKind::Missed, "loop-promotion", "AmbiguousRef")
                  .inFunction(F.name())
                  .inInterval(Iv->header()->name(), Iv->depth())
                  .onWeb(Obj->name()));
        continue;
      }
      promoteInLoop(F, *Iv, Obj);
      ++Stats.VariablesPromoted;
      validation::recordPromotedWeb(F.name(), Obj->name(), Obj->name(),
                                    "loop-promotion");
      if (RemarkEngine *RE = remarks::sink())
        RE->record(
            Remark(RemarkKind::Passed, "loop-promotion", "PromotedVariable")
                .inFunction(F.name())
                .inInterval(Iv->header()->name(), Iv->depth())
                .onWeb(Obj->name())
                .arg("loop-blocks", Iv->blocks().size()));
    }
  }
  return Stats;
}

} // namespace

LoopPromotionStats srp::promoteLoopsBaseline(Function &F) {
  AliasInfo AI = AliasInfo::compute(F);

  DominatorTree DT(F);
  IntervalTree IT(F, DT);
  IT.assignPreheaders(DT);

  LoopPromotionStats Stats = runOnIntervals(F, IT, AI);

  // The temporaries become SSA registers.
  DT.recompute(F);
  promoteLocalsToSSA(F, DT);

  NumVarsPromoted += Stats.VariablesPromoted;
  NumLoops += Stats.LoopsConsidered;
  NumBlocked += Stats.BlockedByAliases;
  return Stats;
}

LoopPromotionStats srp::promoteLoopsBaseline(Function &F,
                                             AnalysisManager &AM) {
  AliasInfo AI = AliasInfo::compute(F);

  // The cached interval tree has preheaders when canonicalisation went
  // through the manager; promotion only inserts instructions, so the
  // trees stay valid and the final mem2reg reuses the cached dominators.
  LoopPromotionStats Stats = runOnIntervals(F, AM.get<IntervalTree>(F), AI);
  promoteLocalsToSSA(F, AM);

  NumVarsPromoted += Stats.VariablesPromoted;
  NumLoops += Stats.LoopsConsidered;
  NumBlocked += Stats.BlockedByAliases;
  return Stats;
}

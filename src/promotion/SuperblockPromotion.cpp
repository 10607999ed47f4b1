//===- promotion/SuperblockPromotion.cpp - Superblock migration -----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/SuperblockPromotion.h"
#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "analysis/TransValidate.h"
#include "ir/CFGEdit.h"
#include "ir/Function.h"
#include "profile/ProfileInfo.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemorySSA.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include <algorithm>
#include <unordered_set>
#include <vector>

using namespace srp;

SRP_STATISTIC(NumTracesFormed, "superblock", "traces-formed",
              "Hot traces formed from loop profiles");
SRP_STATISTIC(NumSBVarsPromoted, "superblock", "vars-promoted",
              "Variables promoted along a superblock trace");
SRP_STATISTIC(NumBlockedTraceAlias, "superblock", "blocked-trace-alias",
              "Candidates rejected: ambiguous ref on the trace");
SRP_STATISTIC(NumBlockedOffTraceRef, "superblock", "blocked-off-trace-ref",
              "Candidates rejected: refs outside the trace");

namespace {

/// The loop's hot trace: follow the most frequent in-loop successor from
/// the header until the path would repeat a block or leave the loop.
std::vector<BasicBlock *> formTrace(const Interval &Iv,
                                    const ProfileInfo &PI) {
  std::vector<BasicBlock *> Trace;
  std::unordered_set<const BasicBlock *> OnTrace;
  BasicBlock *Cur = Iv.header();
  while (Cur && Iv.contains(Cur) && !OnTrace.count(Cur)) {
    Trace.push_back(Cur);
    OnTrace.insert(Cur);
    BasicBlock *Best = nullptr;
    uint64_t BestFreq = 0;
    for (BasicBlock *S : Cur->succs()) {
      uint64_t Freq = PI.frequency(S);
      if (!Best || Freq > BestFreq) {
        Best = S;
        BestFreq = Freq;
      }
    }
    Cur = Best;
  }
  return Trace;
}

/// Singleton refs of \p Obj inside the interval, partitioned by trace
/// membership.
struct RefSplit {
  std::vector<Instruction *> OnTrace;
  unsigned OffTrace = 0;
  bool AnyStore = false;
};

RefSplit splitRefs(const Interval &Iv,
                   const std::unordered_set<const BasicBlock *> &OnTrace,
                   const MemoryObject *Obj) {
  RefSplit R;
  for (BasicBlock *BB : Iv.blocks()) {
    for (auto &I : *BB) {
      const MemoryObject *Touched = nullptr;
      if (auto *Ld = dyn_cast<LoadInst>(I.get()))
        Touched = Ld->object();
      else if (auto *St = dyn_cast<StoreInst>(I.get()))
        Touched = St->object();
      if (Touched != Obj)
        continue;
      if (OnTrace.count(BB)) {
        R.OnTrace.push_back(I.get());
        R.AnyStore |= isa<StoreInst>(I.get());
      } else {
        ++R.OffTrace;
      }
    }
  }
  return R;
}

bool traceAliases(const std::vector<BasicBlock *> &Trace,
                  const MemoryObject *Obj, const AliasInfo &AI) {
  for (BasicBlock *BB : Trace) {
    for (auto &I : *BB) {
      if (isa<LoadInst>(I.get()) || isa<StoreInst>(I.get()))
        continue;
      if (AI.useObjects(*I).contains(Obj) || AI.defObjects(*I).contains(Obj))
        return true;
    }
  }
  return false;
}

/// Inserts "st [obj] = ld [tmp]" on the edge From->To (splitting it).
void syncOnEdge(Function &F, BasicBlock *From, BasicBlock *To,
                MemoryObject *Obj, MemoryObject *Tmp) {
  BasicBlock *Mid = splitEdge(From, To);
  Instruction *Term = Mid->terminator();
  auto Ld = std::make_unique<LoadInst>(Tmp, F.uniqueValueName("sbst"));
  Instruction *V = Mid->insertBefore(Term, std::move(Ld));
  Mid->insertBefore(Term, std::make_unique<StoreInst>(Obj, V));
}

/// Inserts "t = ld [obj]; st [tmp] = t" on the edge From->To.
void refreshOnEdge(Function &F, BasicBlock *From, BasicBlock *To,
                   MemoryObject *Obj, MemoryObject *Tmp) {
  BasicBlock *Mid = splitEdge(From, To);
  Instruction *Term = Mid->terminator();
  auto Ld = std::make_unique<LoadInst>(Obj, F.uniqueValueName("sbld"));
  Instruction *V = Mid->insertBefore(Term, std::move(Ld));
  Mid->insertBefore(Term, std::make_unique<StoreInst>(Tmp, V));
}

void promoteInTrace(Function &F, const Interval &Iv,
                    const std::vector<BasicBlock *> &Trace,
                    const std::unordered_set<const BasicBlock *> &OnTrace,
                    MemoryObject *Obj, const RefSplit &Refs) {
  MemoryObject *Tmp =
      F.createLocal(Obj->name() + ".sb", MemoryObject::Kind::Local);

  // Preheader: tmp = obj.
  BasicBlock *PH = Iv.preheader();
  Instruction *Term = PH->terminator();
  auto Ld = std::make_unique<LoadInst>(Obj, F.uniqueValueName("sbph"));
  Instruction *V = PH->insertBefore(Term, std::move(Ld));
  PH->insertBefore(Term, std::make_unique<StoreInst>(Tmp, V));

  // Redirect the on-trace accesses.
  for (Instruction *I : Refs.OnTrace) {
    BasicBlock *BB = I->parent();
    if (auto *L = dyn_cast<LoadInst>(I)) {
      auto NewLd = std::make_unique<LoadInst>(Tmp, L->name());
      Instruction *N = BB->insertBefore(L, std::move(NewLd));
      L->replaceAllUsesWith(N);
      L->eraseFromParent();
    } else {
      auto *S = cast<StoreInst>(I);
      BB->insertBefore(S, std::make_unique<StoreInst>(Tmp, S->storedValue()));
      S->eraseFromParent();
    }
  }

  // Side exits: every edge from a trace block to a block that is not the
  // next trace block needs memory synchronised (when the trace may have
  // modified the variable). Cold re-entries into the header refresh the
  // temporary. Snapshot the edges first: splitting mutates the CFG.
  struct Edge {
    BasicBlock *From, *To;
  };
  std::vector<Edge> Syncs, Refreshes;
  for (size_t I = 0; I != Trace.size(); ++I) {
    BasicBlock *BB = Trace[I];
    BasicBlock *Next = I + 1 < Trace.size() ? Trace[I + 1] : nullptr;
    for (BasicBlock *S : BB->succs()) {
      if (S == Next)
        continue;
      // The hot back edge to the header keeps the value in the register:
      // the register is still current there and the header is on-trace.
      if (S == Iv.header() && BB == Trace.back())
        continue;
      // Jumps to other on-trace blocks keep the register current too, but
      // memory must still be synced if a store happened (the target may
      // side-exit later into code that reads memory) — a sync is always
      // safe, so treat every non-next edge uniformly.
      if (Refs.AnyStore)
        Syncs.push_back({BB, S});
    }
  }
  // Cold re-entries: every edge from an off-trace block into a trace
  // block must refresh the temporary (the cold path may have modified the
  // variable through a call or pointer).
  for (BasicBlock *BB : Trace)
    for (BasicBlock *P : BB->preds()) {
      if (OnTrace.count(P) || P == PH)
        continue;
      Refreshes.push_back({P, BB});
    }
  for (const Edge &E : Syncs)
    syncOnEdge(F, E.From, E.To, Obj, Tmp);
  for (const Edge &E : Refreshes)
    refreshOnEdge(F, E.From, E.To, Obj, Tmp);
}

/// Trace formation and promotion over a snapshotted loop list. The
/// snapshot is required because promotion splits edges, which would
/// invalidate a live traversal; intervals themselves stay usable (no
/// block of a loop is removed; new blocks are edge splits outside/inside
/// recorded before use).
SuperblockStats runOnLoops(Function &F, const std::vector<Interval *> &Loops,
                           const ProfileInfo &PI, const AliasInfo &AI) {
  SuperblockStats Stats;
  for (Interval *Iv : Loops) {
    std::vector<BasicBlock *> Trace = formTrace(*Iv, PI);
    if (Trace.empty())
      continue;
    ++Stats.TracesFormed;
    ++NumTracesFormed;
    std::unordered_set<const BasicBlock *> OnTrace(Trace.begin(),
                                                   Trace.end());

    // Candidate variables: singleton refs on the trace.
    std::vector<MemoryObject *> Candidates;
    std::unordered_set<const MemoryObject *> Seen;
    for (BasicBlock *BB : Trace)
      for (auto &I : *BB) {
        MemoryObject *Obj = nullptr;
        if (auto *Ld = dyn_cast<LoadInst>(I.get()))
          Obj = Ld->object();
        else if (auto *St = dyn_cast<StoreInst>(I.get()))
          Obj = St->object();
        if (Obj && Obj->isPromotable() && Seen.insert(Obj).second)
          Candidates.push_back(Obj);
      }

    for (MemoryObject *Obj : Candidates) {
      if (traceAliases(Trace, Obj, AI)) {
        ++Stats.BlockedOnTraceAlias;
        ++NumBlockedTraceAlias;
        if (RemarkEngine *RE = remarks::sink())
          RE->record(Remark(RemarkKind::Missed, "superblock", "TraceAlias")
                         .inFunction(F.name())
                         .inInterval(Iv->header()->name(), Iv->depth())
                         .onWeb(Obj->name())
                         .arg("trace-length", Trace.size())
                         .arg("header-freq", PI.frequency(Iv->header())));
        continue;
      }
      RefSplit Refs = splitRefs(*Iv, OnTrace, Obj);
      if (Refs.OffTrace > 0) {
        ++Stats.BlockedOffTraceRef;
        ++NumBlockedOffTraceRef;
        if (RemarkEngine *RE = remarks::sink())
          RE->record(Remark(RemarkKind::Missed, "superblock", "OffTraceRefs")
                         .inFunction(F.name())
                         .inInterval(Iv->header()->name(), Iv->depth())
                         .onWeb(Obj->name())
                         .arg("trace-length", Trace.size())
                         .arg("on-trace-refs", Refs.OnTrace.size())
                         .arg("off-trace-refs", Refs.OffTrace)
                         .arg("header-freq", PI.frequency(Iv->header())));
        continue;
      }
      promoteInTrace(F, *Iv, Trace, OnTrace, Obj, Refs);
      ++Stats.VariablesPromoted;
      ++NumSBVarsPromoted;
      validation::recordPromotedWeb(F.name(), Obj->name(), Obj->name(),
                                    "superblock");
      if (RemarkEngine *RE = remarks::sink())
        RE->record(Remark(RemarkKind::Passed, "superblock",
                          "PromotedTraceVariable")
                       .inFunction(F.name())
                       .inInterval(Iv->header()->name(), Iv->depth())
                       .onWeb(Obj->name())
                       .arg("trace-length", Trace.size())
                       .arg("on-trace-refs", Refs.OnTrace.size())
                       .arg("has-store", Refs.AnyStore)
                       .arg("header-freq", PI.frequency(Iv->header())));
    }
  }
  return Stats;
}

} // namespace

SuperblockStats srp::promoteSuperblocks(Function &F, const ProfileInfo &PI) {
  AliasInfo AI = AliasInfo::compute(F);

  DominatorTree DT(F);
  IntervalTree IT(F, DT);
  IT.assignPreheaders(DT);

  std::vector<Interval *> Loops;
  for (Interval *Iv : IT.postorder())
    if (!Iv->isRoot() && Iv->isProper())
      Loops.push_back(Iv);

  SuperblockStats Stats = runOnLoops(F, Loops, PI, AI);

  DominatorTree DT2(F);
  promoteLocalsToSSA(F, DT2);
  return Stats;
}

SuperblockStats srp::promoteSuperblocks(Function &F, const ProfileInfo &PI,
                                        AnalysisManager &AM) {
  AliasInfo AI = AliasInfo::compute(F);

  // The snapshotted Interval pointers survive the edge splits promotion
  // performs: the splits make the cached tree stale, but the manager
  // retires (rather than frees) it, so the snapshot stays readable.
  std::vector<Interval *> Loops;
  for (Interval *Iv : AM.get<IntervalTree>(F).postorder())
    if (!Iv->isRoot() && Iv->isProper())
      Loops.push_back(Iv);

  SuperblockStats Stats = runOnLoops(F, Loops, PI, AI);

  // The splits above moved the CFG epoch the cached dominators were built
  // at; this pulls a fresh tree for the mem2reg round.
  promoteLocalsToSSA(F, AM);
  return Stats;
}

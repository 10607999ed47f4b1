//===- promotion/WebPromotion.cpp - Promotion of one SSA web -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/WebPromotion.h"
#include "analysis/Dominators.h"
#include "analysis/TransValidate.h"
#include "analysis/Intervals.h"
#include "ir/Function.h"
#include "profile/ProfileInfo.h"
#include "ssa/SSAUpdater.h"
#include "support/Remarks.h"
#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace srp;

namespace {

/// A planned insertion: a load of Version (or a store of its register
/// value) placed immediately before At.
struct PlannedOp {
  MemoryName *Version;
  Instruction *At;

  bool operator==(const PlannedOp &R) const {
    return Version == R.Version && At == R.At;
  }
};

/// Plans the loads-added set (§4.3): one load per (leaf, incoming-block)
/// pair over the phis of the web, for leaves not defined by a store of the
/// web. The load goes before the last instruction of the incoming block.
std::vector<PlannedOp> planLeafLoads(const SSAWeb &W) {
  std::vector<PlannedOp> Plan;
  auto push = [&](MemoryName *N, Instruction *At) {
    PlannedOp Op{N, At};
    if (std::find(Plan.begin(), Plan.end(), Op) == Plan.end())
      Plan.push_back(Op);
  };
  for (MemPhiInst *P : W.Phis) {
    for (unsigned I = 0, E = P->numIncoming(); I != E; ++I) {
      MemoryName *N = P->incomingName(I);
      if (!W.isLeaf(N) || W.definedByWebStore(N))
        continue;
      Instruction *Term = P->incomingBlock(I)->terminator();
      assert(Term && "incoming block without terminator");
      push(N, Term);
    }
  }
  return Plan;
}

/// Dominance pruning: drop (x, j) when (x, i) with i dominating j exists.
std::vector<PlannedOp> pruneDominated(const std::vector<PlannedOp> &Plan,
                                      const DominatorTree &DT) {
  std::vector<PlannedOp> Pruned;
  for (const PlannedOp &Op : Plan) {
    bool Dominated = false;
    for (const PlannedOp &Other : Plan) {
      if (Other.Version != Op.Version || Other.At == Op.At)
        continue;
      if (DT.dominates(Other.At, Op.At)) {
        Dominated = true;
        break;
      }
    }
    if (!Dominated)
      Pruned.push_back(Op);
  }
  return Pruned;
}

int64_t planCost(const std::vector<PlannedOp> &Plan, const ProfileInfo &PI) {
  int64_t Cost = 0;
  for (const PlannedOp &Op : Plan)
    Cost += static_cast<int64_t>(PI.frequency(Op.At));
  return Cost;
}

/// Plans the stores-added set (§4.3): a store before every aliased load
/// that directly uses a store-defined version, and a store at the end of
/// incoming block L for every store-defined operand x:L of a phi some
/// aliased load transitively depends on. Dominated duplicates of the same
/// version are pruned.
///
/// With Opts.DirectAliasedStores an alternative plan is also considered:
/// storing the materialised value immediately before each aliased load
/// (covering phi-defined versions too); the profile decides which plan is
/// cheaper.
std::vector<PlannedOp> planCompensatingStores(const SSAWeb &W,
                                              const DominatorTree &DT,
                                              const ProfileInfo &PI,
                                              const PromotionOptions &Opts) {
  std::vector<PlannedOp> Plan;
  auto push = [&](MemoryName *N, Instruction *At) {
    PlannedOp Op{N, At};
    if (std::find(Plan.begin(), Plan.end(), Op) == Plan.end())
      Plan.push_back(Op);
  };

  // Phis some aliased load depends on (transitive closure through phi
  // operands).
  std::unordered_set<const MemPhiInst *> Feeding;
  std::vector<const MemPhiInst *> Work;
  auto enqueuePhi = [&](const MemoryName *N) {
    if (!W.definedByWebPhi(N))
      return;
    const auto *MP = cast<MemPhiInst>(N->def());
    if (Feeding.insert(MP).second)
      Work.push_back(MP);
  };

  for (const auto &[Inst, Used] : W.AliasedLoadRefs) {
    if (W.definedByWebStore(Used)) {
      push(Used, Inst); // direct use of a store's version
      continue;
    }
    enqueuePhi(Used);
    // Versions defined outside the interval or by aliased stores need no
    // compensation: memory already holds their value.
  }
  while (!Work.empty()) {
    const MemPhiInst *MP = Work.back();
    Work.pop_back();
    for (unsigned I = 0, E = MP->numIncoming(); I != E; ++I) {
      MemoryName *N = MP->incomingName(I);
      if (W.definedByWebStore(N)) {
        Instruction *Term = MP->incomingBlock(I)->terminator();
        push(N, Term);
      } else {
        enqueuePhi(N);
      }
    }
  }
  std::vector<PlannedOp> PaperPlan = pruneDominated(Plan, DT);
  if (!Opts.DirectAliasedStores)
    return PaperPlan;

  // Alternative: one store of the (materialisable) used version right
  // before each aliased load.
  std::vector<PlannedOp> Direct;
  auto pushDirect = [&](MemoryName *N, Instruction *At) {
    PlannedOp Op{N, At};
    if (std::find(Direct.begin(), Direct.end(), Op) == Direct.end())
      Direct.push_back(Op);
  };
  for (const auto &[Inst, Used] : W.AliasedLoadRefs)
    if (W.definedByWebStore(Used) || W.definedByWebPhi(Used))
      pushDirect(Used, Inst);
  Direct = pruneDominated(Direct, DT);

  return planCost(Direct, PI) < planCost(PaperPlan, PI) ? Direct : PaperPlan;
}

/// The version of the web's object reaching the end of \p BB, considering
/// every definition in the function (used for tail stores and the dummy
/// load's mu-operand).
MemoryName *reachingVersionAtEnd(Function &F, const DominatorTree &DT,
                                 MemoryObject *Obj, BasicBlock *BB) {
  // Last def of Obj in BB, else walk up the dominator tree.
  for (BasicBlock *B = BB; B; B = DT.idom(B)) {
    MemoryName *Last = nullptr;
    for (auto &I : *B)
      if (MemoryName *D = I->memDefFor(Obj))
        Last = D;
    if (Last)
      return Last;
  }
  return F.entryMemoryName(Obj);
}

/// True if version \p N has any use outside interval \p Iv (loads, mu-uses,
/// or phi operands of instructions outside the interval).
bool usedOutsideInterval(const MemoryName *N, const Interval &Iv) {
  for (const Use &U : N->uses())
    if (!Iv.contains(U.User->parent()))
      return true;
  return false;
}

/// Shared state of one web's transformation.
class WebPromoter {
  SSAWeb &W;
  Function &F;
  const DominatorTree &DT;
  const PromotionOptions &Opts;
  PreheaderVersions &PV;
  PromotionStats Stats;

  /// vrMap: memory version -> virtual register holding its value.
  std::unordered_map<const MemoryName *, Value *> VRMap;
  /// Loads inserted at phi leaves, keyed by (version, block).
  std::map<std::pair<const MemoryName *, const BasicBlock *>, LoadInst *>
      LeafLoads;

public:
  WebPromoter(SSAWeb &W, Function &F, const DominatorTree &DT,
              const PromotionOptions &Opts, PreheaderVersions &PV)
      : W(W), F(F), DT(DT), Opts(Opts), PV(PV) {}

  PromotionStats takeStats() { return Stats; }

  /// initVRMap (Fig. 4): a copy t = v after every store st [x] = v of the
  /// web, with vrMap[x] = t.
  void initVRMap() {
    for (StoreInst *St : W.StoreRefs) {
      auto Copy = std::make_unique<CopyInst>(St->storedValue(),
                                             F.uniqueValueName("vr"));
      Value *T = St->parent()->insertAfter(St, std::move(Copy));
      VRMap[St->memDefName()] = T;
    }
  }

  /// insertLoadsAtPhiLeaves (Fig. 4): executes the loads-added plan.
  void insertLeafLoads(const std::vector<PlannedOp> &Plan) {
    for (const PlannedOp &Op : Plan) {
      auto Load = std::make_unique<LoadInst>(W.Obj, F.uniqueValueName("lf"));
      Load->addMemOperand(Op.Version);
      BasicBlock *BB = Op.At->parent();
      LoadInst *L =
          static_cast<LoadInst *>(BB->insertBefore(Op.At, std::move(Load)));
      LeafLoads[{Op.Version, BB}] = L;
      ++Stats.LoadsInserted;
    }
  }

  /// materializeStoreValue (Fig. 6): returns a virtual register holding the
  /// value of \p N, creating mirroring register phis as needed. \p N must
  /// be defined by a store of the web or a phi of the web (recursively).
  Value *materialize(MemoryName *N) {
    if (auto It = VRMap.find(N); It != VRMap.end())
      return It->second;
    assert(W.definedByWebPhi(N) &&
           "materialize on a version that is neither store- nor phi-defined");
    auto *MP = cast<MemPhiInst>(N->def());
    // Create the register phi first and publish it so phi cycles terminate.
    auto Phi =
        std::make_unique<PhiInst>(Type::Int, F.uniqueValueName("mat"));
    PhiInst *T =
        static_cast<PhiInst *>(MP->parent()->insertAfter(MP, std::move(Phi)));
    VRMap[N] = T;
    ++Stats.RegisterPhisCreated;
    for (unsigned I = 0, E = MP->numIncoming(); I != E; ++I) {
      MemoryName *Ni = MP->incomingName(I);
      BasicBlock *Li = MP->incomingBlock(I);
      Value *Ti = nullptr;
      if (W.isLeaf(Ni) && !W.definedByWebStore(Ni)) {
        auto It = LeafLoads.find({Ni, Li});
        assert(It != LeafLoads.end() && "missing leaf load");
        Ti = It->second;
      } else {
        Ti = materialize(Ni);
      }
      T->addIncoming(Ti, Li);
    }
    return T;
  }

  /// replaceLoadsByCopies (Fig. 5): every load whose version is defined by
  /// a store or phi of the web becomes a copy of the materialized value.
  void replaceLoadsByCopies() {
    for (LoadInst *Ld : W.LoadRefs) {
      MemoryName *N = Ld->memUse();
      if (!W.definedByWebStore(N) && !W.definedByWebPhi(N))
        continue; // live-in or chi-defined: the load stays
      Value *V = materialize(N);
      auto Copy = std::make_unique<CopyInst>(V, Ld->name());
      Instruction *C = Ld->parent()->insertBefore(Ld, std::move(Copy));
      Ld->replaceAllUsesWith(C);
      Ld->eraseFromParent();
      ++Stats.LoadsReplaced;
    }
  }

  /// Replaces every load of the web by a copy of one preheader load (the
  /// no-definitions fast path of Fig. 4).
  void replaceLoadsFromPreheaderLoad(BasicBlock *Preheader,
                                     MemoryName *LiveIn) {
    auto Load = std::make_unique<LoadInst>(W.Obj, F.uniqueValueName("ph"));
    if (LiveIn)
      Load->addMemOperand(LiveIn);
    // For a loop the load belongs at the end of the preheader; for the
    // whole-function root interval the "preheader" is the entry block and
    // the load must precede every use in it.
    Value *L = W.Iv->isRoot()
                   ? Preheader->insertAfterPhis(std::move(Load))
                   : Preheader->insertBefore(Preheader->terminator(),
                                             std::move(Load));
    ++Stats.LoadsInserted;
    for (LoadInst *Ld : W.LoadRefs) {
      auto Copy = std::make_unique<CopyInst>(L, Ld->name());
      Instruction *C = Ld->parent()->insertBefore(Ld, std::move(Copy));
      Ld->replaceAllUsesWith(C);
      Ld->eraseFromParent();
      ++Stats.LoadsReplaced;
    }
  }

  /// insertStoresForAliasedLoads + insertStoresAtIntervalTails + the
  /// incremental SSA update that deletes the now-dead original stores
  /// (Fig. 4, §4.4).
  void eliminateStores(const std::vector<PlannedOp> &StorePlan) {
    std::vector<MemoryName *> Cloned;

    // Compensating stores on aliased paths. The stored value is the
    // materialised register holding the version (a vrMap copy for
    // store-defined versions; a mirrored register phi for phi-defined
    // ones under DirectAliasedStores).
    for (const PlannedOp &Op : StorePlan) {
      Value *V = materialize(Op.Version);
      auto St = std::make_unique<StoreInst>(W.Obj, V);
      MemoryName *NewVer = F.createMemoryName(W.Obj);
      St->addMemDef(NewVer);
      Op.At->parent()->insertBefore(Op.At, std::move(St));
      Cloned.push_back(NewVer);
      ++Stats.StoresInserted;
    }

    // Stores at interval tails for live-out values. (Function returns are
    // handled by the stores-added set already: returns carry mu-uses of
    // escaping memory and therefore count as aliased loads.)
    bool AnyLiveOut = false;
    for (MemoryName *N : W.DefResources)
      if ((W.definedByWebStore(N) || W.definedByWebPhi(N)) &&
          usedOutsideInterval(N, *W.Iv))
        AnyLiveOut = true;
    if (AnyLiveOut) {
      for (const auto &[Src, Tail] : W.Iv->exitEdges()) {
        MemoryName *V = reachingVersionAtEnd(F, DT, W.Obj, Src);
        if (!W.contains(V))
          continue;
        if (!W.definedByWebStore(V) && !W.definedByWebPhi(V))
          continue; // live-in or chi: memory is already current
        Value *Reg = materialize(V);
        auto St = std::make_unique<StoreInst>(W.Obj, Reg);
        MemoryName *NewVer = F.createMemoryName(W.Obj);
        St->addMemDef(NewVer);
        Tail->insertAfterPhis(std::move(St));
        Cloned.push_back(NewVer);
        ++Stats.StoresInserted;
      }
    }

    // Incremental SSA update for the cloned definitions; its dead-def sweep
    // deletes the original stores (deleteStores of Fig. 4) and any phis
    // that died with them.
    unsigned StoresBefore = countObjectStoresInInterval();
    std::vector<MemoryName *> OldRes(W.Resources.begin(), W.Resources.end());
    updateSSAForClonedResources(F, DT, OldRes, Cloned);
    unsigned StoresAfter = countObjectStoresInInterval();
    Stats.StoresDeleted +=
        StoresBefore > StoresAfter ? StoresBefore - StoresAfter : 0;
    // The update may have destroyed original stores and phis; drop the now
    // dangling reference lists (promotion of this web is complete).
    W.StoreRefs = {};
    W.Phis = {};
  }

  unsigned countObjectStoresInInterval() const {
    unsigned N = 0;
    for (BasicBlock *BB : W.Iv->blocks())
      for (auto &I : *BB)
        if (auto *St = dyn_cast<StoreInst>(I.get()))
          if (St->object() == W.Obj)
            ++N;
    return N;
  }

  /// Adds the dummy aliased load summarising this web for the parent
  /// interval (Fig. 4). Placed at the end of the preheader, reading the
  /// version live there.
  void insertDummyLoad() {
    BasicBlock *PH = W.Iv->preheader();
    if (!PH || W.Iv->isRoot())
      return; // the root has no parent to summarise for
    MemoryName *&Mu = PV.at(*W.Obj);
    if (!Mu)
      Mu = reachingVersionAtEnd(F, DT, W.Obj, PH);
    auto Dummy = std::make_unique<DummyLoadInst>(W.Obj);
    if (Mu)
      Dummy->addMemOperand(Mu);
    PH->insertBefore(PH->terminator(), std::move(Dummy));
    ++Stats.DummyLoadsInserted;
  }
};

} // namespace

MemoryName *&PreheaderVersions::at(const MemoryObject &Obj) {
  if (Obj.id() >= ById.size())
    ById.resize(Obj.id() + 1, nullptr);
  return ById[Obj.id()];
}

WebProfit srp::computeProfit(const SSAWeb &W, const ProfileInfo &PI,
                             const DominatorTree &DT,
                             const PromotionOptions &Opts) {
  WebProfit P;

  if (W.DefResources.empty()) {
    // Read-only web: all loads become copies at the price of one preheader
    // load.
    for (LoadInst *Ld : W.LoadRefs)
      P.LoadBenefit += static_cast<int64_t>(PI.frequency(Ld));
    if (Opts.CountBoundaryOps && !W.LoadRefs.empty() && W.Iv->preheader())
      P.LoadCost += static_cast<int64_t>(PI.frequency(W.Iv->preheader()));
    return P;
  }

  // Loads whose resource is defined by a phi or store of the web become
  // copies.
  for (LoadInst *Ld : W.LoadRefs) {
    MemoryName *N = Ld->memUse();
    if (W.definedByWebStore(N) || W.definedByWebPhi(N))
      P.LoadBenefit += static_cast<int64_t>(PI.frequency(Ld));
  }
  const std::vector<PlannedOp> Loads = planLeafLoads(W);
  P.LoadsAdded = Loads.size();
  for (const PlannedOp &Op : Loads)
    P.LoadCost += static_cast<int64_t>(PI.frequency(Op.At));

  for (StoreInst *St : W.StoreRefs)
    P.StoreBenefit += static_cast<int64_t>(PI.frequency(St));
  const std::vector<PlannedOp> Stores = planCompensatingStores(W, DT, PI, Opts);
  P.StoresAdded = Stores.size();
  for (const PlannedOp &Op : Stores)
    P.StoreCost += static_cast<int64_t>(PI.frequency(Op.At));
  if (Opts.CountBoundaryOps) {
    // Tail stores at interval exits (function returns are already counted
    // through the stores-added set).
    bool AnyLiveOut = false;
    for (MemoryName *N : W.DefResources)
      if ((W.definedByWebStore(N) || W.definedByWebPhi(N)) &&
          usedOutsideInterval(N, *W.Iv))
        AnyLiveOut = true;
    if (AnyLiveOut)
      for (const auto &[Src, Tail] : W.Iv->exitEdges())
        P.StoreCost += static_cast<int64_t>(PI.frequency(Tail));
  }

  P.RemoveStores = Opts.AllowStoreElimination && !W.StoreRefs.empty() &&
                   P.storeProfit() >= 0;
  return P;
}

PromotionStats srp::promoteInWeb(SSAWeb &W, Function &F,
                                 const DominatorTree &DT,
                                 const ProfileInfo &PI,
                                 const PromotionOptions &Opts,
                                 PreheaderVersions &PV) {
  PromotionStats Stats;
  ++Stats.WebsConsidered;
  WebPromoter Promoter(W, F, DT, Opts, PV);

  bool HasWork = !W.LoadRefs.empty() || !W.StoreRefs.empty();
  // A web without loads or stores is never promoted, so its §4.3 profit
  // only feeds the remark: skip it when no sink will print one.
  RemarkEngine *RE = remarks::sink();
  bool Report = RE && RE->wants("promotion");
  WebProfit Profit;
  if (HasWork || Report)
    Profit = computeProfit(W, PI, DT, Opts);
  bool Promote = HasWork && Profit.total() >= Opts.ProfitThreshold;
  // Promoting a web that only has stores and keeps them is a no-op; demand
  // actual load replacement or store elimination.
  if (W.LoadRefs.empty() && !Profit.RemoveStores)
    Promote = false;
  // Webs with several live-in versions (possible around improper interval
  // entries) have no single value to materialise at the preheader; leave
  // them in memory.
  if (W.NumLiveIns > 1)
    Promote = false;

  // One remark per considered web carrying the full §4.3 breakdown, so the
  // decision is reproducible from the report alone. Emitted before the
  // transformation (eliminateStores clears the reference lists).
  if (Report) {
    const char *Why = "NotPromoted";
    if (!HasWork)
      Why = "NoMemoryWork";
    else if (Profit.total() < Opts.ProfitThreshold)
      Why = "UnprofitableWeb";
    else if (W.LoadRefs.empty() && !Profit.RemoveStores)
      Why = "StoresOnlyNotEliminated";
    else if (W.NumLiveIns > 1)
      Why = "MultipleLiveIns";
    RE->record(
        Remark(Promote ? RemarkKind::Passed : RemarkKind::Missed, "promotion",
               Promote ? "PromotedWeb" : Why)
            .inFunction(F.name())
            .inInterval(W.Iv->isRoot() ? "root" : W.Iv->header()->name(),
                        W.Iv->depth())
            .onWeb(W.Obj->name() + "#" + std::to_string(W.Id))
            .arg("loads", W.LoadRefs.size())
            .arg("stores", W.StoreRefs.size())
            .arg("aliased-loads", W.AliasedLoadRefs.size())
            .arg("aliased-stores", W.AliasedStoreRefs.size())
            .arg("phis", W.Phis.size())
            .arg("loads-added", Profit.LoadsAdded)
            .arg("stores-added", Profit.StoresAdded)
            .arg("load-benefit", Profit.LoadBenefit)
            .arg("load-cost", Profit.LoadCost)
            .arg("store-benefit", Profit.StoreBenefit)
            .arg("store-cost", Profit.StoreCost)
            .arg("load-profit", Profit.loadProfit())
            .arg("store-profit", Profit.storeProfit())
            .arg("remove-stores", Profit.RemoveStores)
            .arg("total-profit", Profit.total())
            .arg("threshold", Opts.ProfitThreshold)
            .arg("num-live-ins", W.NumLiveIns));
  }

  if (!Promote) {
    // Not promoted: the parent must still assume the resource's value is
    // needed in memory on entry (Fig. 4's else branch).
    if (W.hasAnyReference())
      Promoter.insertDummyLoad();
    Stats += Promoter.takeStats();
    return Stats;
  }

  ++Stats.WebsPromoted;
  PV.forget(*W.Obj);
  validation::recordPromotedWeb(F.name(), W.Obj->name(),
                                W.Obj->name() + "#" + std::to_string(W.Id),
                                "promotion");
  if (W.DefResources.empty()) {
    Promoter.replaceLoadsFromPreheaderLoad(W.Iv->preheader(), W.LiveIn);
    if (!W.AliasedLoadRefs.empty())
      Promoter.insertDummyLoad();
    Stats += Promoter.takeStats();
    return Stats;
  }

  Promoter.initVRMap();
  Promoter.insertLeafLoads(planLeafLoads(W));
  Promoter.replaceLoadsByCopies();
  if (Profit.RemoveStores) {
    ++Stats.WebsStoreEliminated;
    Promoter.eliminateStores(planCompensatingStores(W, DT, PI, Opts));
  }
  if (!W.AliasedLoadRefs.empty() || !Profit.RemoveStores)
    Promoter.insertDummyLoad();
  Stats += Promoter.takeStats();
  return Stats;
}

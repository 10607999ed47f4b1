//===- promotion/SSAWeb.cpp - Memory SSA webs within an interval ---------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/SSAWeb.h"
#include "analysis/Intervals.h"
#include "ir/Module.h"
#include "support/UnionFind.h"
#include <cassert>

using namespace srp;

/// What the webs of one interval share: the name table, and every list of
/// every web, each web's part contiguous.
struct SSAWeb::Storage {
  static constexpr unsigned NoWeb = ~0u;
  /// One entry per name number below the function's memoryNameBound() at
  /// construction: the name with that number if the interval references
  /// it, and the Id of the web it belongs to (NoWeb for names of
  /// unpromotable objects and of dropped webs).
  struct NameSlot {
    const MemoryName *Name = nullptr;
    unsigned Web = NoWeb;
  };
  std::vector<NameSlot> Names;

  std::vector<MemoryName *> Resources, DefResources;
  std::vector<LoadInst *> LoadRefs;
  std::vector<StoreInst *> StoreRefs;
  std::vector<std::pair<Instruction *, MemoryName *>> AliasedLoadRefs,
      AliasedStoreRefs;
  std::vector<MemPhiInst *> Phis;
};

bool SSAWeb::contains(const MemoryName *N) const {
  const std::vector<Storage::NameSlot> &Slots = Shared->Names;
  const unsigned Num = N->number();
  return Num < Slots.size() && Slots[Num].Name == N && Slots[Num].Web == Id;
}

bool SSAWeb::definedByWebStore(const MemoryName *N) const {
  const Instruction *Def = N->def();
  return Def && isa<StoreInst>(Def) && Iv->contains(Def->parent()) &&
         contains(N);
}

bool SSAWeb::definedByWebPhi(const MemoryName *N) const {
  const Instruction *Def = N->def();
  return Def && isa<MemPhiInst>(Def) && Iv->contains(Def->parent()) &&
         contains(N);
}

namespace {

/// One list of every web, gathered in program order as (web, item) pairs.
/// place() moves the items into the shared storage grouped by web, by a
/// counting sort that keeps each web's items in program order, and points
/// each web's list at its group.
template <typename T> class WebLists {
  std::vector<std::pair<unsigned, T>> Tagged;

public:
  void add(unsigned Web, T Item) { Tagged.emplace_back(Web, Item); }

  void place(std::vector<T> &Out, std::vector<SSAWeb> &Webs,
             std::span<const T> SSAWeb::*List) const {
    std::vector<unsigned> Next(Webs.size() + 1, 0);
    for (const auto &[W, Item] : Tagged)
      ++Next[W + 1];
    for (size_t W = 1; W < Next.size(); ++W)
      Next[W] += Next[W - 1];
    Out.resize(Tagged.size());
    for (size_t W = 0; W != Webs.size(); ++W)
      Webs[W].*List =
          std::span<const T>(Out.data() + Next[W], Next[W + 1] - Next[W]);
    for (const auto &[W, Item] : Tagged)
      Out[Next[W]++] = Item;
  }
};

} // namespace

std::vector<SSAWeb> srp::constructSSAWebs(const Interval &Iv,
                                          const PromotionOptions &Opts) {
  using Storage = SSAWeb::Storage;
  std::vector<SSAWeb> Webs;
  if (Iv.blocks().empty())
    return Webs;
  Function &F = *Iv.blocks().front()->parent();
  auto Shared = std::make_shared<Storage>();
  std::vector<Storage::NameSlot> &Slots = Shared->Names;
  Slots.resize(F.memoryNameBound());

  // First pass: register all names that occur in the interval (as uses or
  // defs), in deterministic program order. Until the webs are known, a
  // name's slot holds its union-find element: its index in Names.
  std::vector<MemoryName *> Names;
  auto indexOf = [&](MemoryName *N) {
    assert(N->number() < Slots.size() && "name of another function");
    Storage::NameSlot &S = Slots[N->number()];
    if (!S.Name) {
      S.Name = N;
      S.Web = static_cast<unsigned>(Names.size());
      Names.push_back(N);
    }
    return S.Web;
  };
  for (BasicBlock *BB : Iv.blocks()) {
    for (auto &I : *BB) {
      for (MemoryName *N : I->memOperands())
        indexOf(N);
      for (MemoryName *N : I->memDefs())
        indexOf(N);
    }
  }

  UnionFind UF(static_cast<unsigned>(Names.size()));

  // Second pass: unite names connected by phi instructions in the interval
  // (paper Fig. 3). With web granularity disabled, unite per object
  // instead (whole-variable promotion, ablation A).
  if (Opts.WebGranularity) {
    for (BasicBlock *BB : Iv.blocks()) {
      for (auto &I : *BB) {
        auto *MP = dyn_cast<MemPhiInst>(I.get());
        if (!MP || !MP->target())
          continue;
        unsigned Rep = indexOf(MP->target());
        for (MemoryName *N : MP->memOperands())
          Rep = UF.unite(Rep, indexOf(N));
      }
    }
  } else {
    std::vector<unsigned> FirstOfObject(F.parent()->numObjectIds(),
                                        Storage::NoWeb);
    for (unsigned I = 0; I != Names.size(); ++I) {
      unsigned &First = FirstOfObject[Names[I]->object()->id()];
      if (First == Storage::NoWeb)
        First = I;
      else
        UF.unite(First, I);
    }
  }

  // Gather webs for promotable objects, one per class in the order of the
  // class's first name; from here on a name's slot holds its web. Sort each
  // name into its web's definitions inside the interval or live-ins.
  WebLists<MemoryName *> Resources, DefResources;
  std::vector<unsigned> WebOfClass(Names.size(), Storage::NoWeb);
  for (MemoryName *N : Names) {
    Storage::NameSlot &S = Slots[N->number()];
    if (!N->object()->isPromotable()) {
      S.Web = Storage::NoWeb;
      continue;
    }
    unsigned &W = WebOfClass[UF.find(S.Web)];
    if (W == Storage::NoWeb) {
      W = static_cast<unsigned>(Webs.size());
      Webs.emplace_back();
      Webs.back().Obj = N->object();
      Webs.back().Iv = &Iv;
    }
    S.Web = W;
    Resources.add(W, N);
    Instruction *Def = N->def();
    if (Def && Iv.contains(Def->parent())) {
      DefResources.add(W, N);
    } else {
      ++Webs[W].NumLiveIns;
      Webs[W].LiveIn = N;
    }
  }
  auto webOf = [&](const MemoryName *N) { return Slots[N->number()].Web; };

  // Third pass: classify the references of each web.
  WebLists<LoadInst *> LoadRefs;
  WebLists<StoreInst *> StoreRefs;
  WebLists<std::pair<Instruction *, MemoryName *>> AliasedLoadRefs,
      AliasedStoreRefs;
  WebLists<MemPhiInst *> Phis;
  for (BasicBlock *BB : Iv.blocks()) {
    for (auto &I : *BB) {
      Instruction *Inst = I.get();
      if (auto *MP = dyn_cast<MemPhiInst>(Inst)) {
        if (MP->target() && MP->object()->isPromotable())
          Phis.add(webOf(MP->target()), MP);
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(Inst)) {
        if (Ld->memUse() && Ld->object()->isPromotable())
          LoadRefs.add(webOf(Ld->memUse()), Ld);
        continue;
      }
      if (auto *St = dyn_cast<StoreInst>(Inst)) {
        if (St->memDefName() && St->object()->isPromotable())
          StoreRefs.add(webOf(St->memDefName()), St);
        continue;
      }
      // Aliased references: mu-uses are aliased loads, chi-defs aliased
      // stores.
      if (Inst->isAliasedLoad()) {
        for (MemoryName *N : Inst->memOperands())
          if (N->object()->isPromotable())
            AliasedLoadRefs.add(webOf(N), {Inst, N});
      }
      if (Inst->isAliasedStore()) {
        for (MemoryName *N : Inst->memDefs())
          if (N->object()->isPromotable())
            AliasedStoreRefs.add(webOf(N), {Inst, N});
      }
    }
  }
  Resources.place(Shared->Resources, Webs, &SSAWeb::Resources);
  DefResources.place(Shared->DefResources, Webs, &SSAWeb::DefResources);
  LoadRefs.place(Shared->LoadRefs, Webs, &SSAWeb::LoadRefs);
  StoreRefs.place(Shared->StoreRefs, Webs, &SSAWeb::StoreRefs);
  AliasedLoadRefs.place(Shared->AliasedLoadRefs, Webs,
                        &SSAWeb::AliasedLoadRefs);
  AliasedStoreRefs.place(Shared->AliasedStoreRefs, Webs,
                         &SSAWeb::AliasedStoreRefs);
  Phis.place(Shared->Phis, Webs, &SSAWeb::Phis);

  // Drop webs that have no references at all (e.g. an object merely passing
  // through a phi chain without loads/stores/aliased refs — nothing to do),
  // and renumber the kept ones in the name table.
  std::vector<unsigned> NewId(Webs.size(), Storage::NoWeb);
  unsigned Kept = 0;
  for (unsigned W = 0; W != Webs.size(); ++W) {
    if (!Webs[W].hasAnyReference() && Webs[W].Phis.empty())
      continue;
    NewId[W] = Kept;
    Webs[W].Id = Kept;
    Webs[W].Shared = Shared;
    if (Kept != W)
      Webs[Kept] = std::move(Webs[W]);
    ++Kept;
  }
  Webs.erase(Webs.begin() + Kept, Webs.end());
  for (MemoryName *N : Names) {
    unsigned &W = Slots[N->number()].Web;
    if (W != Storage::NoWeb)
      W = NewId[W];
  }
  return Webs;
}

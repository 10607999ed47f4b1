//===- analysis/StaticAnalysis.cpp - Layered IR checkers + lints ----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalysis.h"
#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/Statistics.h"
#include <algorithm>
#include <unordered_set>

using namespace srp;

SRP_STATISTIC(NumChecksRun, "static-analysis", "checks-run",
              "checker executions across all runChecks calls");
SRP_STATISTIC(NumCheckDiags, "static-analysis", "diagnostics",
              "diagnostics emitted by the IR checkers");
SRP_STATISTIC(NumLintDiags, "static-analysis", "lints",
              "diagnostics emitted by the source-level lints");

const char *srp::strictnessName(Strictness S) {
  switch (S) {
  case Strictness::Off:
    return "off";
  case Strictness::Fast:
    return "fast";
  case Strictness::Full:
    return "full";
  case Strictness::Semantic:
    return "semantic";
  }
  return "unknown";
}

bool srp::parseStrictness(const std::string &Name, Strictness &S) {
  if (Name == "off")
    S = Strictness::Off;
  else if (Name == "fast")
    S = Strictness::Fast;
  else if (Name == "full")
    S = Strictness::Full;
  else if (Name == "semantic")
    S = Strictness::Semantic;
  else
    return false;
  return true;
}

const char *srp::checkLayerName(CheckLayer L) {
  switch (L) {
  case CheckLayer::L0_CFG:
    return "L0-cfg";
  case CheckLayer::L1_SSA:
    return "L1-ssa";
  case CheckLayer::L2_MemorySSA:
    return "L2-memssa";
  case CheckLayer::L3_Canonical:
    return "L3-canonical";
  case CheckLayer::L4_Promotion:
    return "L4-promotion";
  }
  return "unknown";
}

namespace {

//===----------------------------------------------------------------------===
// L0: CFG structure.
//===----------------------------------------------------------------------===

void checkCfgBlocks(CheckContext &C) {
  if (C.F.empty())
    C.DE.error("cfg-blocks", DiagLocation::inFunction(C.F.name()),
               "function has no blocks");
}

void checkCfgTerminator(CheckContext &C) {
  for (auto &BB : C.F) {
    unsigned Terms = 0;
    for (auto &I : *BB) {
      if (I->isTerminator()) {
        ++Terms;
        if (I.get() != BB->back())
          C.DE.error("cfg-terminator", DiagLocation::of(*I),
                     "terminator not at end of block " + BB->name());
      }
    }
    if (Terms != 1)
      C.DE.error("cfg-terminator", DiagLocation::of(*BB),
                 "block " + BB->name() + " has " + std::to_string(Terms) +
                     " terminators",
                 "end the block with exactly one br/condbr/ret");
  }
}

void checkCfgEntryPreds(CheckContext &C) {
  if (C.F.empty())
    return;
  if (!C.F.entry()->preds().empty())
    C.DE.error("cfg-entry-preds", DiagLocation::of(*C.F.entry()),
               "entry block has predecessors",
               "canonicalisation inserts a virgin entry block; rerun it "
               "after CFG surgery");
}

void checkCfgSuccTargets(CheckContext &C) {
  for (auto &BB : C.F) {
    Instruction *T = BB->terminator();
    if (!T)
      continue; // cfg-terminator reports the missing terminator
    const unsigned NumSuccs = T->numSuccessors();
    bool AnyNull = false;
    for (unsigned K = 0; K != NumSuccs; ++K)
      AnyNull |= T->successor(K) == nullptr;
    // Printing a terminator with a null target would crash, so fall back
    // to a block-granular location in that case. Built only on failure:
    // printing the terminator of every block is most of this check's time.
    auto Loc = [&] {
      return AnyNull ? DiagLocation::of(*BB) : DiagLocation::of(*T);
    };
    if (AnyNull)
      C.DE.error("cfg-succ-targets", Loc(),
                 "terminator of block " + BB->name() + " targets a null block");
    for (unsigned K = 0; K != NumSuccs; ++K)
      if (BasicBlock *S = T->successor(K); S && S->parent() != &C.F)
        C.DE.error("cfg-succ-targets", Loc(),
                   "terminator of block " + BB->name() + " targets block '" +
                       S->name() + "' which is not in the function",
                   "retarget the terminator at a block of this function");
  }
}

/// Number of edges from \p From to \p To (a condbr may target a block
/// twice).
unsigned countEdges(const BasicBlock *From, const BasicBlock *To) {
  unsigned N = 0;
  for (unsigned K = 0, E = From->numSuccs(); K != E; ++K)
    N += From->succ(K) == To;
  return N;
}

void checkCfgPredConsistency(CheckContext &C) {
  // succ -> pred consistency as a multiset: an edge may appear twice if a
  // condbr has identical targets, which canonicalisation removes but raw
  // IR may contain. A block's pred list matches its incoming edges when it
  // has one entry per edge, and every listed block of this function occurs
  // exactly as often as it has edges into the block.
  std::vector<unsigned> InEdges(C.F.blockNumberBound(), 0);
  for (auto &BB : C.F)
    for (unsigned K = 0, E = BB->numSuccs(); K != E; ++K)
      if (BasicBlock *S = BB->succ(K); S && S->parent() == &C.F)
        ++InEdges[S->number()];
  for (auto &BB : C.F) {
    const std::vector<BasicBlock *> &Preds = BB->preds();
    bool Consistent = Preds.size() == InEdges[BB->number()];
    for (size_t K = 0; Consistent && K != Preds.size(); ++K) {
      BasicBlock *P = Preds[K];
      Consistent = P && P->parent() == &C.F &&
                   static_cast<unsigned>(std::count(
                       Preds.begin(), Preds.end(), P)) ==
                       countEdges(P, BB.get());
    }
    if (!Consistent)
      C.DE.error("cfg-pred-consistency", DiagLocation::of(*BB),
                 "pred list of " + BB->name() + " inconsistent with edges",
                 "route CFG surgery through the CFGEdit helpers");
  }
}

//===----------------------------------------------------------------------===
// L1: scalar SSA.
//===----------------------------------------------------------------------===

void checkSsaPhiGrouping(CheckContext &C) {
  for (auto &BB : C.F) {
    bool SeenNonPhi = false;
    for (auto &I : *BB) {
      bool IsPhi = isa<PhiInst>(I.get()) || isa<MemPhiInst>(I.get());
      if (IsPhi && SeenNonPhi)
        C.DE.error("ssa-phi-grouping", DiagLocation::of(*I),
                   "phi after non-phi in " + BB->name(),
                   "keep all (mem)phis at the top of the block");
      if (!IsPhi)
        SeenNonPhi = true;
    }
  }
}

void checkSsaPhiIncoming(CheckContext &C) {
  // Both buffers are reused across blocks and phis; a block's sorted pred
  // list is built on its first phi.
  std::vector<BasicBlock *> Preds, Incoming;
  for (auto &BB : C.F) {
    bool PredsSorted = false;
    for (auto &I : *BB) {
      Incoming.clear();
      if (auto *P = dyn_cast<PhiInst>(I.get())) {
        for (unsigned Idx = 0; Idx != P->numIncoming(); ++Idx)
          Incoming.push_back(P->incomingBlock(Idx));
      } else if (auto *MP = dyn_cast<MemPhiInst>(I.get())) {
        for (unsigned Idx = 0; Idx != MP->numIncoming(); ++Idx)
          Incoming.push_back(MP->incomingBlock(Idx));
        if (!MP->target())
          C.DE.error("ssa-phi-incoming", DiagLocation::of(*I),
                     "memphi without target in " + BB->name());
        else if (MP->target()->def() != I.get())
          C.DE.error("ssa-phi-incoming", DiagLocation::of(*I),
                     "memphi target def link broken in " + BB->name());
      } else {
        continue;
      }
      if (!PredsSorted) {
        Preds.assign(BB->preds().begin(), BB->preds().end());
        std::sort(Preds.begin(), Preds.end());
        PredsSorted = true;
      }
      std::sort(Incoming.begin(), Incoming.end());
      if (Incoming != Preds)
        C.DE.error("ssa-phi-incoming", DiagLocation::of(*I),
                   "phi incoming blocks mismatch preds in " + BB->name(),
                   "add/remove incoming entries to match the predecessor "
                   "list exactly");
    }
  }
}

/// Shared def-dominates-use logic with phi-edge semantics (an incoming
/// value only needs to dominate the end of its incoming block).
void checkDominanceForOperand(CheckContext &C, const char *Id,
                              Instruction *User, Value *V, int PhiIncoming,
                              bool IsMem) {
  Instruction *DefInst = nullptr;
  if (auto *I = dyn_cast<Instruction>(V))
    DefInst = I;
  else if (auto *MN = dyn_cast<MemoryName>(V))
    DefInst = MN->def(); // null for the entry version (always dominates)
  if (!DefInst)
    return; // constants, arguments, undef, entry memory versions

  const DominatorTree &DT = *C.DT;
  if (!DT.contains(DefInst->parent()) || !DT.contains(User->parent()))
    return; // unreachable code is not checked

  if (PhiIncoming >= 0) {
    BasicBlock *In = nullptr;
    if (auto *P = dyn_cast<PhiInst>(User))
      In = P->incomingBlock(static_cast<unsigned>(PhiIncoming));
    else
      In = cast<MemPhiInst>(User)->incomingBlock(
          static_cast<unsigned>(PhiIncoming));
    if (!DT.contains(In))
      return;
    if (!DT.dominates(DefInst->parent(), In))
      C.DE.error(Id, DiagLocation::of(*User),
                 "phi incoming value " + V->referenceString() +
                     " does not dominate edge from " + In->name());
    return;
  }
  if (!DT.dominates(DefInst, User))
    C.DE.error(Id, DiagLocation::of(*User),
               std::string(IsMem ? "memory " : "") + "use of " +
                   V->referenceString() + " in '" + toString(*User) +
                   "' not dominated by its definition");
}

void checkSsaUseDominance(CheckContext &C) {
  for (auto &BB : C.F)
    for (auto &I : *BB) {
      bool IsPhi = isa<PhiInst>(I.get()) || isa<MemPhiInst>(I.get());
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
        checkDominanceForOperand(C, "ssa-use-dominance", I.get(),
                                 I->operand(Idx),
                                 IsPhi ? static_cast<int>(Idx) : -1, false);
    }
}

void checkSsaUseLists(CheckContext &C) {
  for (auto &BB : C.F)
    for (auto &I : *BB)
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        const auto &Uses = I->operand(Idx)->uses();
        Use U{I.get(), Idx, false};
        if (std::find(Uses.begin(), Uses.end(), U) == Uses.end())
          C.DE.error("ssa-use-lists", DiagLocation::of(*I),
                     "operand use not registered: " + toString(*I),
                     "mutate operands through setOperand/addOperand so "
                     "use lists stay in sync");
      }
}

//===----------------------------------------------------------------------===
// L2: memory SSA.
//===----------------------------------------------------------------------===

void checkMemDefLinks(CheckContext &C) {
  for (auto &BB : C.F)
    for (auto &I : *BB)
      for (MemoryName *D : I->memDefs())
        if (D->def() != I.get())
          C.DE.error("mem-def-links", DiagLocation::of(*I),
                     "memory def link broken: " + D->name());
}

void checkMemUseDominance(CheckContext &C) {
  for (auto &BB : C.F)
    for (auto &I : *BB) {
      bool IsPhi = isa<PhiInst>(I.get()) || isa<MemPhiInst>(I.get());
      for (unsigned Idx = 0; Idx != I->numMemOperands(); ++Idx)
        checkDominanceForOperand(C, "mem-use-dominance", I.get(),
                                 I->memOperand(Idx),
                                 IsPhi ? static_cast<int>(Idx) : -1, true);
    }
}

void checkMemUseLists(CheckContext &C) {
  for (auto &BB : C.F)
    for (auto &I : *BB)
      for (unsigned Idx = 0; Idx != I->numMemOperands(); ++Idx) {
        const auto &Uses = I->memOperand(Idx)->uses();
        Use U{I.get(), Idx, true};
        if (std::find(Uses.begin(), Uses.end(), U) == Uses.end())
          C.DE.error("mem-use-lists", DiagLocation::of(*I),
                     "memory operand use not registered: " + toString(*I));
      }
}

void checkMemNameLinks(CheckContext &C) {
  Function &F = C.F;
  // Live entry versions per object, indexed by object id.
  std::vector<unsigned> LiveEntryVersions(F.parent()->numObjectIds(), 0);
  std::vector<const MemoryObject *> Counted; // in first-count order
  for (const auto &N : F.memoryNames()) {
    if (N->isEntryVersion()) {
      bool Registered = F.entryMemoryName(N->object()) == N.get();
      if (!Registered && N->hasUses())
        C.DE.error("mem-name-links", DiagLocation::inFunction(F.name()),
                   "memory version " + N->name() +
                       " has uses but no defining instruction",
                   "define it through a store/chi or register it as the "
                   "entry version");
      if ((Registered || N->hasUses()) &&
          LiveEntryVersions[N->object()->id()]++ == 0)
        Counted.push_back(N->object());
      continue;
    }
    Instruction *D = N->def();
    const auto &Defs = D->memDefs();
    // Built only on failure: DiagLocation::of costs an indexOf plus a
    // printed snippet, and this loop visits every memory name.
    auto Loc = [&] {
      return D->parent() ? DiagLocation::of(*D)
                         : DiagLocation::inFunction(F.name());
    };
    if (std::find(Defs.begin(), Defs.end(), N.get()) == Defs.end())
      C.DE.error("mem-name-links", Loc(),
                 "memory version " + N->name() +
                     " not listed among its defining instruction's defs");
    else if (!D->parent() || D->function() != &F)
      C.DE.error("mem-name-links", Loc(),
                 "memory version " + N->name() +
                     " defined by an instruction outside the function");
  }
  for (const MemoryObject *Obj : Counted)
    if (unsigned Count = LiveEntryVersions[Obj->id()]; Count > 1)
      C.DE.error("mem-name-links", DiagLocation::inFunction(F.name()),
                 "object '" + Obj->name() + "' has " + std::to_string(Count) +
                     " live entry versions (expected at most one)");
}

/// Re-runs the memory-SSA renaming walk (a dominator-tree DFS with a
/// version stack per object, mirroring buildMemorySSA) and checks that
/// every mu-operand and memphi incoming name is exactly the version live
/// at that point: one live version per resource on every path.
void checkMemVersionConsistency(CheckContext &C) {
  Function &F = C.F;
  const DominatorTree &DT = *C.DT;

  // The live version of each object, indexed by object id, and an undo
  // log of the versions the walk shadowed; a frame restores the log down
  // to its entry size when the walk leaves its block.
  std::vector<MemoryName *> Live(F.parent()->numObjectIds(), nullptr);
  std::vector<std::pair<unsigned, MemoryName *>> Shadowed;
  auto Push = [&](const MemoryObject *O, MemoryName *N) {
    Shadowed.push_back({O->id(), Live[O->id()]});
    Live[O->id()] = N;
  };
  for (const auto &N : F.memoryNames())
    if (N->isEntryVersion() && F.entryMemoryName(N->object()) == N.get())
      Live[N->object()->id()] = N.get();

  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
    size_t LogSize = 0;
  };

  auto Enter = [&](Frame &Fr) {
    BasicBlock *BB = Fr.BB;
    Fr.LogSize = Shadowed.size();
    for (auto &I : *BB) {
      if (auto *MP = dyn_cast<MemPhiInst>(I.get())) {
        if (MemoryName *T = MP->target())
          Push(MP->object(), T);
        continue;
      }
      for (MemoryName *U : I->memOperands()) {
        MemoryName *Cur = Live[U->object()->id()];
        if (Cur && U != Cur)
          C.DE.error("mem-version-consistency", DiagLocation::of(*I),
                     "memory use of " + U->name() +
                         " but the live version of '" + U->object()->name() +
                         "' here is " + Cur->name(),
                     "rebuild memory SSA or route the transform through "
                     "the SSA updater");
      }
      for (MemoryName *D : I->memDefs())
        Push(D->object(), D);
    }
    for (unsigned K = 0, E = BB->numSuccs(); K != E; ++K) {
      for (auto &I : *BB->succ(K)) {
        auto *MP = dyn_cast<MemPhiInst>(I.get());
        if (!MP)
          break; // memphis lead the block (ssa-phi-grouping)
        int Idx = MP->indexOfBlock(BB);
        if (Idx < 0)
          continue; // ssa-phi-incoming reports the missing edge
        MemoryName *In = MP->incomingName(static_cast<unsigned>(Idx));
        MemoryName *Cur = Live[MP->object()->id()];
        if (Cur && In != Cur)
          C.DE.error("mem-version-consistency", DiagLocation::of(*MP),
                     "memphi incoming from " + BB->name() + " is " +
                         In->name() + " but the live version of '" +
                         MP->object()->name() + "' there is " + Cur->name(),
                     "rebuild memory SSA or route the transform through "
                     "the SSA updater");
      }
    }
  };

  std::vector<Frame> Walk;
  Walk.push_back({F.entry()});
  Enter(Walk.back());
  while (!Walk.empty()) {
    Frame &TopFr = Walk.back();
    const auto Kids = DT.children(TopFr.BB);
    if (TopFr.NextChild < Kids.size()) {
      Walk.push_back({Kids[TopFr.NextChild++]});
      Enter(Walk.back());
      continue;
    }
    for (size_t K = Shadowed.size(); K != TopFr.LogSize; --K)
      Live[Shadowed[K - 1].first] = Shadowed[K - 1].second;
    Shadowed.resize(TopFr.LogSize);
    Walk.pop_back();
  }
}

void checkMemPhiPlacement(CheckContext &C) {
  // Memory phis per object in the current block, indexed by object id; a
  // count is stale unless its stamp is the block's number plus one.
  std::vector<std::pair<unsigned, unsigned>> PerObject(
      C.F.parent()->numObjectIds(), {0, 0});
  for (auto &BB : C.F) {
    if (!C.DT->contains(BB.get()))
      continue;
    const unsigned Stamp = BB->number() + 1;
    for (auto &I : *BB) {
      auto *MP = dyn_cast<MemPhiInst>(I.get());
      if (!MP)
        continue;
      if (BB->numPreds() < 2)
        C.DE.warning("mem-phi-placement", DiagLocation::of(*MP),
                     "memory phi in block '" + BB->name() + "' with " +
                         std::to_string(BB->numPreds()) +
                         " predecessor(s); join placement expects >= 2",
                     "fold the phi into its single incoming version");
      auto &[Seen, Count] = PerObject[MP->object()->id()];
      if (Seen != Stamp) {
        Seen = Stamp;
        Count = 0;
      }
      if (++Count == 2)
        C.DE.error("mem-phi-placement", DiagLocation::of(*MP),
                   "duplicate memory phi for '" + MP->object()->name() +
                       "' in block '" + BB->name() + "'");
    }
  }
}

/// Local mirror of the alias model in ssa/MemorySSA.cpp (AliasInfo) — the
/// analysis library cannot depend on the ssa library, and an independent
/// recomputation is exactly what a checker wants: if the builder and this
/// mirror ever disagree, mem-alias-tagging fires.
struct AliasSetsMirror {
  std::vector<const MemoryObject *> CallModRef;      // calls mod/ref these
  std::vector<const MemoryObject *> PointerAliases;  // *p may touch these
  std::vector<const MemoryObject *> EscapingAtReturn;

  static AliasSetsMirror compute(Function &F) {
    AliasSetsMirror A;
    Module *M = F.parent();
    for (const auto &G : M->globals()) {
      A.CallModRef.push_back(G.get());
      A.EscapingAtReturn.push_back(G.get());
      if (G->isAddressTaken())
        A.PointerAliases.push_back(G.get());
    }
    for (const auto &L : F.locals()) {
      if (L->isAddressTaken()) {
        A.CallModRef.push_back(L.get());
        A.PointerAliases.push_back(L.get());
      }
    }
    auto ById = [](const MemoryObject *X, const MemoryObject *Y) {
      return X->id() < Y->id();
    };
    std::sort(A.CallModRef.begin(), A.CallModRef.end(), ById);
    std::sort(A.PointerAliases.begin(), A.PointerAliases.end(), ById);
    std::sort(A.EscapingAtReturn.begin(), A.EscapingAtReturn.end(), ById);
    return A;
  }

  /// The objects \p I must carry mu-uses of: one of the sets above, or
  /// \p Buf holding the one object (or none) the operation names.
  const std::vector<const MemoryObject *> &
  useObjects(const Instruction &I,
             std::vector<const MemoryObject *> &Buf) const {
    Buf.clear();
    switch (I.kind()) {
    case Value::Kind::Load:
      return one(static_cast<const LoadInst &>(I).object(), Buf);
    case Value::Kind::DummyLoad:
      return one(static_cast<const DummyLoadInst &>(I).object(), Buf);
    case Value::Kind::ArrayLoad:
      return one(static_cast<const ArrayLoadInst &>(I).object(), Buf);
    case Value::Kind::ArrayStore:
      return one(static_cast<const ArrayStoreInst &>(I).object(), Buf);
    case Value::Kind::PtrLoad:
    case Value::Kind::PtrStore:
      return PointerAliases;
    case Value::Kind::Call:
      return CallModRef;
    case Value::Kind::Ret:
      return EscapingAtReturn;
    default:
      return Buf;
    }
  }

  /// The objects \p I must carry chi-definitions of (as useObjects).
  const std::vector<const MemoryObject *> &
  defObjects(const Instruction &I,
             std::vector<const MemoryObject *> &Buf) const {
    Buf.clear();
    switch (I.kind()) {
    case Value::Kind::Store:
      return one(static_cast<const StoreInst &>(I).object(), Buf);
    case Value::Kind::ArrayStore:
      return one(static_cast<const ArrayStoreInst &>(I).object(), Buf);
    case Value::Kind::PtrStore:
      return PointerAliases;
    case Value::Kind::Call:
      return CallModRef;
    default:
      return Buf;
    }
  }

  static const std::vector<const MemoryObject *> &
  one(const MemoryObject *O, std::vector<const MemoryObject *> &Buf) {
    Buf.push_back(O);
    return Buf;
  }
};

std::string objectSetToString(const std::vector<const MemoryObject *> &Set) {
  std::string Out = "{";
  for (size_t I = 0; I != Set.size(); ++I) {
    if (I == 6) {
      Out += ", ...";
      break;
    }
    if (I)
      Out += ", ";
    Out += Set[I]->name();
  }
  return Out + "}";
}

void checkMemAliasTagging(CheckContext &C) {
  AliasSetsMirror AI = AliasSetsMirror::compute(C.F);
  auto ById = [](const MemoryObject *X, const MemoryObject *Y) {
    return X->id() < Y->id();
  };
  // Reused across instructions.
  std::vector<const MemoryObject *> GotUse, GotDef, UseBuf, DefBuf;
  for (auto &BB : C.F) {
    if (!C.DT->contains(BB.get()))
      continue; // unreachable blocks are never tagged by the builder
    for (auto &I : *BB) {
      if (isa<MemPhiInst>(I.get()))
        continue;
      GotUse.clear();
      GotDef.clear();
      for (MemoryName *N : I->memOperands())
        GotUse.push_back(N->object());
      for (MemoryName *N : I->memDefs())
        GotDef.push_back(N->object());
      std::sort(GotUse.begin(), GotUse.end(), ById);
      std::sort(GotDef.begin(), GotDef.end(), ById);
      const auto &WantUse = AI.useObjects(*I, UseBuf);
      const auto &WantDef = AI.defObjects(*I, DefBuf);
      if (GotUse != WantUse)
        C.DE.error("mem-alias-tagging", DiagLocation::of(*I),
                   "mu-operands do not match the alias use set: expected " +
                       objectSetToString(WantUse) + ", found " +
                       objectSetToString(GotUse),
                   "tag one mu-use per object the operation may read");
      if (GotDef != WantDef)
        C.DE.error("mem-alias-tagging", DiagLocation::of(*I),
                   "chi-definitions do not match the alias def set: "
                   "expected " +
                       objectSetToString(WantDef) + ", found " +
                       objectSetToString(GotDef),
                   "tag one chi-def per object the operation may write");
    }
  }
}

//===----------------------------------------------------------------------===
// L3: canonical CFG shape (preheaders, tails, no critical edges).
//===----------------------------------------------------------------------===

void checkCanonPreheaders(CheckContext &C) {
  IntervalTree &IT = C.AM->get<IntervalTree>(C.F);
  const DominatorTree &DT = *C.DT;
  for (Interval *Iv : IT.postorder()) {
    BasicBlock *H = Iv->header();
    BasicBlock *PH = Iv->preheader();
    if (!PH) {
      C.DE.error("canon-preheaders", DiagLocation::of(*H),
                 "interval headed by '" + H->name() + "' has no preheader",
                 "run CFG canonicalisation (or assignPreheaders) before "
                 "promotion");
      continue;
    }
    if (Iv->isRoot()) {
      if (PH != C.F.entry())
        C.DE.error("canon-preheaders", DiagLocation::of(*PH),
                   "root interval preheader is not the entry block");
      continue;
    }
    for (BasicBlock *E : Iv->entries())
      if (DT.contains(E) && DT.contains(PH) && !DT.dominates(PH, E))
        C.DE.error("canon-preheaders", DiagLocation::of(*PH),
                   "preheader '" + PH->name() +
                       "' does not dominate interval entry '" + E->name() +
                       "'");
    if (Iv->isProper()) {
      // Dedicated preheader: the unique outside predecessor of the header,
      // whose only successor is the header.
      unsigned Outside = 0;
      bool PreheaderIsPred = false;
      for (BasicBlock *P : H->preds())
        if (!Iv->contains(P)) {
          ++Outside;
          PreheaderIsPred |= (P == PH);
        }
      if (Outside != 1 || !PreheaderIsPred)
        C.DE.error("canon-preheaders", DiagLocation::of(*H),
                   "header '" + H->name() +
                       "' does not have its preheader as the unique "
                       "outside predecessor");
      else if (PH->numSuccs() != 1)
        C.DE.error("canon-preheaders", DiagLocation::of(*PH),
                   "preheader '" + PH->name() + "' of interval '" +
                       H->name() + "' has multiple successors");
    }
  }
}

void checkCanonCriticalEdges(CheckContext &C) {
  for (auto &BB : C.F) {
    if (!C.DT->contains(BB.get()))
      continue;
    const unsigned NumSuccs = BB->numSuccs();
    if (NumSuccs < 2)
      continue;
    for (unsigned K = 0; K != NumSuccs; ++K)
      if (BasicBlock *S = BB->succ(K); S->numPreds() > 1)
        C.DE.error("canon-critical-edges", DiagLocation::of(*BB),
                   "critical edge '" + BB->name() + "' -> '" + S->name() +
                       "' after canonicalisation",
                   "split the edge with CFGEdit::splitEdge");
  }
}

void checkCanonExitTails(CheckContext &C) {
  IntervalTree &IT = C.AM->get<IntervalTree>(C.F);
  for (Interval *Iv : IT.postorder()) {
    if (Iv->isRoot())
      continue; // the root's tails are the return instructions
    for (const auto &[From, To] : Iv->exitEdges())
      if (To->numPreds() != 1)
        C.DE.error("canon-exit-tails", DiagLocation::of(*To),
                   "interval exit tail '" + To->name() +
                       "' has multiple predecessors (edge from '" +
                       From->name() + "')",
                   "split the exit edge so the tail is dedicated");
  }
}

//===----------------------------------------------------------------------===
// L4: promotion invariants.
//===----------------------------------------------------------------------===

void checkPromoWebValues(CheckContext &C) {
  auto CheckValue = [&](Instruction *User, Value *V, const char *Role) {
    if (isa<MemoryName>(V))
      C.DE.error("promo-web-values", DiagLocation::of(*User),
                 std::string(Role) + " is a memory SSA name " +
                     V->referenceString() +
                     "; webs must close over register values",
                 "promote through copies of the stored/loaded value, not "
                 "the version name");
    else if (V->type() == Type::Void)
      C.DE.error("promo-web-values", DiagLocation::of(*User),
                 std::string(Role) + " " + V->referenceString() +
                     " has void type");
  };
  for (auto &BB : C.F)
    for (auto &I : *BB) {
      if (auto *P = dyn_cast<PhiInst>(I.get())) {
        if (P->type() == Type::Void)
          C.DE.error("promo-web-values", DiagLocation::of(*P),
                     "register phi has void type");
        for (unsigned Idx = 0; Idx != P->numIncoming(); ++Idx)
          CheckValue(P, P->incomingValue(Idx), "phi incoming value");
      } else if (auto *Cp = dyn_cast<CopyInst>(I.get())) {
        CheckValue(Cp, Cp->source(), "copy source");
      }
    }
}

void checkPromoDummyScope(CheckContext &C) {
  IntervalTree &IT = C.AM->get<IntervalTree>(C.F);
  std::vector<bool> IsPreheader(C.F.blockNumberBound(), false);
  for (Interval *Iv : IT.postorder())
    if (Iv->preheader())
      IsPreheader[Iv->preheader()->number()] = true;
  for (auto &BB : C.F)
    for (auto &I : *BB) {
      auto *DL = dyn_cast<DummyLoadInst>(I.get());
      if (DL && !IsPreheader[BB->number()])
        C.DE.error("promo-dummy-scope", DiagLocation::of(*DL),
                   "dummy load of '" + DL->object()->name() +
                       "' outside any interval preheader",
                   "dummy loads summarise inner-interval requirements and "
                   "belong in preheaders (§4.4)");
    }
}

} // namespace

const std::vector<CheckInfo> &srp::registeredChecks() {
  static const std::vector<CheckInfo> Checks = {
      // Id, layer, min level, needs memSSA, needs canonical, description, fn
      {"cfg-blocks", CheckLayer::L0_CFG, Strictness::Fast, false, false,
       "function has at least one block", checkCfgBlocks},
      {"cfg-terminator", CheckLayer::L0_CFG, Strictness::Fast, false, false,
       "every block ends with exactly one terminator", checkCfgTerminator},
      {"cfg-entry-preds", CheckLayer::L0_CFG, Strictness::Fast, false, false,
       "the entry block has no predecessors", checkCfgEntryPreds},
      {"cfg-succ-targets", CheckLayer::L0_CFG, Strictness::Fast, false, false,
       "terminator targets are blocks of this function", checkCfgSuccTargets},
      {"cfg-pred-consistency", CheckLayer::L0_CFG, Strictness::Fast, false,
       false, "pred lists mirror the terminator edges",
       checkCfgPredConsistency},

      {"ssa-phi-grouping", CheckLayer::L1_SSA, Strictness::Fast, false, false,
       "(mem)phis are grouped at block tops", checkSsaPhiGrouping},
      {"ssa-phi-incoming", CheckLayer::L1_SSA, Strictness::Fast, false, false,
       "phi incoming lists match predecessors; memphi targets link back",
       checkSsaPhiIncoming},
      {"ssa-use-dominance", CheckLayer::L1_SSA, Strictness::Fast, false,
       false, "every register use is dominated by its definition",
       checkSsaUseDominance},
      {"ssa-use-lists", CheckLayer::L1_SSA, Strictness::Fast, false, false,
       "register operands are registered in use lists", checkSsaUseLists},

      {"mem-def-links", CheckLayer::L2_MemorySSA, Strictness::Fast, true,
       false, "memory defs link back to their defining instruction",
       checkMemDefLinks},
      {"mem-use-dominance", CheckLayer::L2_MemorySSA, Strictness::Fast, true,
       false, "every memory use is dominated by its definition",
       checkMemUseDominance},
      {"mem-use-lists", CheckLayer::L2_MemorySSA, Strictness::Fast, true,
       false, "memory operands are registered in use lists",
       checkMemUseLists},
      {"mem-name-links", CheckLayer::L2_MemorySSA, Strictness::Full, true,
       false, "every owned memory version is defined or a live entry version",
       checkMemNameLinks},
      {"mem-version-consistency", CheckLayer::L2_MemorySSA, Strictness::Full,
       true, false,
       "exactly one live version per resource on every path (renaming walk)",
       checkMemVersionConsistency},
      {"mem-phi-placement", CheckLayer::L2_MemorySSA, Strictness::Full, true,
       false, "memory phis sit at joins, one per object per block",
       checkMemPhiPlacement},
      {"mem-alias-tagging", CheckLayer::L2_MemorySSA, Strictness::Full, true,
       false, "mu/chi sets match the alias model on calls and pointer refs",
       checkMemAliasTagging},

      {"canon-preheaders", CheckLayer::L3_Canonical, Strictness::Full, false,
       true, "every interval has a dominating (dedicated) preheader",
       checkCanonPreheaders},
      {"canon-critical-edges", CheckLayer::L3_Canonical, Strictness::Full,
       false, true, "no critical edges after canonicalisation",
       checkCanonCriticalEdges},
      {"canon-exit-tails", CheckLayer::L3_Canonical, Strictness::Full, false,
       true, "interval exit tails have a single predecessor",
       checkCanonExitTails},

      {"promo-web-values", CheckLayer::L4_Promotion, Strictness::Full, false,
       false, "phi/copy webs carry register values only",
       checkPromoWebValues},
      {"promo-dummy-scope", CheckLayer::L4_Promotion, Strictness::Full, false,
       true, "dummy loads appear only in interval preheaders",
       checkPromoDummyScope},
  };
  return Checks;
}

CheckRunStats srp::runChecks(Function &F, DiagnosticEngine &DE,
                             Strictness Level, AnalysisManager *AM) {
  CheckRunStats S;
  if (Level == Strictness::Off)
    return S;

  size_t DiagsBefore = DE.size();
  unsigned ErrorsBefore = DE.errors();
  CheckContext Ctx{F, DE, AM, nullptr, false};
  DominatorTree LocalDT;
  bool GateDone = false, Stop = false;

  for (const CheckInfo &CI : registeredChecks()) {
    if (static_cast<uint8_t>(CI.MinLevel) > static_cast<uint8_t>(Level))
      continue;
    if (CI.Layer != CheckLayer::L0_CFG) {
      if (!GateDone) {
        GateDone = true;
        // Later layers assume a sane CFG: stop on L0 errors (a dominator
        // tree cannot even be computed on a broken CFG).
        if (F.empty() || DE.errors() != ErrorsBefore) {
          Stop = true;
        } else {
          if (AM)
            Ctx.DT = &AM->get<DominatorTree>(F);
          else {
            LocalDT.recompute(F);
            Ctx.DT = &LocalDT;
          }
          Ctx.MemorySSAPresent = !F.memoryNames().empty();
        }
      }
      if (Stop)
        break;
      if (CI.NeedsMemorySSA && !Ctx.MemorySSAPresent)
        continue;
      if (CI.NeedsCanonicalCFG && !(AM && AM->isCanonical(F)))
        continue;
    }
    CI.Run(Ctx);
    ++S.ChecksRun;
  }

  S.Diagnostics = DE.size() - DiagsBefore;
  NumChecksRun += S.ChecksRun;
  NumCheckDiags += S.Diagnostics;
  return S;
}

CheckRunStats srp::runChecks(Module &M, DiagnosticEngine &DE,
                             Strictness Level, AnalysisManager *AM) {
  CheckRunStats S;
  for (const auto &F : M.functions())
    S += runChecks(*F, DE, Level, AM);
  return S;
}

//===----------------------------------------------------------------------===
// Source-level Mini-C lints.
//===----------------------------------------------------------------------===

void srp::runSourceLints(Function &F, AnalysisManager &AM,
                         DiagnosticEngine &DE) {
  if (F.empty())
    return;
  size_t DiagsBefore = DE.size();
  const DominatorTree &DT = AM.get<DominatorTree>(F);

  for (BasicBlock *BB : F.blocks())
    if (!DT.contains(BB))
      DE.warning("lint-unreachable-code", DiagLocation::of(*BB),
                 "block '" + BB->name() + "' is unreachable from the entry",
                 "remove the dead code or fix the branch meant to reach it");

  // The memory-SSA lints read the mu/chi tags; the caller builds memory
  // SSA first (srpc --analyze does it through AM.get<MemorySSAInfo>).
  if (F.memoryNames().empty()) {
    NumLintDiags += DE.size() - DiagsBefore;
    return;
  }

  auto IsLintedLocal = [](const MemoryObject *O) {
    return O->kind() == MemoryObject::Kind::Local;
  };

  // Uninitialised loads: the entry version of a local scalar reaching a
  // load means no store occurs on any path (memory SSA would otherwise
  // interpose a phi or chi); reaching it through phis means some path.
  std::unordered_set<const MemoryName *> Uninit, Maybe;
  for (const auto &N : F.memoryNames())
    if (N->isEntryVersion() && IsLintedLocal(N->object()) &&
        F.entryMemoryName(N->object()) == N.get())
      Uninit.insert(N.get());

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : F.blocks()) {
      if (!DT.contains(BB))
        continue;
      for (auto &I : *BB) {
        auto *MP = dyn_cast<MemPhiInst>(I.get());
        if (!MP)
          break;
        MemoryName *T = MP->target();
        if (!T || Maybe.count(T))
          continue;
        for (unsigned Idx = 0; Idx != MP->numIncoming(); ++Idx) {
          MemoryName *In = MP->incomingName(Idx);
          if (Uninit.count(In) || Maybe.count(In)) {
            Maybe.insert(T);
            Changed = true;
            break;
          }
        }
      }
    }
  }

  for (BasicBlock *BB : F.blocks()) {
    if (!DT.contains(BB))
      continue;
    for (auto &I : *BB) {
      auto *L = dyn_cast<LoadInst>(I.get());
      if (!L || !L->memUse())
        continue;
      MemoryName *N = L->memUse();
      if (Uninit.count(N))
        DE.warning("lint-uninitialized-load", DiagLocation::of(*L),
                   "load of uninitialised local '" + L->object()->name() +
                       "'",
                   "initialise '" + L->object()->name() +
                       "' before this load");
      else if (Maybe.count(N))
        DE.warning("lint-uninitialized-load", DiagLocation::of(*L),
                   "load of local '" + L->object()->name() +
                       "' which may be uninitialised on some paths",
                   "initialise '" + L->object()->name() +
                       "' on every path to this load");
    }
  }

  // Dead stores: a store whose defined version is never transitively read
  // (directly, or through memory phis) before being shadowed or dropped.
  // Returns carry mu-uses of escaping memory, so final stores to
  // observable objects stay live.
  std::unordered_set<const MemoryName *> Live;
  for (BasicBlock *BB : F.blocks()) {
    if (!DT.contains(BB))
      continue;
    for (auto &I : *BB) {
      if (isa<MemPhiInst>(I.get()))
        continue;
      for (MemoryName *U : I->memOperands())
        Live.insert(U);
    }
  }
  Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : F.blocks()) {
      if (!DT.contains(BB))
        continue;
      for (auto &I : *BB) {
        auto *MP = dyn_cast<MemPhiInst>(I.get());
        if (!MP)
          break;
        MemoryName *T = MP->target();
        if (!T || !Live.count(T))
          continue;
        for (unsigned Idx = 0; Idx != MP->numIncoming(); ++Idx)
          if (Live.insert(MP->incomingName(Idx)).second)
            Changed = true;
      }
    }
  }
  for (BasicBlock *BB : F.blocks()) {
    if (!DT.contains(BB))
      continue;
    for (auto &I : *BB) {
      auto *St = dyn_cast<StoreInst>(I.get());
      if (!St || !St->memDefName())
        continue;
      if (!Live.count(St->memDefName()))
        DE.warning("lint-dead-store", DiagLocation::of(*St),
                   "stored value of '" + St->object()->name() +
                       "' is never read",
                   "delete the store or read '" + St->object()->name() +
                       "' before it is overwritten");
    }
  }

  NumLintDiags += DE.size() - DiagsBefore;
}

void srp::runSourceLints(Module &M, AnalysisManager &AM,
                         DiagnosticEngine &DE) {
  for (const auto &F : M.functions())
    runSourceLints(*F, AM, DE);
}

//===----------------------------------------------------------------------===
// L4: promotion accounting cross-check.
//===----------------------------------------------------------------------===

void srp::checkPromotionDelta(const PromotionDeltaExpectation &E,
                              DiagnosticEngine &DE) {
  auto CheckOne = [&](const char *What, unsigned Before, unsigned After,
                      unsigned Removed, unsigned Inserted) {
    long Budget = static_cast<long>(Before) - static_cast<long>(Removed) +
                  static_cast<long>(Inserted);
    std::string Ledger = " (before " + std::to_string(Before) + ", removed " +
                         std::to_string(Removed) + ", inserted " +
                         std::to_string(Inserted) + ")";
    if (static_cast<long>(After) > Budget)
      DE.error("promo-count-delta", DiagLocation{},
               std::string("static ") + What + " count " +
                   std::to_string(After) +
                   " exceeds the promotion ledger's bound " +
                   std::to_string(Budget) + Ledger,
               "the promoter inserted operations it did not account for");
    else if (static_cast<long>(After) < Budget)
      DE.report(Diagnostic{"promo-count-delta", DiagSeverity::Note,
                           DiagLocation{},
                           std::string("static ") + What + " count " +
                               std::to_string(After) +
                               " is below the ledger's bound " +
                               std::to_string(Budget) + Ledger,
                           ""});
  };
  CheckOne("load", E.LoadsBefore, E.LoadsAfter, E.LoadsReplaced,
           E.LoadsInserted);
  CheckOne("store", E.StoresBefore, E.StoresAfter, E.StoresDeleted,
           E.StoresInserted);
}

//===- analysis/CFGCanonicalize.cpp - Promotion-ready CFG shape ----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGCanonicalize.h"
#include "ir/CFGEdit.h"
#include "ir/Function.h"
#include <cassert>

using namespace srp;

namespace {

/// Ensures the entry block has no predecessors (so the root interval's
/// preheader semantics hold and no loop contains the entry). Returns true
/// if the CFG changed.
bool ensureVirginEntry(Function &F) {
  BasicBlock *Entry = F.entry();
  if (Entry->preds().empty())
    return false;
  BasicBlock *NewEntry = F.createBlock("entry");
  F.makeEntry(NewEntry);
  NewEntry->append(std::make_unique<BrInst>(Entry));
  Entry->addPred(NewEntry);
  return true;
}

/// Gives every proper interval a dedicated preheader: a single non-back-edge
/// predecessor of the header whose only successor is the header. Returns
/// true if the CFG changed.
bool insertPreheaders(IntervalTree &IT) {
  bool Changed = false;
  for (Interval *Iv : IT.postorder()) {
    if (Iv->isRoot() || !Iv->isProper())
      continue;
    BasicBlock *Header = Iv->header();
    std::vector<BasicBlock *> Outside;
    for (BasicBlock *P : Header->preds())
      if (!Iv->contains(P))
        Outside.push_back(P);
    if (Outside.size() == 1 &&
        Outside.front()->succs().size() == 1)
      continue; // already canonical
    assert(!Outside.empty() && "proper interval with unreachable header");
    redirectPredsToNewBlock(Header, Outside, "preheader");
    Changed = true;
  }
  return Changed;
}

} // namespace

CanonicalCFG srp::canonicalize(Function &F) {
  ensureVirginEntry(F);

  // Iterate: splitting critical edges and inserting preheaders both add
  // blocks, which shifts dominators and interval membership of the new
  // blocks; a couple of rounds reaches the fixpoint.
  while (true) {
    bool Changed = splitAllCriticalEdges(F) > 0;
    DominatorTree DT(F);
    IntervalTree IT(F, DT);
    Changed |= insertPreheaders(IT);
    if (!Changed)
      break;
  }

  CanonicalCFG Result;
  Result.DT.recompute(F);
  Result.IT.recompute(F, Result.DT);
  Result.IT.assignPreheaders(Result.DT);
  return Result;
}

void srp::canonicalize(Function &F, AnalysisManager &AM) {
  ensureVirginEntry(F);

  while (true) {
    bool Changed = splitAllCriticalEdges(F) > 0;
    // Splits moved the CFG epoch the cached trees were built at; this
    // rebuilds them once per changed round and reuses them on the final
    // quiet one.
    IntervalTree &IT = AM.get<IntervalTree>(F);
    Changed |= insertPreheaders(IT);
    if (!Changed)
      break;
  }

  // The loop exited on a quiet round, so the cached trees match the final
  // CFG; they just predate the canonical flag. Assign preheaders in place
  // (idempotent if a rebuild already did) instead of forcing a rebuild.
  AM.markCanonical(F);
  AM.get<IntervalTree>(F).assignPreheaders(AM.get<DominatorTree>(F));
}

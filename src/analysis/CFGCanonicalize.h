//===- analysis/CFGCanonicalize.h - Promotion-ready CFG shape --*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Puts a function's CFG in the shape the promotion algorithm assumes
/// (§4.1): no interval entry or exit edge is critical, every proper interval
/// has a dedicated preheader block, and the function entry block has no
/// predecessors. Runs to a fixpoint (splitting can change the interval
/// tree only by adding trivial blocks) and returns the final analyses.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_CFGCANONICALIZE_H
#define SRP_ANALYSIS_CFGCANONICALIZE_H

#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/Intervals.h"

namespace srp {

class Function;

/// Result of canonicalisation: fresh dominator tree and interval tree with
/// preheaders assigned.
struct CanonicalCFG {
  DominatorTree DT;
  IntervalTree IT;
};

/// Canonicalises \p F in place. Safe to run before or after memory SSA
/// construction (phi incoming lists are maintained), but the standard
/// pipeline runs it before.
CanonicalCFG canonicalize(Function &F);

/// Cache-aware variant: the fixpoint pulls dominator/interval trees from
/// \p AM (edge splits move F's CFG epoch, which makes them stale, so
/// unchanged rounds reuse the cached trees) and, on return, \p F is
/// marked canonical in the manager — from then on every IntervalTree
/// rebuild assigns promotion preheaders. The cached trees are current
/// when this returns; clients fetch them with AM.get<>().
void canonicalize(Function &F, AnalysisManager &AM);

} // namespace srp

#endif // SRP_ANALYSIS_CFGCANONICALIZE_H

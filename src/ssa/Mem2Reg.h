//===- ssa/Mem2Reg.h - Promote non-aliased locals to SSA -------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic [CFR+91] promotion of non-address-taken local scalars from
/// load/store form into pure SSA register values (phi placement at the IDF
/// of the stores + dominator-tree renaming). This is the front half of the
/// compilation pipeline; the paper's register promoter then works on what
/// remains: globals, struct fields, and address-exposed locals.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_MEM2REG_H
#define SRP_SSA_MEM2REG_H

namespace srp {

class AnalysisManager;
class DominatorTree;
class Function;

/// Promotes every candidate local (non-address-taken scalar owned by \p F)
/// out of memory. Deletes its loads/stores and the object's accesses become
/// SSA values. Returns the number of objects promoted. Must run before
/// memory SSA construction.
unsigned promoteLocalsToSSA(Function &F, const DominatorTree &DT);

/// Cache-aware variant: pulls the dominator tree from \p AM.
unsigned promoteLocalsToSSA(Function &F, AnalysisManager &AM);

} // namespace srp

#endif // SRP_SSA_MEM2REG_H

//===- ssa/MemoryOpt.h - Optimizations on memory SSA -----------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper (§3) puts singleton memory resources in SSA form precisely so
/// that classic SSA optimizations "such as global value numbering and dead
/// code elimination" apply "to memory instructions as well". This module
/// provides those two consumers:
///
///  - redundant load elimination (value numbering on memory versions):
///    a load of a version defined by a store forwards the stored value; a
///    load dominated by another load of the same version reuses it,
///  - dead store elimination: stores whose versions no instruction (other
///    than dead phis) observes are deleted.
///
/// These run independently of register promotion (the promoter has its
/// own profitability-driven machinery); the pipeline exposes them as an
/// optional extra stage.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_MEMORYOPT_H
#define SRP_SSA_MEMORYOPT_H

namespace srp {

class AnalysisManager;
class DominatorTree;
class Function;

struct MemoryOptStats {
  unsigned LoadsForwardedFromStores = 0;
  unsigned LoadsReusedFromLoads = 0;
  unsigned DeadStoresRemoved = 0;

  unsigned total() const {
    return LoadsForwardedFromStores + LoadsReusedFromLoads +
           DeadStoresRemoved;
  }
};

/// Store-to-load forwarding and redundant load elimination over memory
/// SSA. Requires memory SSA to be built; leaves it valid.
MemoryOptStats eliminateRedundantLoads(Function &F, const DominatorTree &DT);

/// Deletes stores whose version has no (transitive, phi-aware) observer.
/// Requires memory SSA; the function's ret-instructions must carry their
/// mu-uses of escaping objects (buildMemorySSA guarantees this), which
/// keeps externally visible stores alive.
MemoryOptStats eliminateDeadStores(Function &F);

/// Convenience: loads then stores, to a fixpoint.
MemoryOptStats optimizeMemorySSA(Function &F, const DominatorTree &DT);

/// Cache-aware variant: ensures memory SSA is built (via the manager) and
/// uses the cached dominator tree.
MemoryOptStats optimizeMemorySSA(Function &F, AnalysisManager &AM);

} // namespace srp

#endif // SRP_SSA_MEMORYOPT_H

//===- ssa/MemorySSA.h - Memory SSA construction ---------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Puts the singleton memory resources of a function in SSA form (§3):
/// every store gets a fresh version of its object, aliased stores (calls,
/// pointer stores, array stores) get chi-definitions of every object in
/// their alias set, aliased loads get mu-uses, loads are tagged with the
/// reaching version, memory phis are placed at the iterated dominance
/// frontier of the definition blocks, and returns carry mu-uses of escaping
/// objects so memory modified before return stays live.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_MEMORYSSA_H
#define SRP_SSA_MEMORYSSA_H

#include "analysis/AnalysisManager.h"
#include <algorithm>
#include <memory>
#include <span>
#include <vector>

namespace srp {

class DominatorTree;
class Function;
class Instruction;
class MemoryObject;

/// The objects one instruction may read or write: a view of one of
/// AliasInfo's sets (valid while the AliasInfo lives), or the single object
/// the instruction names, held inline (iterators point into the view).
class ObjectRefs {
  MemoryObject *One = nullptr;
  std::span<MemoryObject *const> Set;

public:
  ObjectRefs() = default;
  explicit ObjectRefs(MemoryObject *Obj) : One(Obj) {}
  explicit ObjectRefs(const std::vector<MemoryObject *> &Objs) : Set(Objs) {}

  MemoryObject *const *begin() const { return One ? &One : Set.data(); }
  MemoryObject *const *end() const {
    return One ? &One + 1 : Set.data() + Set.size();
  }
  size_t size() const { return One ? 1 : Set.size(); }
  bool empty() const { return size() == 0; }
  bool contains(const MemoryObject *Obj) const {
    return std::find(begin(), end(), Obj) != end();
  }
};

/// Static alias model of a function (deliberately simple, matching the
/// paper's assumptions): calls may use/modify every escaping object;
/// pointer dereferences may touch every address-taken object; array
/// accesses touch only their array.
struct AliasInfo {
  /// Objects a call may read and write: module-scope objects plus
  /// address-taken locals of this function.
  std::vector<MemoryObject *> CallModRef;
  /// Objects a pointer dereference may reference: address-taken objects
  /// (module-scope or local to this function).
  std::vector<MemoryObject *> PointerAliases;
  /// Objects whose final value is observable after return (module-scope).
  std::vector<MemoryObject *> EscapingAtReturn;
  /// Every object the function may touch at all.
  std::vector<MemoryObject *> AllObjects;

  /// Computes the alias model for \p F.
  static AliasInfo compute(Function &F);

  /// Objects instruction \p I may read (mu-set), in deterministic order.
  ObjectRefs useObjects(const Instruction &I) const;
  /// Objects instruction \p I may write (chi-set), in deterministic order.
  ObjectRefs defObjects(const Instruction &I) const;
};

/// Builds memory SSA for \p F in place: creates MemoryName versions,
/// inserts MemPhi instructions, attaches mu/chi operands. Any existing
/// memory SSA is discarded first.
void buildMemorySSA(Function &F, const DominatorTree &DT);
void buildMemorySSA(Function &F, const DominatorTree &DT,
                    const AliasInfo &AI);

/// Cache identity of a function's built memory SSA form. The form itself
/// lives in the IR (MemPhi instructions, mu/chi operands); this object
/// records that it is current and keeps the alias model it was built
/// against, so clients reached through the AnalysisManager share one
/// AliasInfo computation and one in-place build per function.
struct MemorySSAInfo {
  AliasInfo Aliases;
};

template <> struct AnalysisTraits<MemorySSAInfo> {
  static constexpr AnalysisKind Kind = AnalysisKind::MemorySSA;
  static std::unique_ptr<MemorySSAInfo> build(Function &F,
                                              AnalysisManager &AM) {
    auto Info = std::make_unique<MemorySSAInfo>();
    Info->Aliases = AliasInfo::compute(F);
    buildMemorySSA(F, AM.get<DominatorTree>(F), Info->Aliases);
    return Info;
  }
};

} // namespace srp

#endif // SRP_SSA_MEMORYSSA_H

//===- promotion/SSAWeb.h - Memory SSA webs within an interval -*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the paper's SSA webs (§4.2): within one interval, the
/// memory SSA names of a variable are partitioned into equivalence classes
/// of the phi-connectivity relation (union-find, Fig. 3); each class — a
/// web — is the unit of promotion. Alongside the partition we collect the
/// per-web reference sets the promoter consumes: loads, stores, aliased
/// loads/stores, phis, the live-in resource, and definitions.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PROMOTION_SSAWEB_H
#define SRP_PROMOTION_SSAWEB_H

#include "promotion/PromotionOptions.h"
#include <memory>
#include <span>
#include <vector>

namespace srp {

class BasicBlock;
class Instruction;
class Interval;
class LoadInst;
class MemoryName;
class MemoryObject;
class MemPhiInst;
class StoreInst;

/// One SSA web: reference sets of an equivalence class of memory names
/// within an interval. The lists view storage shared by the webs of one
/// interval, each web's part in program order.
struct SSAWeb {
  /// The interval's name table and the webs' lists (defined in SSAWeb.cpp).
  struct Storage;

  MemoryObject *Obj = nullptr;
  const Interval *Iv = nullptr;
  /// Position in construction order within the interval; with the object
  /// name this labels the web ("<object>#<id>") in remarks.
  unsigned Id = 0;

  /// webResources: the names of the equivalence class.
  std::span<MemoryName *const> Resources;
  /// Names of the web defined inside the interval (stores, chi, phis).
  std::span<MemoryName *const> DefResources;
  /// The unique resource defined in an ancestor interval, if any. Webs with
  /// several live-ins (possible only for improper intervals) are not
  /// promoted.
  MemoryName *LiveIn = nullptr;
  unsigned NumLiveIns = 0;

  /// Singleton loads/stores of the web in the interval.
  std::span<LoadInst *const> LoadRefs;
  std::span<StoreInst *const> StoreRefs;
  /// Aliased references: (instruction, the web version it uses/defines).
  /// Aliased loads are calls, pointer loads, dummy loads, and returns;
  /// aliased stores are calls and pointer stores.
  std::span<const std::pair<Instruction *, MemoryName *>> AliasedLoadRefs;
  std::span<const std::pair<Instruction *, MemoryName *>> AliasedStoreRefs;
  /// Memory phis of the web inside the interval.
  std::span<MemPhiInst *const> Phis;

  /// Keeps the lists above and the interval's name table alive.
  std::shared_ptr<const Storage> Shared;

  /// True if \p N is one of Resources. Answered from N's number through the
  /// interval's name table, which covers the numbers below the function's
  /// memoryNameBound() at construction: false for a name created after
  /// construction and for a name of another function.
  bool contains(const MemoryName *N) const;

  bool hasAnyReference() const {
    return !LoadRefs.empty() || !StoreRefs.empty() ||
           !AliasedLoadRefs.empty() || !AliasedStoreRefs.empty();
  }

  /// True if \p N is defined by a singleton store belonging to this web.
  bool definedByWebStore(const MemoryName *N) const;
  /// True if \p N is defined by a memory phi belonging to this web (i.e.
  /// inside the interval).
  bool definedByWebPhi(const MemoryName *N) const;
  /// A leaf in the paper's sense: not defined by a phi of this web.
  bool isLeaf(const MemoryName *N) const { return !definedByWebPhi(N); }
};

/// constructSSAWebs (paper Fig. 3): partitions the memory names referenced
/// in \p Iv into webs and gathers their reference sets. Only webs of
/// promotable objects are returned, in the program order of their first
/// name. With \p Opts.WebGranularity off, all names of one object in the
/// interval fall into a single web (ablation).
std::vector<SSAWeb> constructSSAWebs(const Interval &Iv,
                                     const PromotionOptions &Opts);

} // namespace srp

#endif // SRP_PROMOTION_SSAWEB_H

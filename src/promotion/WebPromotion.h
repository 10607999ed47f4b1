//===- promotion/WebPromotion.h - Promotion of one SSA web -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// promoteInWeb (paper §4.3-§4.4, Fig. 4-6): profitability analysis based
/// on the web's phi structure (loads-added / stores-added), then the
/// transformation: value copies after stores (vrMap), loads at phi leaves,
/// load-to-copy replacement through materializeStoreValue, optional store
/// elimination with compensating stores before aliased loads and at
/// interval tails, incremental SSA update, and dummy-aliased-load
/// summarisation for the parent interval.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PROMOTION_WEBPROMOTION_H
#define SRP_PROMOTION_WEBPROMOTION_H

#include "promotion/PromotionOptions.h"
#include "promotion/SSAWeb.h"
#include <cstdint>
#include <vector>

namespace srp {

class DominatorTree;
class Function;
class ProfileInfo;

/// The profitability breakdown of one web (all values in profile frequency
/// units).
struct WebProfit {
  int64_t LoadBenefit = 0;  ///< freq of loads that become copies
  int64_t LoadCost = 0;     ///< freq of loads added at phi leaves (+preheader)
  int64_t StoreBenefit = 0; ///< freq of stores deleted
  int64_t StoreCost = 0;    ///< freq of stores added (+ interval tails)
  size_t LoadsAdded = 0;    ///< size of the loads-added plan
  size_t StoresAdded = 0;   ///< size of the stores-added plan
  bool RemoveStores = false;

  int64_t loadProfit() const { return LoadBenefit - LoadCost; }
  int64_t storeProfit() const { return StoreBenefit - StoreCost; }
  int64_t total() const {
    return loadProfit() + (RemoveStores ? storeProfit() : 0);
  }
};

/// Computes the profit of promoting \p W (paper §4.3). Pure analysis.
WebProfit computeProfit(const SSAWeb &W, const ProfileInfo &PI,
                        const DominatorTree &DT,
                        const PromotionOptions &Opts);

/// The version of each object live at the end of one interval's preheader,
/// kept for the dummy loads (Fig. 4) of the interval's webs: an interval
/// with calls has a web per object between each pair of calls. Promoting a
/// web edits the definitions of its own object only, so promoteInWeb
/// forgets just that object. One instance serves the webs of one interval.
class PreheaderVersions {
  /// Indexed by MemoryObject::id(); null until looked up.
  std::vector<MemoryName *> ById;

public:
  MemoryName *&at(const MemoryObject &Obj);
  void forget(const MemoryObject &Obj) { at(Obj) = nullptr; }
};

/// promoteInWeb (paper Fig. 4). Transforms the function when profitable;
/// always leaves valid SSA. Adds the dummy aliased load summarising the web
/// for the parent interval when required, reading its version from \p PV,
/// which the webs of W's interval share. Returns what happened.
PromotionStats promoteInWeb(SSAWeb &W, Function &F, const DominatorTree &DT,
                            const ProfileInfo &PI,
                            const PromotionOptions &Opts,
                            PreheaderVersions &PV);

} // namespace srp

#endif // SRP_PROMOTION_WEBPROMOTION_H

//===- promotion/RegisterPromotion.cpp - Interval-based promoter ---------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "promotion/RegisterPromotion.h"
#include "analysis/AnalysisManager.h"
#include "analysis/Intervals.h"
#include "ir/Function.h"
#include "promotion/Cleanup.h"
#include "promotion/SSAWeb.h"
#include "promotion/WebPromotion.h"
#include "support/Remarks.h"
#include "support/Statistics.h"

using namespace srp;

namespace {
SRP_STATISTIC(NumWebsConsidered, "promotion", "webs-considered",
              "SSA webs examined for profitability");
SRP_STATISTIC(NumWebsPromoted, "promotion", "webs-promoted",
              "SSA webs moved into registers");
SRP_STATISTIC(NumLoadsDeleted, "promotion", "loads-deleted",
              "Singleton loads replaced by register reads");
SRP_STATISTIC(NumLoadsInserted, "promotion", "loads-inserted",
              "Boundary/compensation loads inserted");
SRP_STATISTIC(NumStoresDeleted, "promotion", "stores-deleted",
              "Singleton stores eliminated");
SRP_STATISTIC(NumStoresInserted, "promotion", "stores-inserted",
              "Compensating stores inserted");
SRP_STATISTIC(NumRegPhis, "promotion", "reg-phis-created",
              "Register phis created for promoted values");
} // namespace

PromotionStats srp::promoteRegisters(Function &F, const DominatorTree &DT,
                                     const IntervalTree &IT,
                                     const ProfileInfo &PI,
                                     const PromotionOptions &Opts) {
  PromotionStats Stats;

  // promoteInInterval (Fig. 2): children first (postorder), then the webs
  // of the current interval. Promotion in an inner interval leaves its
  // boundary loads/stores and dummy aliased loads in the parent interval,
  // where the next iteration picks them up.
  for (Interval *Iv : IT.postorder()) {
    auto Webs = constructSSAWebs(*Iv, Opts);
    if (RemarkEngine *RE = remarks::sink())
      RE->record(
          Remark(RemarkKind::Analysis, "promotion", "IntervalWebs")
              .inFunction(F.name())
              .inInterval(Iv->isRoot() ? "root" : Iv->header()->name(),
                          Iv->depth())
              .arg("webs", Webs.size())
              .arg("blocks", Iv->blocks().size()));
    PreheaderVersions PV;
    for (SSAWeb &W : Webs)
      Stats += promoteInWeb(W, F, DT, PI, Opts, PV);
  }

  cleanupAfterPromotion(F);

  NumWebsConsidered += Stats.WebsConsidered;
  NumWebsPromoted += Stats.WebsPromoted;
  NumLoadsDeleted += Stats.LoadsReplaced;
  NumLoadsInserted += Stats.LoadsInserted;
  NumStoresDeleted += Stats.StoresDeleted;
  NumStoresInserted += Stats.StoresInserted;
  NumRegPhis += Stats.RegisterPhisCreated;
  return Stats;
}

PromotionStats srp::promoteRegisters(Function &F, const ProfileInfo &PI,
                                     AnalysisManager &AM,
                                     const PromotionOptions &Opts) {
  // The pass changes no CFG edges, so the cached trees stay valid across
  // it; the in-place SSA edits it performs are reported by the updater.
  const DominatorTree &DT = AM.get<DominatorTree>(F);
  const IntervalTree &IT = AM.get<IntervalTree>(F);
  return promoteRegisters(F, DT, IT, PI, Opts);
}

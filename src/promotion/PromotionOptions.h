//===- promotion/PromotionOptions.h - Promoter configuration ---*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunables of the register promoter. Defaults reproduce the paper's
/// algorithm; the flags exist for the ablation benchmarks (web granularity,
/// boundary-cost accounting, store elimination).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PROMOTION_PROMOTIONOPTIONS_H
#define SRP_PROMOTION_PROMOTIONOPTIONS_H

#include <cstdint>

namespace srp {

struct PromotionOptions {
  /// Charge interval-boundary operations (preheader load, tail stores) in
  /// the profitability computation. The paper's formula (§4.3) only counts
  /// loads-added/stores-added; boundary accounting is a strictly safer
  /// tightening and is on by default. Turning it off restores the paper's
  /// exact formula.
  bool CountBoundaryOps = true;

  /// Promote per SSA web (§4.2, the paper's contribution). When false, all
  /// webs of a variable within an interval are merged into one unit,
  /// emulating promoters that treat the variable as a whole (ablation A).
  bool WebGranularity = true;

  /// Allow eliminating stores by placing compensating stores on aliased
  /// paths and interval exits (§4.4). When false, variables stay in memory
  /// and in a register simultaneously and only loads are eliminated.
  bool AllowStoreElimination = true;

  /// Minimum profit (in profile frequency units) required to promote.
  int64_t ProfitThreshold = 0;

  /// Beyond-the-paper improvement: when a compensating store is needed for
  /// an aliased load that reads a phi-defined version, §4.3's stores-added
  /// rule places stores at the phi's incoming edges — which may sit on hot
  /// paths (e.g. a loop latch) even when the aliased load itself is cold.
  /// With this flag the promoter also considers storing the materialised
  /// phi value directly before the aliased load and picks whichever
  /// placement is cheaper under the profile. Off by default (paper
  /// fidelity).
  bool DirectAliasedStores = false;
};

/// What a promotion run did; aggregated across intervals and functions.
struct PromotionStats {
  unsigned WebsConsidered = 0;
  unsigned WebsPromoted = 0;
  unsigned WebsStoreEliminated = 0;
  unsigned LoadsReplaced = 0;
  unsigned LoadsInserted = 0;
  unsigned StoresInserted = 0;
  unsigned StoresDeleted = 0;
  unsigned DummyLoadsInserted = 0;
  unsigned RegisterPhisCreated = 0;

  PromotionStats &operator+=(const PromotionStats &R) {
    WebsConsidered += R.WebsConsidered;
    WebsPromoted += R.WebsPromoted;
    WebsStoreEliminated += R.WebsStoreEliminated;
    LoadsReplaced += R.LoadsReplaced;
    LoadsInserted += R.LoadsInserted;
    StoresInserted += R.StoresInserted;
    StoresDeleted += R.StoresDeleted;
    DummyLoadsInserted += R.DummyLoadsInserted;
    RegisterPhisCreated += R.RegisterPhisCreated;
    return *this;
  }
  bool operator==(const PromotionStats &) const = default;
};

} // namespace srp

#endif // SRP_PROMOTION_PROMOTIONOPTIONS_H

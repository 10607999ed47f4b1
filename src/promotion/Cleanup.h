//===- promotion/Cleanup.h - Post-promotion cleanup ------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cleanup() step of the promotion driver: removes dummy aliased loads,
/// forwards the copies introduced by load replacement (copy propagation),
/// deletes trivially dead instructions, and sweeps memory phis whose
/// targets have no remaining uses.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PROMOTION_CLEANUP_H
#define SRP_PROMOTION_CLEANUP_H

namespace srp {

class AnalysisManager;
class Function;

struct CleanupStats {
  unsigned DummyLoadsRemoved = 0;
  unsigned CopiesPropagated = 0;
  unsigned DeadInstructionsRemoved = 0;
  unsigned DeadMemPhisRemoved = 0;
};

/// Removes every DummyLoadInst in \p F.
unsigned removeDummyLoads(Function &F);

/// Forwards copy sources into users and erases the copies.
unsigned propagateCopies(Function &F);

/// Deletes unused side-effect-free instructions until a fixpoint.
unsigned removeDeadInstructions(Function &F);

/// Deletes memory phis whose target version has no uses (cascading).
unsigned removeDeadMemPhis(Function &F);

/// Runs all of the above in order.
CleanupStats cleanupAfterPromotion(Function &F);

/// The pipeline's spelling of the same cleanup; it consumes no analyses,
/// and its edits move F's epochs like any other.
CleanupStats cleanupAfterPromotion(Function &F, AnalysisManager &AM);

} // namespace srp

#endif // SRP_PROMOTION_CLEANUP_H

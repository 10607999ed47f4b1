//===- ir/CFGEdit.h - CFG editing utilities --------------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge-level CFG surgery that keeps predecessor lists and (memory) phi
/// incoming lists consistent: edge splitting (for critical edges and
/// interval tails) and preheader insertion.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_CFGEDIT_H
#define SRP_IR_CFGEDIT_H

#include <vector>

namespace srp {

class BasicBlock;
class Function;

/// True if From->To has multiple successors at the source and multiple
/// predecessors at the target (§4.1's critical edge definition).
bool isCriticalEdge(const BasicBlock *From, const BasicBlock *To);

/// Inserts a new block on the edge From->To and returns it. Phi and memory
/// phi incoming blocks in \p To are redirected to the new block. The new
/// block ends in an unconditional branch to \p To.
BasicBlock *splitEdge(BasicBlock *From, BasicBlock *To);

/// Splits every critical edge in \p F. Returns the number of edges split.
unsigned splitAllCriticalEdges(Function &F);

/// Redirects the subset \p Preds of To's predecessors to a fresh block that
/// falls through to \p To (used to create loop preheaders). Returns the new
/// block. Phis in \p To are updated: incoming entries from the redirected
/// predecessors are merged into a single entry whose value is a new phi in
/// the new block (or the single value when all agree).
BasicBlock *redirectPredsToNewBlock(BasicBlock *To,
                                    const std::vector<BasicBlock *> &Preds,
                                    const char *NameHint);

} // namespace srp

#endif // SRP_IR_CFGEDIT_H

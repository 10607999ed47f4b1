//===- analysis/Dominators.h - Dominator tree and frontiers ----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm), dominance
/// frontiers [CFR+91], and iterated dominance frontiers for multi-definition
/// phi placement (the role [SrG95] plays in the paper: one IDF computation
/// for a whole set of definition blocks, §4.5).
///
/// Per-block data lives in vectors indexed by BasicBlock::number(). A block
/// is in the tree when the build reached it from the entry; a null block, a
/// block of another function and a block created after the build are not,
/// and every query treats them as absent.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_DOMINATORS_H
#define SRP_ANALYSIS_DOMINATORS_H

#include "ir/BasicBlock.h"
#include <span>
#include <vector>

namespace srp {

class Function;

class DominatorTree {
  /// One entry per block number of the function at build time.
  struct Node {
    BasicBlock *BB = nullptr; ///< Null unless the block is reachable.
    BasicBlock *IDom = nullptr;
    unsigned RPONum = 0;
    // Preorder in/out numbering of the dominator tree for O(1) dominance
    // queries.
    unsigned DfsIn = 0, DfsOut = 0;
    unsigned ChildBegin = 0, ChildEnd = 0;       ///< Range in ChildList.
    unsigned FrontierBegin = 0, FrontierEnd = 0; ///< Range in FrontierList.
  };

  Function *F = nullptr;
  std::vector<BasicBlock *> RPO; ///< Blocks in reverse postorder.
  std::vector<Node> Nodes;       ///< Indexed by BasicBlock::number().
  /// Children and frontiers of all blocks, each block's run in RPO order.
  std::vector<BasicBlock *> ChildList, FrontierList;

  /// The block's node, or null when the block is not in the tree.
  const Node *find(const BasicBlock *BB) const {
    if (!BB || BB->number() >= Nodes.size())
      return nullptr;
    const Node &N = Nodes[BB->number()];
    return N.BB == BB ? &N : nullptr;
  }
  const Node &at(const BasicBlock *BB) const {
    const Node *N = find(BB);
    assert(N && "block not in dominator tree");
    return *N;
  }

  void computeRPO();
  void computeIDoms();
  void computeTreeNumbers();
  void computeFrontiers();

public:
  DominatorTree() = default;
  explicit DominatorTree(Function &Fn) { recompute(Fn); }

  /// (Re)builds all structures for \p Fn. Unreachable blocks are excluded;
  /// contains() reports reachability.
  void recompute(Function &Fn);

  Function *function() const { return F; }

  bool contains(const BasicBlock *BB) const { return find(BB) != nullptr; }

  /// Immediate dominator; null for the entry block.
  BasicBlock *idom(const BasicBlock *BB) const { return at(BB).IDom; }

  /// Dominator-tree children of \p BB in RPO order; empty for a block not
  /// in the tree. The span views the tree's storage: it lives until the
  /// tree is rebuilt or destroyed.
  std::span<BasicBlock *const> children(const BasicBlock *BB) const;

  /// True if \p A dominates \p B (reflexive).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    const Node &NA = at(A), &NB = at(B);
    return NA.DfsIn <= NB.DfsIn && NB.DfsOut <= NA.DfsOut;
  }
  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Instruction-level dominance: true if \p A's definition is available at
  /// \p B (same block: A strictly precedes B; else block dominance).
  bool dominates(const Instruction *A, const Instruction *B) const {
    const BasicBlock *ABB = A->parent(), *BBB = B->parent();
    if (ABB == BBB)
      return ABB->comesBefore(A, B);
    return strictlyDominates(ABB, BBB);
  }

  /// Nearest common dominator of \p A and \p B.
  BasicBlock *commonDominator(BasicBlock *A, BasicBlock *B) const;

  /// Dominance frontier of \p BB in RPO order; empty for a block not in
  /// the tree. Lives as long as children()'s span.
  std::span<BasicBlock *const> frontier(const BasicBlock *BB) const;

  /// Iterated dominance frontier of a set of blocks; the phi-placement set
  /// for definitions occurring in \p Defs. Deterministic order (RPO).
  std::vector<BasicBlock *>
  iteratedFrontier(const std::vector<BasicBlock *> &Defs) const;

  /// Blocks in reverse postorder (deterministic iteration order for passes).
  const std::vector<BasicBlock *> &rpo() const { return RPO; }
  unsigned rpoNumber(const BasicBlock *BB) const { return at(BB).RPONum; }
};

} // namespace srp

#endif // SRP_ANALYSIS_DOMINATORS_H

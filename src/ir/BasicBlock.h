//===- ir/BasicBlock.h - Basic block ---------------------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-entry single-exit sequence of instructions ending in exactly one
/// terminator. Successors derive from the terminator; predecessor lists are
/// maintained by the CFG editing utilities (ir/CFGEdit.h). Every mutator
/// here moves the parent function's edit epochs (ir/Function.h).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_BASICBLOCK_H
#define SRP_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <list>
#include <memory>

namespace srp {

class Function;

class BasicBlock {
  friend class Function;

  std::string Name;
  Function *Parent = nullptr;
  std::list<std::unique_ptr<Instruction>> Insts;
  std::vector<BasicBlock *> Preds;

  /// Lazy intra-block ordering cache: Order[i] is valid while OrderEpoch
  /// matches the instruction's cached epoch. Rebuilt on demand after
  /// insertions.
  mutable std::vector<const Instruction *> OrderSnapshot;
  mutable bool OrderValid = false;

  /// Bookkeeping for an insertion or removal of \p I: drops the ordering
  /// cache and moves the parent's epochs.
  void noteInsertOrRemove(const Instruction *I);
  void noteCFGEdit();

public:
  using iterator = std::list<std::unique_ptr<Instruction>>::iterator;
  using const_iterator = std::list<std::unique_ptr<Instruction>>::const_iterator;

  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  Function *parent() const { return Parent; }

  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }
  const_iterator begin() const { return Insts.begin(); }
  const_iterator end() const { return Insts.end(); }
  bool empty() const { return Insts.empty(); }
  unsigned size() const { return static_cast<unsigned>(Insts.size()); }

  Instruction *front() const { return Insts.front().get(); }
  Instruction *back() const { return Insts.back().get(); }

  /// The block terminator, or null if the block is not yet terminated.
  Instruction *terminator() const {
    return !Insts.empty() && Insts.back()->isTerminator() ? back() : nullptr;
  }

  //===--------------------------------------------------------------------===
  // Instruction list mutation. All take ownership of \p I.
  //===--------------------------------------------------------------------===

  Instruction *append(std::unique_ptr<Instruction> I);
  Instruction *insertBefore(Instruction *Pos, std::unique_ptr<Instruction> I);
  Instruction *insertAfter(Instruction *Pos, std::unique_ptr<Instruction> I);
  /// Inserts at the start of the block.
  Instruction *prepend(std::unique_ptr<Instruction> I);
  /// Inserts immediately before the terminator (which must exist).
  Instruction *insertBeforeTerminator(std::unique_ptr<Instruction> I);
  /// Inserts after the (leading) phi and memory-phi instructions.
  Instruction *insertAfterPhis(std::unique_ptr<Instruction> I);

  std::unique_ptr<Instruction> remove(Instruction *I);
  void erase(Instruction *I);

  /// Intra-block ordering: true if \p A appears strictly before \p B. Both
  /// must belong to this block. Amortised O(1) via a lazily rebuilt
  /// position snapshot.
  bool comesBefore(const Instruction *A, const Instruction *B) const;
  /// Index of \p I within this block (for ordering and diagnostics).
  unsigned indexOf(const Instruction *I) const;

  //===--------------------------------------------------------------------===
  // CFG.
  //===--------------------------------------------------------------------===

  const std::vector<BasicBlock *> &preds() const { return Preds; }
  std::vector<BasicBlock *> succs() const {
    Instruction *T = terminator();
    return T ? T->successors() : std::vector<BasicBlock *>();
  }
  unsigned numPreds() const { return static_cast<unsigned>(Preds.size()); }

  /// Predecessor list maintenance; used by CFG edit utilities only.
  void addPred(BasicBlock *BB);
  void removePred(BasicBlock *BB);
  void replacePred(BasicBlock *Old, BasicBlock *New);

  /// Recomputes phi/memphi incoming lists and Preds invariants after edge
  /// edits is the caller's job; this only invalidates the ordering cache.
  void invalidateOrder() { OrderValid = false; }
};

} // namespace srp

#endif // SRP_IR_BASICBLOCK_H

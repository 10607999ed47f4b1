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
  /// Dense per-function number, fixed when the parent creates the block.
  unsigned Number = 0;
  std::list<std::unique_ptr<Instruction>> Insts;
  std::vector<BasicBlock *> Preds;

  /// True while every instruction's cached OrderIndex is its list position.
  /// Appending and removing the last instruction keep it; other insertions
  /// and removals clear it, and the next order query renumbers the block.
  mutable bool OrderValid = true;

  /// Bookkeeping for an insertion or removal of \p I: moves the parent's
  /// epochs.
  void noteInsertOrRemove(const Instruction *I);
  void noteCFGEdit();
  /// Caches every instruction's list position and sets OrderValid.
  void renumber() const;

public:
  using iterator = std::list<std::unique_ptr<Instruction>>::iterator;
  using const_iterator = std::list<std::unique_ptr<Instruction>>::const_iterator;

  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  Function *parent() const { return Parent; }
  /// Dense number within the parent function, below
  /// Function::blockNumberBound(). Never reused, so it also tells blocks
  /// created after an analysis was built from the ones it saw.
  unsigned number() const { return Number; }

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
  /// must belong to this block. O(1) between edits; the first query after
  /// an insertion or removal renumbers the block.
  bool comesBefore(const Instruction *A, const Instruction *B) const {
    return indexOf(A) < indexOf(B);
  }
  /// Index of \p I within this block (for ordering and diagnostics).
  unsigned indexOf(const Instruction *I) const {
    assert(I->parent() == this && "instruction not in this block");
    if (!OrderValid)
      renumber();
    return I->OrderIndex;
  }

  //===--------------------------------------------------------------------===
  // CFG.
  //===--------------------------------------------------------------------===

  const std::vector<BasicBlock *> &preds() const { return Preds; }
  std::vector<BasicBlock *> succs() const {
    Instruction *T = terminator();
    return T ? T->successors() : std::vector<BasicBlock *>();
  }
  /// Allocation-free counterparts of succs().
  unsigned numSuccs() const {
    Instruction *T = terminator();
    return T ? T->numSuccessors() : 0;
  }
  BasicBlock *succ(unsigned I) const { return terminator()->successor(I); }
  unsigned numPreds() const { return static_cast<unsigned>(Preds.size()); }

  /// Predecessor list maintenance; used by CFG edit utilities only.
  void addPred(BasicBlock *BB);
  void removePred(BasicBlock *BB);
  void replacePred(BasicBlock *Old, BasicBlock *New);
};

} // namespace srp

#endif // SRP_IR_BASICBLOCK_H

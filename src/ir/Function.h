//===- ir/Function.h - Function --------------------------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Function owns its basic blocks, formal arguments, address-exposed local
/// memory objects, and all MemoryName versions created for objects inside
/// it. The first block is the entry; it must not have predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_FUNCTION_H
#define SRP_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include <list>
#include <memory>

namespace srp {

class Module;

class Function {
  friend class BasicBlock;
  friend class Instruction;

  std::string Name;
  Type RetTy;
  Module *Parent;
  std::vector<std::unique_ptr<Argument>> Args;
  std::list<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<std::unique_ptr<MemoryObject>> Locals;
  std::vector<std::unique_ptr<MemoryName>> MemNames;
  /// Live-in SSA version of each memory object at function entry, indexed
  /// by MemoryObject::id(). Kept on the Function (not the MemoryObject)
  /// because globals are shared across functions but memory SSA is
  /// per-function.
  std::vector<MemoryName *> EntryNames;
  unsigned NextValueNumber = 0;
  unsigned NextBlockName = 0;
  unsigned BlockNumberBound = 0;
  unsigned MemoryNameBound = 0;
  uint64_t CFGEpoch = 0;
  uint64_t BodyEpoch = 0;

public:
  using iterator = std::list<std::unique_ptr<BasicBlock>>::iterator;
  using const_iterator = std::list<std::unique_ptr<BasicBlock>>::const_iterator;

  Function(std::string Name, Type RetTy, Module *Parent)
      : Name(std::move(Name)), RetTy(RetTy), Parent(Parent) {}
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;
  /// Drops all cross-instruction references before destruction so values
  /// may die in any order.
  ~Function();

  const std::string &name() const { return Name; }
  Type returnType() const { return RetTy; }
  Module *parent() const { return Parent; }

  //===--------------------------------------------------------------------===
  // Arguments.
  //===--------------------------------------------------------------------===

  Argument *addArgument(std::string ArgName) {
    Args.push_back(std::make_unique<Argument>(
        this, static_cast<unsigned>(Args.size()), std::move(ArgName)));
    return Args.back().get();
  }
  unsigned numArgs() const { return static_cast<unsigned>(Args.size()); }
  Argument *arg(unsigned I) const { return Args[I].get(); }

  //===--------------------------------------------------------------------===
  // Blocks.
  //===--------------------------------------------------------------------===

  iterator begin() { return Blocks.begin(); }
  iterator end() { return Blocks.end(); }
  const_iterator begin() const { return Blocks.begin(); }
  const_iterator end() const { return Blocks.end(); }
  bool empty() const { return Blocks.empty(); }
  unsigned size() const { return static_cast<unsigned>(Blocks.size()); }

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  /// Creates and appends a new block. An empty \p BBName gets a unique
  /// "bb<N>" name.
  BasicBlock *createBlock(std::string BBName = "");
  /// Creates a block and inserts it immediately after \p After.
  BasicBlock *createBlockAfter(BasicBlock *After, std::string BBName = "");
  /// One past the largest BasicBlock::number() handed out so far: the size
  /// of a vector indexed by block number. Numbers of erased blocks are not
  /// reused.
  unsigned blockNumberBound() const { return BlockNumberBound; }
  /// Removes and destroys \p BB. The block must have no predecessors and its
  /// instructions no remaining uses.
  void eraseBlock(BasicBlock *BB);
  /// Moves \p BB to the front of the block list, making it the entry.
  void makeEntry(BasicBlock *BB);

  /// Stable snapshot of block pointers in layout order.
  std::vector<BasicBlock *> blocks() const;

  //===--------------------------------------------------------------------===
  // Locals and memory SSA names.
  //===--------------------------------------------------------------------===

  MemoryObject *createLocal(std::string LocalName, MemoryObject::Kind K,
                            unsigned Size = 1, int64_t Init = 0);
  const std::vector<std::unique_ptr<MemoryObject>> &locals() const {
    return Locals;
  }

  /// Creates a fresh SSA version of \p Obj, owned by this function.
  MemoryName *createMemoryName(MemoryObject *Obj);
  /// One past the largest MemoryName::number() handed out so far: the size
  /// of a vector indexed by name number. Numbers of destroyed names are not
  /// reused, not even after clearMemorySSA().
  unsigned memoryNameBound() const { return MemoryNameBound; }

  /// The live-in version of \p Obj at function entry (null before memory
  /// SSA construction).
  MemoryName *entryMemoryName(const MemoryObject *Obj) const {
    return Obj->id() < EntryNames.size() ? EntryNames[Obj->id()] : nullptr;
  }
  void setEntryMemoryName(const MemoryObject *Obj, MemoryName *N) {
    if (Obj->id() >= EntryNames.size())
      EntryNames.resize(Obj->id() + 1, nullptr);
    EntryNames[Obj->id()] = N;
  }
  const std::vector<std::unique_ptr<MemoryName>> &memoryNames() const {
    return MemNames;
  }
  /// Destroys memory names that have no uses and no defining instruction
  /// reference (housekeeping; safe to skip).
  void purgeDeadMemoryNames();
  /// Drops all memory names and resets per-object version counters (used
  /// when rebuilding memory SSA from scratch).
  void clearMemorySSA();

  /// Returns a fresh unique value name with the given prefix ("%t42").
  std::string uniqueValueName(const char *Prefix = "t");

  //===--------------------------------------------------------------------===
  // Edit epochs: the IR mutators move them whenever an edit changes
  // something; cached analyses (analysis/AnalysisManager.h) compare them
  // with the epochs they were built at.
  //===--------------------------------------------------------------------===

  /// Moves when the block list, a terminator's successors or a
  /// predecessor list changes.
  uint64_t cfgEpoch() const { return CFGEpoch; }
  /// Moves when an instruction other than a memory phi is inserted or
  /// removed, or a register operand or phi incoming block changes.
  /// Memory-SSA annotations (mu/chi operands, memory phis, memory names)
  /// move neither epoch.
  uint64_t bodyEpoch() const { return BodyEpoch; }
};

} // namespace srp

#endif // SRP_IR_FUNCTION_H

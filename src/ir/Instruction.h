//===- ir/Instruction.h - Instruction hierarchy ----------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set. Each instruction carries three operand lists:
///   - Ops:     register operands (Values produced by instructions etc.)
///   - MemOps:  memory uses (MemoryName versions: load tags, mu-operands of
///              calls/pointer loads, memory-phi sources)
///   - MemDefs: memory definitions (new MemoryName versions: store targets,
///              chi-definitions of calls/pointer stores, memory-phi targets)
///
/// Phi instructions (register and memory) additionally carry incoming block
/// lists parallel to their operand lists.
///
/// Edits to Ops, to register-phi incoming blocks and to successors move the
/// parent function's edit epochs (ir/Function.h); edits to MemOps, MemDefs
/// and memory-phi incoming blocks are memory-SSA annotations and move none.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_INSTRUCTION_H
#define SRP_IR_INSTRUCTION_H

#include "ir/Memory.h"
#include "ir/Value.h"
#include <list>
#include <memory>

namespace srp {

class BasicBlock;
class Function;

/// Binary operator kinds (arithmetic, bitwise, and comparisons; comparisons
/// yield 0/1 ints).
enum class BinOpKind : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
};

/// Returns the source spelling of \p K (e.g. "add", "cmplt").
const char *binOpName(BinOpKind K);

class Instruction : public Value {
  friend class BasicBlock;

  BasicBlock *Parent = nullptr;
  /// Position within the parent's instruction list; valid iff Parent != null.
  std::list<std::unique_ptr<Instruction>>::iterator SelfIt;
  /// Index within the parent's instruction list; valid while the parent's
  /// order cache is (BasicBlock::indexOf renumbers the block lazily).
  unsigned OrderIndex = 0;

  std::vector<Value *> Ops;
  std::vector<MemoryName *> MemOps;
  std::vector<MemoryName *> MemDefs;

protected:
  Instruction(Kind K, Type Ty, std::string Name = "")
      : Value(K, Ty, std::move(Name)) {}

  /// Appends a register operand, registering the use.
  void addOperand(Value *V);

  /// Removes the register operand at index \p I (shifts the rest down).
  void removeOperand(unsigned I);

  /// Move the enclosing function's body / CFG epoch (no-ops while the
  /// instruction is not in a function).
  void noteBodyEdit();
  void noteCFGEdit();

public:
  ~Instruction() override;

  BasicBlock *parent() const { return Parent; }
  Function *function() const;

  static bool classof(const Value *V) {
    return V->kind() >= Kind::FirstInst && V->kind() <= Kind::LastInst;
  }

  //===--------------------------------------------------------------------===
  // Register operands.
  //===--------------------------------------------------------------------===

  unsigned numOperands() const { return static_cast<unsigned>(Ops.size()); }
  Value *operand(unsigned I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }
  const std::vector<Value *> &operands() const { return Ops; }
  void setOperand(unsigned I, Value *V);

  //===--------------------------------------------------------------------===
  // Memory operands (uses of MemoryName versions).
  //===--------------------------------------------------------------------===

  unsigned numMemOperands() const {
    return static_cast<unsigned>(MemOps.size());
  }
  MemoryName *memOperand(unsigned I) const {
    assert(I < MemOps.size() && "memory operand index out of range");
    return MemOps[I];
  }
  const std::vector<MemoryName *> &memOperands() const { return MemOps; }
  void setMemOperand(unsigned I, MemoryName *N);
  /// Appends a memory use. Subclasses and memory-SSA construction use this.
  void addMemOperand(MemoryName *N);
  /// Removes the memory use at index \p I (shifts the rest down).
  void removeMemOperand(unsigned I);
  void clearMemOperands();
  /// Returns the mu-operand for \p Obj, or null if there is none.
  MemoryName *memOperandFor(const MemoryObject *Obj) const;

  //===--------------------------------------------------------------------===
  // Memory definitions (new MemoryName versions this instruction creates).
  //===--------------------------------------------------------------------===

  unsigned numMemDefs() const { return static_cast<unsigned>(MemDefs.size()); }
  MemoryName *memDef(unsigned I) const {
    assert(I < MemDefs.size() && "memory def index out of range");
    return MemDefs[I];
  }
  const std::vector<MemoryName *> &memDefs() const { return MemDefs; }
  void addMemDef(MemoryName *N);
  void removeMemDef(unsigned I);
  void clearMemDefs();
  /// Returns the chi-definition for \p Obj, or null if there is none.
  MemoryName *memDefFor(const MemoryObject *Obj) const;

  //===--------------------------------------------------------------------===
  // Classification helpers used throughout the promoter.
  //===--------------------------------------------------------------------===

  bool isTerminator() const {
    return kind() == Kind::Br || kind() == Kind::CondBr || kind() == Kind::Ret;
  }

  /// Singleton load/store of a scalar resource (the memory operations the
  /// paper counts and promotes).
  bool isSingletonLoad() const { return kind() == Kind::Load; }
  bool isSingletonStore() const { return kind() == Kind::Store; }

  /// Aliased loads "include function calls and pointer references" (§3):
  /// instructions that may read a set of memory resources.
  bool isAliasedLoad() const {
    return kind() == Kind::Call || kind() == Kind::PtrLoad ||
           kind() == Kind::ArrayLoad || kind() == Kind::DummyLoad ||
           kind() == Kind::Ret; // Returns virtually read escaping memory.
  }

  /// Aliased stores: instructions that may define a set of memory resources.
  bool isAliasedStore() const {
    return kind() == Kind::Call || kind() == Kind::PtrStore ||
           kind() == Kind::ArrayStore;
  }

  /// True if removing this instruction requires no other justification than
  /// its result being unused.
  bool isRemovableIfUnused() const;

  /// Tear-down helper: forgets all operands without updating use lists.
  /// Only valid while destroying a whole function, where every value dies
  /// anyway and destruction order is arbitrary.
  void dropAllReferences() {
    Ops.clear();
    MemOps.clear();
    MemDefs.clear();
  }

  /// Unlinks this instruction from its parent block and destroys it. All
  /// operand uses are dropped; memory defs must already be dead or detached.
  void eraseFromParent();

  /// Unlinks from the parent block without destroying; returns ownership.
  std::unique_ptr<Instruction> removeFromParent();

  /// Successor blocks (terminators only; empty otherwise), and
  /// allocation-free access to the same list: its length and entry \p I.
  std::vector<BasicBlock *> successors() const;
  unsigned numSuccessors() const;
  BasicBlock *successor(unsigned I) const;
  virtual void replaceSuccessor(BasicBlock *Old, BasicBlock *New);
};

//===----------------------------------------------------------------------===
// Arithmetic and data movement.
//===----------------------------------------------------------------------===

class BinOpInst : public Instruction {
  BinOpKind Op;

public:
  BinOpInst(BinOpKind Op, Value *L, Value *R, std::string Name = "")
      : Instruction(Kind::BinOp, Type::Int, std::move(Name)), Op(Op) {
    addOperand(L);
    addOperand(R);
  }

  BinOpKind op() const { return Op; }
  Value *lhs() const { return operand(0); }
  Value *rhs() const { return operand(1); }

  static bool classof(const Value *V) { return V->kind() == Kind::BinOp; }
};

/// t = v. Produced by load replacement during promotion; removed by copy
/// propagation in cleanup.
class CopyInst : public Instruction {
public:
  explicit CopyInst(Value *Src, std::string Name = "")
      : Instruction(Kind::Copy, Src->type(), std::move(Name)) {
    addOperand(Src);
  }

  Value *source() const { return operand(0); }

  static bool classof(const Value *V) { return V->kind() == Kind::Copy; }
};

/// Register phi. Operand i flows in from incomingBlock(i).
class PhiInst : public Instruction {
  std::vector<BasicBlock *> Blocks;

public:
  explicit PhiInst(Type Ty, std::string Name = "")
      : Instruction(Kind::Phi, Ty, std::move(Name)) {}

  unsigned numIncoming() const { return numOperands(); }
  Value *incomingValue(unsigned I) const { return operand(I); }
  BasicBlock *incomingBlock(unsigned I) const {
    assert(I < Blocks.size() && "incoming index out of range");
    return Blocks[I];
  }
  void addIncoming(Value *V, BasicBlock *BB) {
    addOperand(V);
    Blocks.push_back(BB);
  }
  void setIncomingBlock(unsigned I, BasicBlock *BB) {
    assert(I < Blocks.size() && "incoming index out of range");
    if (Blocks[I] == BB)
      return;
    Blocks[I] = BB;
    noteBodyEdit();
  }
  /// Removes the incoming pair at index \p I.
  void removeIncoming(unsigned I);
  /// Returns the value flowing in from \p BB (asserts it exists).
  Value *incomingValueFor(const BasicBlock *BB) const;
  /// Returns the index of \p BB among the incoming blocks, or -1.
  int indexOfBlock(const BasicBlock *BB) const;

  static bool classof(const Value *V) { return V->kind() == Kind::Phi; }
};

//===----------------------------------------------------------------------===
// Memory operations.
//===----------------------------------------------------------------------===

/// t = ld [obj]. The singleton use is MemOps[0] once memory SSA is built.
class LoadInst : public Instruction {
  MemoryObject *Obj;

public:
  explicit LoadInst(MemoryObject *Obj, std::string Name = "")
      : Instruction(Kind::Load, Type::Int, std::move(Name)), Obj(Obj) {}

  MemoryObject *object() const { return Obj; }
  /// The SSA version this load reads (null before memory SSA construction).
  MemoryName *memUse() const {
    return numMemOperands() ? memOperand(0) : nullptr;
  }

  static bool classof(const Value *V) { return V->kind() == Kind::Load; }
};

/// st [obj] = v. Defines a new version of obj (MemDefs[0]).
class StoreInst : public Instruction {
  MemoryObject *Obj;

public:
  StoreInst(MemoryObject *Obj, Value *V)
      : Instruction(Kind::Store, Type::Void), Obj(Obj) {
    addOperand(V);
  }

  MemoryObject *object() const { return Obj; }
  Value *storedValue() const { return operand(0); }
  MemoryName *memDefName() const {
    return numMemDefs() ? memDef(0) : nullptr;
  }

  static bool classof(const Value *V) { return V->kind() == Kind::Store; }
};

/// t = &obj (address of a memory object; for arrays, address of cell 0).
class AddrOfInst : public Instruction {
  MemoryObject *Obj;

public:
  explicit AddrOfInst(MemoryObject *Obj, std::string Name = "")
      : Instruction(Kind::AddrOf, Type::Ptr, std::move(Name)), Obj(Obj) {}

  MemoryObject *object() const { return Obj; }

  static bool classof(const Value *V) { return V->kind() == Kind::AddrOf; }
};

/// t = *(addr). An aliased load: MemOps are mu-uses of every resource the
/// pointer may reference.
class PtrLoadInst : public Instruction {
public:
  explicit PtrLoadInst(Value *Addr, std::string Name = "")
      : Instruction(Kind::PtrLoad, Type::Int, std::move(Name)) {
    addOperand(Addr);
  }

  Value *address() const { return operand(0); }

  static bool classof(const Value *V) { return V->kind() == Kind::PtrLoad; }
};

/// *(addr) = v. An aliased store: MemOps are mu-uses of the old versions and
/// MemDefs are chi-definitions of every resource the pointer may reference.
class PtrStoreInst : public Instruction {
public:
  PtrStoreInst(Value *Addr, Value *V)
      : Instruction(Kind::PtrStore, Type::Void) {
    addOperand(Addr);
    addOperand(V);
  }

  Value *address() const { return operand(0); }
  Value *storedValue() const { return operand(1); }

  static bool classof(const Value *V) { return V->kind() == Kind::PtrStore; }
};

/// t = arr[idx]. Reads the array object only (arrays never alias scalars).
class ArrayLoadInst : public Instruction {
  MemoryObject *Obj;

public:
  ArrayLoadInst(MemoryObject *Obj, Value *Idx, std::string Name = "")
      : Instruction(Kind::ArrayLoad, Type::Int, std::move(Name)), Obj(Obj) {
    addOperand(Idx);
  }

  MemoryObject *object() const { return Obj; }
  Value *index() const { return operand(0); }

  static bool classof(const Value *V) { return V->kind() == Kind::ArrayLoad; }
};

/// arr[idx] = v. Defines a new version of the array object.
class ArrayStoreInst : public Instruction {
  MemoryObject *Obj;

public:
  ArrayStoreInst(MemoryObject *Obj, Value *Idx, Value *V)
      : Instruction(Kind::ArrayStore, Type::Void), Obj(Obj) {
    addOperand(Idx);
    addOperand(V);
  }

  MemoryObject *object() const { return Obj; }
  Value *index() const { return operand(0); }
  Value *storedValue() const { return operand(1); }

  static bool classof(const Value *V) {
    return V->kind() == Kind::ArrayStore;
  }
};

/// t = call f(args). May use and define every escaping memory resource
/// (§3: "a function call may modify and use all memory singleton resources
/// from global variables"): MemOps carry the mu-uses, MemDefs the
/// chi-definitions.
class CallInst : public Instruction {
  Function *Callee;

public:
  CallInst(Function *Callee, std::vector<Value *> Args, Type RetTy,
           std::string Name = "")
      : Instruction(Kind::Call, RetTy, std::move(Name)), Callee(Callee) {
    for (Value *A : Args)
      addOperand(A);
  }

  Function *callee() const { return Callee; }

  static bool classof(const Value *V) { return V->kind() == Kind::Call; }
};

/// print(v): appends v to the program's observable output. No memory
/// effects; used by the equivalence property tests.
class PrintInst : public Instruction {
public:
  explicit PrintInst(Value *V) : Instruction(Kind::Print, Type::Void) {
    addOperand(V);
  }

  Value *value() const { return operand(0); }

  static bool classof(const Value *V) { return V->kind() == Kind::Print; }
};

//===----------------------------------------------------------------------===
// Terminators.
//===----------------------------------------------------------------------===

class BrInst : public Instruction {
  BasicBlock *Target;

public:
  explicit BrInst(BasicBlock *Target)
      : Instruction(Kind::Br, Type::Void), Target(Target) {}

  BasicBlock *target() const { return Target; }

  void replaceSuccessor(BasicBlock *Old, BasicBlock *New) override;

  static bool classof(const Value *V) { return V->kind() == Kind::Br; }
};

class CondBrInst : public Instruction {
  BasicBlock *TrueBB, *FalseBB;

public:
  CondBrInst(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB)
      : Instruction(Kind::CondBr, Type::Void), TrueBB(TrueBB),
        FalseBB(FalseBB) {
    addOperand(Cond);
  }

  Value *condition() const { return operand(0); }
  BasicBlock *trueTarget() const { return TrueBB; }
  BasicBlock *falseTarget() const { return FalseBB; }

  void replaceSuccessor(BasicBlock *Old, BasicBlock *New) override;

  static bool classof(const Value *V) { return V->kind() == Kind::CondBr; }
};

/// ret [v]. Carries mu-uses of every escaping memory resource so that
/// memory modified before return is live-out of every enclosing interval
/// (the caller observes it).
class RetInst : public Instruction {
public:
  explicit RetInst(Value *V = nullptr) : Instruction(Kind::Ret, Type::Void) {
    if (V)
      addOperand(V);
  }

  Value *returnValue() const {
    return numOperands() ? operand(0) : nullptr;
  }

  static bool classof(const Value *V) { return V->kind() == Kind::Ret; }
};

//===----------------------------------------------------------------------===
// Memory SSA pseudo-instructions.
//===----------------------------------------------------------------------===

/// Memory phi: x_n = phi(x_a:L1, ..., x_z:Lk) for one MemoryObject. The
/// target version is MemDefs[0]; sources are MemOps, parallel to Blocks.
class MemPhiInst : public Instruction {
  MemoryObject *Obj;
  std::vector<BasicBlock *> Blocks;

public:
  explicit MemPhiInst(MemoryObject *Obj)
      : Instruction(Kind::MemPhi, Type::Void), Obj(Obj) {}

  MemoryObject *object() const { return Obj; }
  MemoryName *target() const { return numMemDefs() ? memDef(0) : nullptr; }

  unsigned numIncoming() const { return numMemOperands(); }
  MemoryName *incomingName(unsigned I) const { return memOperand(I); }
  BasicBlock *incomingBlock(unsigned I) const {
    assert(I < Blocks.size() && "incoming index out of range");
    return Blocks[I];
  }
  void addIncoming(MemoryName *N, BasicBlock *BB) {
    addMemOperand(N);
    Blocks.push_back(BB);
  }
  void setIncomingBlock(unsigned I, BasicBlock *BB) {
    assert(I < Blocks.size() && "incoming index out of range");
    Blocks[I] = BB;
  }
  void removeIncoming(unsigned I);
  int indexOfBlock(const BasicBlock *BB) const;

  static bool classof(const Value *V) { return V->kind() == Kind::MemPhi; }
};

/// Dummy aliased load of one resource. Inserted in interval preheaders to
/// summarise, for the parent interval, that the promoted inner interval
/// requires the resource's value to be valid in memory on entry (§4.4).
/// Deleted once promotion finishes.
class DummyLoadInst : public Instruction {
  MemoryObject *Obj;

public:
  explicit DummyLoadInst(MemoryObject *Obj)
      : Instruction(Kind::DummyLoad, Type::Void), Obj(Obj) {}

  MemoryObject *object() const { return Obj; }

  static bool classof(const Value *V) { return V->kind() == Kind::DummyLoad; }
};

} // namespace srp

#endif // SRP_IR_INSTRUCTION_H
